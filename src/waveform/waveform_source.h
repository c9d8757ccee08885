#ifndef HGDB_WAVEFORM_WAVEFORM_SOURCE_H
#define HGDB_WAVEFORM_WAVEFORM_SOURCE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"

namespace hgdb::waveform {

/// One traced signal (dotted hierarchical name + bit width).
struct SignalInfo {
  std::string hier_name;
  uint32_t width = 1;
};

/// Default LRU capacity (in blocks) for indexed backends; shared by every
/// opener so the documented default cannot drift.
inline constexpr size_t kDefaultCacheBlocks = 64;

/// Abstract waveform store: the query interface the replay path is written
/// against (trace::ReplayEngine, vpi::ReplayBackend and the debugger runtime
/// above them). Two interchangeable backends exist:
///
///  - trace::VcdTrace          in-memory change lists, parsed from VCD text;
///                             fastest for small traces, O(trace) resident.
///  - waveform::IndexedWaveform on-disk columnar block index (.wvx) with an
///                             LRU block cache; O(log n) seeks, residency
///                             bounded by the cache capacity — the
///                             production-scale backend.
///
/// Implementations must be safe for concurrent value_at() calls. The
/// runtime reads a source from the simulation thread and serves session
/// requests while the simulation is parked; the promise is kept pending a
/// TSan proof that no other thread reads it (ROADMAP item 1(c)).
class WaveformSource {
 public:
  virtual ~WaveformSource() = default;

  [[nodiscard]] virtual size_t signal_count() const = 0;
  [[nodiscard]] virtual const SignalInfo& signal(size_t index) const = 0;
  [[nodiscard]] virtual std::optional<size_t> signal_index(
      const std::string& hier_name) const = 0;
  /// Index of the signal owning `index`'s change stream. Aliased names
  /// (several $var declarations sharing one net) map to one canonical
  /// index so callers caching per-signal state (replay fetch plans, block
  /// caches) dedupe storage; non-aliased signals return themselves.
  [[nodiscard]] virtual size_t canonical_index(size_t index) const {
    return index;
  }
  [[nodiscard]] virtual uint64_t max_time() const = 0;

  /// Value of signal `index` at `time`: last change at or before `time`,
  /// zero before the first change.
  [[nodiscard]] virtual common::BitVector value_at(size_t index,
                                                   uint64_t time) const = 0;

  /// Times at which the signal transitions 0 -> nonzero.
  [[nodiscard]] virtual std::vector<uint64_t> rising_edges(size_t index) const = 0;
};

/// True for leaf names that look like a clock ("clock"/"clk", any case).
[[nodiscard]] bool is_clock_leaf(std::string_view leaf);

/// Hierarchical names of 1-bit signals whose leaf looks like a clock.
[[nodiscard]] std::vector<std::string> clock_signal_names(
    const WaveformSource& source);

/// Resolves the clock that defines the replay cycle grid. With an explicit
/// `clock_name` it tries an exact match, then a dotted-suffix match. With an
/// empty name it auto-detects via is_clock_leaf() over 1-bit signals. Throws
/// std::runtime_error with a diagnosable message when nothing matches.
[[nodiscard]] size_t resolve_clock(const WaveformSource& source,
                                   const std::string& clock_name);

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_WAVEFORM_SOURCE_H
