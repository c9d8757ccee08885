#ifndef HGDB_TRACE_VCD_READER_H
#define HGDB_TRACE_VCD_READER_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"
#include "waveform/waveform_source.h"

namespace hgdb::trace {

/// One traced variable (alias of the waveform-layer signal descriptor).
using VcdVar = waveform::SignalInfo;

/// A fully in-memory waveform store with per-signal time-indexed change
/// lists, parsed from VCD text by the streaming parser.
///
/// This is the small-trace fast path of the replay flow (paper Sec. 3.3):
/// the VCD carries the design hierarchy but no definition information, so
/// the debugger matches symbol-table instance names onto it by substring
/// matching. X/Z values are mapped to 0 (the runtime is two-state).
/// Id-code aliases (several $var names on one net) share a single change
/// list through a canonical-id indirection — N aliased names cost one
/// stream's memory, not N.
/// For production-scale dumps use waveform::IndexedWaveform, which answers
/// the same WaveformSource queries from an on-disk block index.
class VcdTrace final : public waveform::WaveformSource {
 public:
  [[nodiscard]] const std::vector<VcdVar>& vars() const { return vars_; }
  [[nodiscard]] std::optional<size_t> var_index(const std::string& name) const;
  [[nodiscard]] uint64_t max_time() const override { return max_time_; }

  // -- waveform::WaveformSource -------------------------------------------------
  [[nodiscard]] size_t signal_count() const override { return vars_.size(); }
  [[nodiscard]] const waveform::SignalInfo& signal(size_t index) const override {
    return vars_[index];
  }
  [[nodiscard]] std::optional<size_t> signal_index(
      const std::string& hier_name) const override {
    return var_index(hier_name);
  }
  [[nodiscard]] size_t canonical_index(size_t index) const override {
    return canonical_[index];
  }

  /// Value of variable `index` at `time` (last change at or before `time`;
  /// zero before the first change).
  [[nodiscard]] common::BitVector value_at(size_t index,
                                           uint64_t time) const override;

  /// Times at which the variable transitions 0 -> nonzero.
  [[nodiscard]] std::vector<uint64_t> rising_edges(size_t index) const override;

  /// Change list (time, value), sorted by time — the canonical signal's
  /// list for aliased indexes.
  [[nodiscard]] const std::vector<std::pair<uint64_t, common::BitVector>>&
  changes(size_t index) const {
    return changes_[canonical_[index]];
  }

  /// Signals sharing another signal's change list.
  [[nodiscard]] size_t alias_count() const { return alias_count_; }

  /// Rough resident footprint of the change lists in bytes (bench proxy
  /// for comparing against the indexed store's bounded cache). Aliased
  /// streams are counted once — they are stored once.
  [[nodiscard]] size_t resident_bytes() const;

 private:
  friend class VcdTraceBuilder;
  std::vector<VcdVar> vars_;
  std::map<std::string, size_t> by_name_;
  std::vector<std::vector<std::pair<uint64_t, common::BitVector>>> changes_;
  std::vector<size_t> canonical_;  ///< change-list owner per signal
  size_t alias_count_ = 0;
  uint64_t max_time_ = 0;
};

/// Parses VCD text. Throws std::runtime_error on malformed input.
VcdTrace parse_vcd(std::string_view text);
/// Streams a VCD file through the chunked parser (constant parse memory on
/// top of the materialized change lists).
VcdTrace parse_vcd_file(const std::string& path);

/// Opens a waveform by file type: ".wvx" -> waveform::IndexedWaveform
/// (on-disk index, LRU-bounded residency), anything else -> in-memory
/// VcdTrace parse.
std::shared_ptr<waveform::WaveformSource> open_waveform(
    const std::string& path,
    size_t cache_blocks = waveform::kDefaultCacheBlocks);

}  // namespace hgdb::trace

#endif  // HGDB_TRACE_VCD_READER_H
