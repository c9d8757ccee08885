#ifndef HGDB_OBS_TRACE_H
#define HGDB_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/checked_mutex.h"

/// Compile-time master switch for span instrumentation. The build defines
/// HGDB_OBS_SPANS_ENABLED=0 (cmake -DHGDB_OBS_SPANS=OFF) to make every
/// HGDB_TRACE_* macro expand to nothing — zero code, zero branches, zero
/// atomics at the instrumentation points. Default is on: the runtime cost
/// of an un-started recorder is one relaxed bool load per span site,
/// which bench/metrics_overhead holds inside the fig5 budget.
#ifndef HGDB_OBS_SPANS_ENABLED
#define HGDB_OBS_SPANS_ENABLED 1
#endif

namespace hgdb::obs {

/// One decoded trace event, as read back out of the ring.
struct TraceEvent {
  const char* category = "";  ///< span taxonomy group ("runtime", "wvx", ...)
  const char* name = "";      ///< static or interned string
  char phase = 'X';           ///< 'X' complete span, 'i' instant event
  uint64_t ts_ns = 0;         ///< start, ns since recorder construction
  uint64_t dur_ns = 0;        ///< 0 for instants
  uint32_t tid = 0;           ///< small per-process thread ordinal
  bool has_arg = false;
  uint64_t arg = 0;  ///< optional payload (batch size, skip count, ...)
};

/// Lock-free ring buffer of begin/end spans, exportable as chrome://tracing
/// / Perfetto JSON ("trace event format", ph:"X" complete events).
///
/// Recording: a writer claims a slot with one fetch_add on the head ticket
/// and fills per-field relaxed atomics, publishing with a release store of
/// the ticket into the slot's sequence word. No locks anywhere on the
/// write path, so spans may be emitted from the sim thread's evaluation
/// loop. When the ring wraps, the oldest events are overwritten (dropped()
/// counts them) — a debugger trace wants the most recent window, not the
/// oldest.
///
/// Reading (snapshot/export) validates each slot's sequence after decoding
/// it, skipping slots that a concurrent writer was mid-flight on. Dumps
/// taken after stop() are exact; dumps while recording are best-effort.
///
/// Span names must be string literals or pointers that outlive the
/// recorder; for dynamic names (command names) use intern(), which stores
/// one stable copy per distinct string.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder the HGDB_TRACE_* macros write into.
  static TraceRecorder& global();

  // -- control -----------------------------------------------------------------
  void start() {
    ring();  // allocated before any span can see enabled()
    enabled_.store(true, std::memory_order_relaxed);
  }
  void stop() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Discards all buffered events (recording state unchanged).
  void clear();

  // -- recording ---------------------------------------------------------------
  /// ns since recorder construction (steady clock).
  [[nodiscard]] uint64_t now_ns() const;

  /// Appends a completed span. Callers pass the ts they sampled at span
  /// entry so the event brackets the real interval.
  void record_complete(const char* category, const char* name, uint64_t ts_ns,
                       uint64_t dur_ns, bool has_arg = false,
                       uint64_t arg = 0);
  /// Appends an instant event (chrome ph:"i").
  void record_instant(const char* category, const char* name,
                      bool has_arg = false, uint64_t arg = 0);

  /// Stable copy of a dynamic string for use as a span name. Takes a
  /// mutex; call only on control paths (command dispatch), never per-edge.
  const char* intern(std::string_view text);

  // -- readback ----------------------------------------------------------------
  /// Decoded events currently in the ring, oldest first by write order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// chrome://tracing / Perfetto JSON: {"traceEvents": [...],
  /// "displayTimeUnit": "ns"}; ts/dur in microseconds per the format.
  [[nodiscard]] std::string export_chrome_json() const;

  [[nodiscard]] size_t capacity() const { return capacity_; }
  /// Events ever written (monotonic, survives clear()).
  [[nodiscard]] uint64_t recorded() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wrap-around since the last clear().
  [[nodiscard]] uint64_t dropped() const;

 private:
  struct Slot {
    /// ticket+1 of the event occupying the slot; 0 = empty/in-flight.
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> category{nullptr};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<char> phase{0};
    std::atomic<bool> has_arg{false};
  };

  void write(char phase, const char* category, const char* name,
             uint64_t ts_ns, uint64_t dur_ns, bool has_arg, uint64_t arg);
  /// The slot ring, allocated on first use: a recorder that never records
  /// (tracing off, the common case) touches none of its capacity x 56
  /// bytes (3.5 MiB at the default capacity).
  Slot* ring();

  size_t capacity_;  ///< power of two
  size_t mask_;
  common::ObsMutex ring_mutex_{"obs::ring"};
  std::unique_ptr<Slot[]> slots_ HGDB_GUARDED_BY(ring_mutex_);
  std::atomic<Slot*> ring_{nullptr};  ///< slots_.get() once allocated
  std::atomic<uint64_t> head_{0};   ///< next ticket
  std::atomic<uint64_t> base_{0};   ///< first live ticket (bumped by clear())
  std::atomic<uint64_t> total_{0};  ///< lifetime events written
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point origin_;

  common::ObsMutex intern_mutex_{"obs::intern"};
  std::set<std::string, std::less<>> interned_ HGDB_GUARDED_BY(intern_mutex_);
};

/// RAII complete-span helper: samples the clock at construction when the
/// recorder is started, records an 'X' event covering its lifetime at
/// destruction. When the recorder is stopped the constructor is one
/// relaxed load and the destructor a null check.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder& recorder, const char* category, const char* name)
      : recorder_(recorder.enabled() ? &recorder : nullptr),
        category_(category),
        name_(name) {
    if (recorder_ != nullptr) start_ = recorder_->now_ns();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->record_complete(category_, name_, start_,
                                 recorder_->now_ns() - start_, has_arg_, arg_);
    }
  }

  /// Attaches a numeric payload emitted with the span (e.g. batch size).
  void set_arg(uint64_t value) {
    arg_ = value;
    has_arg_ = true;
  }

 private:
  TraceRecorder* recorder_;
  const char* category_;
  const char* name_;
  uint64_t start_ = 0;
  uint64_t arg_ = 0;
  bool has_arg_ = false;
};

/// Stand-in for TraceSpan when spans are compiled out: an empty object the
/// optimizer erases, so set_arg() call sites still compile.
struct NullSpan {
  void set_arg(uint64_t) {}
};

}  // namespace hgdb::obs

// ---------------------------------------------------------------------------
// Instrumentation-point macros. Compile to nothing with
// -DHGDB_OBS_SPANS=OFF; otherwise cost one relaxed load while tracing is
// stopped.
// ---------------------------------------------------------------------------
#if HGDB_OBS_SPANS_ENABLED
#define HGDB_OBS_CONCAT2(a, b) a##b
#define HGDB_OBS_CONCAT(a, b) HGDB_OBS_CONCAT2(a, b)
/// Scoped span in the global recorder: HGDB_TRACE_SPAN("runtime", "eval").
#define HGDB_TRACE_SPAN(category, name)                               \
  ::hgdb::obs::TraceSpan HGDB_OBS_CONCAT(hgdb_trace_span_, __LINE__)( \
      ::hgdb::obs::TraceRecorder::global(), category, name)
/// Same, but named so the body can call .set_arg(value).
#define HGDB_TRACE_SPAN_VAR(var, category, name) \
  ::hgdb::obs::TraceSpan var(::hgdb::obs::TraceRecorder::global(), category, \
                             name)
/// Instant event with a numeric payload (skip counts, queue depths).
#define HGDB_TRACE_INSTANT(category, name, value)                        \
  do {                                                                   \
    auto& hgdb_trace_rec = ::hgdb::obs::TraceRecorder::global();         \
    if (hgdb_trace_rec.enabled()) {                                      \
      hgdb_trace_rec.record_instant(category, name, true,                \
                                    static_cast<uint64_t>(value));       \
    }                                                                    \
  } while (0)
#else
#define HGDB_TRACE_SPAN(category, name)
#define HGDB_TRACE_SPAN_VAR(var, category, name) ::hgdb::obs::NullSpan var
#define HGDB_TRACE_INSTANT(category, name, value) \
  do {                                            \
  } while (0)
#endif

#endif  // HGDB_OBS_TRACE_H
