#ifndef HGDB_VPI_REPLAY_BACKEND_H
#define HGDB_VPI_REPLAY_BACKEND_H

#include <memory>
#include <vector>

#include "common/checked_mutex.h"
#include "trace/replay.h"
#include "vpi/sim_interface.h"
#include "waveform/indexed_waveform.h"

namespace hgdb::vpi {

/// Trace backend: adapts a waveform replay engine to the unified interface
/// (the "Replay tool" box in the paper's Fig. 1). The engine's store may be
/// an in-memory trace::VcdTrace or an on-disk waveform::IndexedWaveform —
/// the debugger runtime above cannot tell the difference.
///
/// Unlike a live simulator, nothing drives time forward by itself; the
/// owner calls run_forward()/run_backward()/step(), and the backend fires
/// rising-edge callbacks at every visited clock edge — identical to what
/// the debugger runtime sees from a live simulation, which is the whole
/// point of the unified interface. set_value is unsupported (you cannot
/// change history); set_time is fully supported in both directions.
class ReplayBackend final : public SimulatorInterface {
 public:
  explicit ReplayBackend(trace::ReplayEngine engine);

  [[nodiscard]] std::optional<common::BitVector> get_value(
      const std::string& hier_name) override {
    return engine_.value(hier_name);
  }
  [[nodiscard]] std::vector<std::string> signal_names() const override;
  [[nodiscard]] std::vector<std::string> clock_names() const override;
  uint64_t add_clock_callback(ClockCallback callback) override;
  void remove_clock_callback(uint64_t handle) override;

  [[nodiscard]] const char* backend_kind() const override { return "replay"; }
  [[nodiscard]] uint64_t get_time() const override { return engine_.time(); }
  [[nodiscard]] bool supports_time_travel() const override { return true; }
  bool set_time(uint64_t time) override;
  [[nodiscard]] bool supports_set_value() const override { return false; }

  /// Batched reads resolve the waveform signal index once per armed name;
  /// the per-edge fetch then reads by index, skipping the name lookup the
  /// scalar get_value() pays on every call. Handles are canonical signal
  /// indexes, so aliases share one handle.
  [[nodiscard]] std::optional<uint64_t> lookup_signal(
      const std::string& hier_name) override {
    auto index = engine_.signal_index(hier_name);
    if (!index) return std::nullopt;
    return static_cast<uint64_t>(*index);
  }
  void get_values(const uint64_t* handles, size_t count,
                  common::BitVector* out, uint8_t* present) override {
    for (size_t i = 0; i < count; ++i) {
      out[i] = engine_.value_at(static_cast<size_t>(handles[i]));
      present[i] = 1;
    }
  }
  /// Over an IndexedWaveform, views read through one waveform::SignalCursor
  /// per handle, which pins its decoded block: a read at a time inside the
  /// cursor's interval is a compare, one inside its block skips the reader
  /// lock and the block cache. The views point at the cursors' values.
  /// Over an in-memory trace, views are declined (false). The copying
  /// get_values() keeps the value_at() path and creates no cursor.
  [[nodiscard]] bool get_value_views(const uint64_t* handles, size_t count,
                                     const common::BitVector** out) override;
  /// Drops the cursor (and its pinned block) of every handle not listed.
  void retain_views(const uint64_t* handles, size_t count) override;
  /// Decoded blocks held by cursors, on top of the block cache's
  /// residency.
  [[nodiscard]] size_t pinned_blocks() const;

  // -- replay driving -----------------------------------------------------------
  /// Advances one clock edge and fires callbacks; false at trace end.
  bool step_forward();
  /// Rewinds one clock edge and fires callbacks; false at trace start.
  bool step_backward();
  /// Runs forward to the end of the trace (callbacks at every edge).
  void run_forward();

  [[nodiscard]] trace::ReplayEngine& engine() { return engine_; }

 private:
  void fire();

  trace::ReplayEngine engine_;
  /// The indexed store behind engine_, or nullptr (views declined).
  const waveform::IndexedWaveform* indexed_ = nullptr;
  mutable common::CursorMutex cursors_mutex_{"replay::cursors"};
  /// Indexed by handle; null where no view has been read or the cursor
  /// was released. Cursors live on the heap, so a view stays valid while
  /// the table grows.
  std::vector<std::unique_ptr<waveform::SignalCursor>> cursors_
      HGDB_GUARDED_BY(cursors_mutex_);
  std::vector<std::pair<uint64_t, ClockCallback>> callbacks_;
  uint64_t next_handle_ = 1;
};

}  // namespace hgdb::vpi

#endif  // HGDB_VPI_REPLAY_BACKEND_H
