#ifndef HGDB_VPI_SIM_INTERFACE_H
#define HGDB_VPI_SIM_INTERFACE_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.h"

namespace hgdb::vpi {

enum class ClockEdge : uint8_t { Rising, Falling };

/// The paper's *unified simulator interface* (Sec. 3.3): the minimum set of
/// primitives hgdb needs from any simulation environment. Commercial
/// simulators implement these through a small VPI subset; this repo
/// provides a native backend (our RTL simulator) and a trace backend (VCD
/// replay). The debugger runtime is written only against this class.
///
/// Required primitives:
///   - get signal value            -> get_value()
///   - get design hierarchy/clocks -> signal_names(), clock_names()
///   - callbacks on clock changes  -> add/remove_clock_callback()
/// Optional primitives:
///   - get and set simulation time -> get_time()/set_time() (reverse debug)
///   - set signal value            -> set_value() (not possible on traces)
class SimulatorInterface {
 public:
  virtual ~SimulatorInterface() = default;

  // -- required ---------------------------------------------------------------
  /// Value of a full hierarchical signal name; nullopt if unknown.
  [[nodiscard]] virtual std::optional<common::BitVector> get_value(
      const std::string& hier_name) = 0;
  /// Every hierarchical signal name in the design (the "design hierarchy"
  /// query; used to locate the generated IP inside the test environment).
  [[nodiscard]] virtual std::vector<std::string> signal_names() const = 0;
  /// Hierarchical names of clock signals.
  [[nodiscard]] virtual std::vector<std::string> clock_names() const = 0;

  using ClockCallback = std::function<void(ClockEdge, uint64_t /*time*/)>;
  /// Fires after the design reaches equilibrium at each clock edge — the
  /// zero-delay property the breakpoint emulation relies on. The simulator
  /// blocks while the callback runs, which is how hgdb pauses simulation.
  virtual uint64_t add_clock_callback(ClockCallback callback) = 0;
  virtual void remove_clock_callback(uint64_t handle) = 0;

  // -- optional ---------------------------------------------------------------
  /// What kind of environment backs this interface: "live" for a running
  /// simulator, "replay" for recorded traces. Advertised to debuggers via
  /// the protocol-v2 capability handshake so clients stop guessing which
  /// command families (set-value, time travel) can work.
  [[nodiscard]] virtual const char* backend_kind() const { return "live"; }

  [[nodiscard]] virtual uint64_t get_time() const = 0;
  [[nodiscard]] virtual bool supports_time_travel() const { return false; }
  /// Rewinds (or advances) simulation time; returns false if unsupported
  /// or out of range.
  virtual bool set_time(uint64_t /*time*/) { return false; }

  [[nodiscard]] virtual bool supports_set_value() const { return false; }
  /// Forces a signal value; returns false if unsupported (e.g. traces).
  virtual bool set_value(const std::string& /*hier_name*/,
                         const common::BitVector& /*value*/) {
    return false;
  }

  // -- batched reads (the compiled-breakpoint fast path) -----------------------
  /// Resolves a hierarchical name to a stable opaque handle for batched
  /// reads; nullopt when the signal is unknown. The debugger runtime calls
  /// this once when a breakpoint or watchpoint is armed, so the per-edge
  /// path never resolves strings. Handles stay valid for the lifetime of
  /// the backend. The default implementation registers the name in an
  /// internal table and serves get_values() through get_value(), so
  /// backends that cannot batch need no changes.
  [[nodiscard]] virtual std::optional<uint64_t> lookup_signal(
      const std::string& hier_name);
  /// Reads `count` signals in one call: out[i]/present[i] receive the
  /// value and availability of handles[i]. Implementations should write
  /// out[i] with copy-assignment (the caller reuses the buffers across
  /// edges, which keeps the fetch allocation-free for small values).
  virtual void get_values(const uint64_t* handles, size_t count,
                          common::BitVector* out, uint8_t* present);
  /// Zero-copy variant: out[i] receives a pointer into the backend's own
  /// value store for handles[i] (nullptr when unavailable) instead of a
  /// copy. Pointers stay valid — and their pointees stable — until the
  /// simulation next advances, which under the zero-delay callback
  /// contract means for the duration of the current clock-edge callback.
  /// Returns false when the backend cannot expose stable storage (an
  /// in-memory trace replay; RPC backends marshal) — callers then fall
  /// back to the copying get_values(). The native backend returns direct
  /// pointers into the simulator's value array, so a fetch round over N
  /// unchanged signals copies nothing; an indexed replay returns pointers
  /// into per-handle read cursors.
  [[nodiscard]] virtual bool get_value_views(
      const uint64_t* /*handles*/, size_t /*count*/,
      const common::BitVector** /*out*/) {
    return false;
  }
  /// Declares the handles the caller will keep reading through
  /// get_value_views() (the debugger runtime's armed read set, re-declared
  /// whenever it changes; empty = none). A backend that keeps per-handle
  /// state for views may release the state of every other handle. The
  /// default keeps no such state and does nothing.
  virtual void retain_views(const uint64_t* /*handles*/, size_t /*count*/) {}

 private:
  /// Names registered by the default lookup_signal(), indexed by handle,
  /// with the inverse map for handle-stable deduplication.
  std::vector<std::string> batch_names_;
  std::map<std::string, uint64_t> batch_handles_;
};

}  // namespace hgdb::vpi

#endif  // HGDB_VPI_SIM_INTERFACE_H
