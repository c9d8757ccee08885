// Benchmark-owned decorators that time the library from outside: a
// SimulatorInterface that forwards every call to the real backend and
// accumulates the time spent in the runtime's clock callback, batched
// fetches and time travel; and an rpc::Channel that puts a deadline on
// every receive so no wait in the benchmark can hang.
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "rpc/channel.h"
#include "vpi/sim_interface.h"

namespace perfbench {

/// Per-layer counters gathered by TimedInterface. Written on the driving
/// thread only; read by the load generator while the driving thread is
/// parked in a stop or after it finished.
struct InterfaceTimes {
  uint64_t edges = 0;            ///< rising-edge callbacks
  uint64_t edges_no_stop = 0;    ///< ... that delivered no stop
  uint64_t self_ns_no_stop = 0;  ///< callback minus fetch, no-stop edges
  uint64_t fetch_ns = 0;         ///< get_values + get_value_views
  uint64_t set_time_calls = 0;
  uint64_t set_time_ns = 0;
};

/// Forwards every virtual call of the unified simulator interface to
/// `inner`. `stops` is a counter the load generator bumps for each stop it
/// receives: a callback during which it moved delivered a stop, which
/// separates runtime self time from stop handling.
class TimedInterface final : public hgdb::vpi::SimulatorInterface {
 public:
  TimedInterface(hgdb::vpi::SimulatorInterface& inner,
                 const std::atomic<uint64_t>& stops)
      : inner_(inner), stops_(stops) {}

  std::optional<hgdb::common::BitVector> get_value(
      const std::string& hier_name) override {
    return inner_.get_value(hier_name);
  }
  std::vector<std::string> signal_names() const override {
    return inner_.signal_names();
  }
  std::vector<std::string> clock_names() const override {
    return inner_.clock_names();
  }
  uint64_t add_clock_callback(ClockCallback callback) override;
  void remove_clock_callback(uint64_t handle) override {
    inner_.remove_clock_callback(handle);
  }
  const char* backend_kind() const override { return inner_.backend_kind(); }
  uint64_t get_time() const override { return inner_.get_time(); }
  bool supports_time_travel() const override {
    return inner_.supports_time_travel();
  }
  bool set_time(uint64_t time) override {
    const uint64_t start = now_ns();
    const bool ok = inner_.set_time(time);
    times_.set_time_ns += now_ns() - start;
    ++times_.set_time_calls;
    return ok;
  }
  bool supports_set_value() const override {
    return inner_.supports_set_value();
  }
  bool set_value(const std::string& hier_name,
                 const hgdb::common::BitVector& value) override {
    return inner_.set_value(hier_name, value);
  }
  std::optional<uint64_t> lookup_signal(const std::string& hier_name) override {
    return inner_.lookup_signal(hier_name);
  }
  void get_values(const uint64_t* handles, size_t count,
                  hgdb::common::BitVector* out, uint8_t* present) override {
    const uint64_t start = now_ns();
    inner_.get_values(handles, count, out, present);
    note_fetch(now_ns() - start);
  }
  bool get_value_views(const uint64_t* handles, size_t count,
                       const hgdb::common::BitVector** out) override {
    const uint64_t start = now_ns();
    const bool ok = inner_.get_value_views(handles, count, out);
    note_fetch(now_ns() - start);
    return ok;
  }

  [[nodiscard]] const InterfaceTimes& times() const { return times_; }

 private:
  void note_fetch(uint64_t ns) {
    times_.fetch_ns += ns;
    edge_fetch_ns_ += ns;
  }

  hgdb::vpi::SimulatorInterface& inner_;
  const std::atomic<uint64_t>& stops_;
  InterfaceTimes times_;
  uint64_t edge_fetch_ns_ = 0;
};

/// Channel decorator: a receive without a timeout waits at most
/// `deadline`. DebugClient's request/response calls block on receive();
/// through this wrapper a server that never answers turns into a failed
/// request (the client throws "debug channel closed") instead of a hang.
class DeadlineChannel final : public hgdb::rpc::Channel {
 public:
  DeadlineChannel(std::unique_ptr<hgdb::rpc::Channel> inner,
                  std::chrono::milliseconds deadline)
      : inner_(std::move(inner)), deadline_(deadline) {}

  void send(std::string message) override { inner_->send(std::move(message)); }
  std::optional<std::string> receive(
      std::optional<std::chrono::milliseconds> timeout) override {
    auto message = inner_->receive(timeout.value_or(deadline_));
    if (!message && !timeout) missed_.store(true);
    return message;
  }
  void close() override { inner_->close(); }
  bool closed() const override { return inner_->closed(); }
  int native_handle() const override { return inner_->native_handle(); }

  /// True once a request waited out its deadline.
  [[nodiscard]] bool missed_deadline() const { return missed_.load(); }

 private:
  std::unique_ptr<hgdb::rpc::Channel> inner_;
  std::chrono::milliseconds deadline_;
  std::atomic<bool> missed_{false};
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
