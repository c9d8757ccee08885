#ifndef HGDB_DEBUGGER_CLIENT_H
#define HGDB_DEBUGGER_CLIENT_H

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rpc/channel.h"
#include "rpc/event_frame.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"

namespace hgdb::debugger {

/// One expression's result from evaluate_batch().
struct EvalResult {
  std::string expression;
  bool ok = false;
  std::string value;
  uint32_t width = 0;
  std::string reason;
};

/// One pushed value-change event from a `subscribe` stream.
struct ValueEvent {
  int64_t subscription = 0;
  uint64_t time = 0;
  struct Change {
    std::string signal;
    std::string value;
    uint32_t width = 0;
  };
  std::vector<Change> changes;
};

/// Synchronous debugger client speaking the JSON debug protocol over any
/// rpc::Channel (in-process socketpair, or TCP to a remote runtime). This
/// is the programmatic equivalent of the paper's gdb-like debugger; the
/// VSCode extension in the paper speaks the same protocol.
///
/// Every request is a protocol v2 envelope: connect() performs the
/// handshake and records the runtime's negotiated capabilities, and failed
/// requests carry typed error codes (last_error_code()).
///
/// Stop events arriving while a request is in flight are queued and
/// surfaced through wait_stop().
class DebugClient {
 public:
  explicit DebugClient(std::unique_ptr<rpc::Channel> channel);

  // -- handshake -----------------------------------------------------------------
  /// Negotiates capabilities with the runtime. Optional but recommended:
  /// afterwards capabilities() says whether jump/reverse/set-value can work.
  /// With `binary_events` the client asks for the binary event framing:
  /// pushed events then arrive as length-prefixed frames (decoded
  /// transparently — wait_stop()/wait_values() behave identically) while
  /// requests and responses stay JSON v2.
  bool connect(const std::string& client_name = "hgdb-client",
               bool binary_events = false);
  [[nodiscard]] const std::optional<rpc::Capabilities>& capabilities() const {
    return capabilities_;
  }
  /// True once the runtime confirmed the binary-events opt-in.
  [[nodiscard]] bool binary_events() const { return binary_events_; }

  // -- breakpoints --------------------------------------------------------------
  /// Returns the inserted breakpoint ids (empty + error reason on failure).
  std::vector<int64_t> set_breakpoint(const std::string& filename, uint32_t line,
                                      const std::string& condition = "");
  size_t remove_breakpoint(const std::string& filename, uint32_t line);
  /// Lists symbol breakpoints at a location (line 0 = whole file).
  common::Json list_locations(const std::string& filename, uint32_t line = 0);

  // -- execution control ---------------------------------------------------------
  bool resume();            ///< continue
  bool step_over();
  bool step_back();
  bool reverse_resume();    ///< reverse-continue
  bool pause();
  bool jump(uint64_t time);
  bool detach();
  /// Detaches and asks the runtime to close this session.
  bool disconnect();

  // -- inspection ------------------------------------------------------------------
  /// Blocks until the next stop event (or timeout).
  std::optional<rpc::StopEvent> wait_stop(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);
  /// Evaluates an expression in a breakpoint frame or instance scope.
  std::optional<std::string> evaluate(const std::string& expression,
                                      std::optional<int64_t> breakpoint_id,
                                      const std::string& instance = "");
  common::Json info();

  // -- request families ----------------------------------------------------------
  /// One round trip, many expressions (IDE variable panes).
  std::vector<EvalResult> evaluate_batch(
      const std::vector<std::string>& expressions,
      std::optional<int64_t> breakpoint_id = std::nullopt,
      const std::string& instance = "");
  /// Arms a watchpoint; returns its id.
  std::optional<int64_t> watch(const std::string& expression,
                               const std::string& instance = "");
  bool unwatch(int64_t id);
  /// Subscribes to pushed value-change events for `signals` at the given
  /// decimation (receive every Nth event); returns the subscription id.
  /// Events arrive asynchronously and queue like stop events; drain them
  /// with wait_values().
  std::optional<int64_t> subscribe(const std::vector<std::string>& signals,
                                   uint32_t decimation = 1,
                                   const std::string& instance = "",
                                   uint64_t min_interval = 0);
  bool unsubscribe(int64_t id);
  /// Blocks until the next value-change event (or timeout).
  std::optional<ValueEvent> wait_values(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);
  /// Blocks until another attached session arms or disarms a breakpoint
  /// on a shared location (pushed "breakpoint-changed" events).
  std::optional<rpc::BreakpointChangeEvent> wait_breakpoint_change(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);
  /// The most recent lifecycle notice ("shutdown", ...) pushed on a
  /// binary-events session; empty when none arrived.
  [[nodiscard]] const std::string& last_lifecycle() const {
    return last_lifecycle_;
  }
  common::Json list_instances();
  common::Json list_variables(const std::string& instance);
  common::Json stats();
  /// Prometheus text exposition of the server's metrics registry (empty
  /// string on failure).
  std::string metrics();
  /// Structured metrics snapshot ({"counters", "gauges", "histograms"}).
  common::Json metrics_json();
  /// Trace-recorder control: action is start|stop|clear|status; returns
  /// the status payload (enabled/recorded/dropped/capacity).
  common::Json trace_control(const std::string& action);
  /// Fetches the buffered spans as chrome://tracing / Perfetto JSON text.
  std::string trace_dump();
  bool set_value(const std::string& name, const std::string& value);

  /// Reason of the last failed request.
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  /// Typed code of the last failed request (None after success).
  [[nodiscard]] rpc::ErrorCode last_error_code() const {
    return last_error_code_;
  }

 private:
  rpc::ResponseV2 transact(const std::string& command, common::Json payload);
  bool send_command(rpc::Command command, uint64_t time = 0);
  /// Queues `message` if it is a pushed event (binary frame or JSON) and
  /// returns nullopt; returns the decoded response when it is one.
  /// Unparseable messages are dropped.
  std::optional<rpc::ResponseV2> absorb(const std::string& message);
  /// Queues one pushed JSON event by name; unknown names are ignored.
  /// Throws std::runtime_error on a malformed payload.
  void queue_event(const rpc::EventV2& event);

  std::unique_ptr<rpc::Channel> channel_;
  std::deque<rpc::StopEvent> stops_;
  std::deque<ValueEvent> values_;
  std::deque<rpc::BreakpointChangeEvent> breakpoint_changes_;
  std::string last_lifecycle_;
  int64_t next_token_ = 1;
  std::string last_error_;
  rpc::ErrorCode last_error_code_ = rpc::ErrorCode::None;
  std::optional<rpc::Capabilities> capabilities_;
  bool binary_events_ = false;
};

}  // namespace hgdb::debugger

#endif  // HGDB_DEBUGGER_CLIENT_H
