#ifndef HGDB_SESSION_DEBUG_SERVICE_H
#define HGDB_SESSION_DEBUG_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/checked_mutex.h"
#include "obs/metrics.h"
#include "rpc/event_frame.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"

namespace hgdb::runtime {
class Runtime;
}  // namespace hgdb::runtime

namespace hgdb::session {

/// A breakpoint source location (filename + line).
using Location = std::pair<std::string, uint32_t>;
using ClientId = uint64_t;

/// Typed failure from a DebugService call. Protocol front ends map the
/// code onto their wire format (the native v2 error field, a DAP error
/// response); the reason is a human-readable sentence.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(rpc::ErrorCode code, const std::string& reason)
      : std::runtime_error(reason), code_(code) {}
  [[nodiscard]] rpc::ErrorCode code() const { return code_; }

 private:
  rpc::ErrorCode code_;
};

// -- typed requests / results -------------------------------------------------

struct BreakpointSpec {
  std::string filename;
  uint32_t line = 0;
  std::string condition;  ///< optional user expression
};

struct BreakpointView {
  int64_t id = 0;
  std::string filename;
  uint32_t line = 0;
  std::string instance;
  bool owned = false;  ///< the asking client holds an arm at this location
};

struct LocationView {
  int64_t id = 0;
  std::string filename;
  uint32_t line = 0;
  uint32_t column = 0;
  std::string instance;
};

struct EvaluateSpec {
  std::string expression;
  std::optional<int64_t> breakpoint_id;  ///< frame scope when set
  std::string instance_name;             ///< else instance scope ("" = top)
};

struct EvaluateResult {
  std::string value;  ///< decimal rendering
  uint32_t width = 0;
};

struct WatchSpec {
  std::string expression;
  std::string instance_name;
};

struct VariableView {
  std::string name;
  bool is_rtl = false;
  std::string value;
  std::optional<uint32_t> width;  ///< set for RTL-backed values
};

struct InstanceView {
  int64_t id = 0;
  std::string name;
};

struct ClientView {
  ClientId id = 0;
  std::string name;
};

struct SubscribeSpec {
  std::vector<std::string> signals;
  std::string instance_name;
  /// Deliver every Nth change event of this subscription (client-chosen
  /// decimation; 1 = every event). 0 is clamped to 1.
  uint32_t decimation = 1;
  /// Server-side rate limit in simulation-time units: after a delivered
  /// event at time T, events with time < T + min_interval are dropped
  /// (counted per subscription as events_dropped). 0 = no throttle.
  /// Applied after decimation; the initial snapshot always passes.
  uint64_t min_interval = 0;
};

// -- events pushed through the sink -------------------------------------------

/// One event pushed from the runtime to a client. Kind selects which
/// member is meaningful.
struct ServiceEvent {
  enum class Kind : uint8_t { Stop, ValueChange, Lifecycle, BreakpointChanged };

  struct ValueChange {
    uint64_t subscription = 0;
    uint64_t time = 0;
    struct Change {
      std::string signal;
      std::string value;  ///< decimal rendering
      uint32_t width = 0;
    };
    std::vector<Change> changes;
  };

  Kind kind = Kind::Stop;
  rpc::StopEvent stop;        ///< Kind::Stop
  ValueChange value_change;   ///< Kind::ValueChange
  std::string lifecycle;      ///< Kind::Lifecycle ("shutdown")
  /// Kind::BreakpointChanged: another client edited a shared location.
  rpc::BreakpointChangeEvent breakpoint_change;
  /// Serialize-once body for binary-events sinks: filled by the service
  /// before fan-out when any recipient is binary, so N binary subscribers
  /// share one encoding (a refcount bump each) instead of re-rendering.
  /// Unset when no binary recipient exists; a binary sink receiving an
  /// unset body (a direct deliver in tests) encodes on demand.
  rpc::SharedFrame binary_body;
};

/// The push half of the service API: the runtime delivers stop,
/// value-change, and lifecycle events through this interface. A front end
/// implements it per client and renders the typed event onto its wire.
/// deliver() may be called from the simulation thread and from service
/// threads concurrently; implementations must be thread-safe. Returning
/// false marks the client unreachable (the service stops expecting answers
/// from it).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual bool deliver(const ServiceEvent& event) = 0;
};

/// The wire-format-free debugging core: every protocol front end (the
/// native v2 JSON protocol, the DAP adapter, in-process test drivers)
/// calls these typed methods and receives pushed ServiceEvents through its
/// EventSink. The service owns all cross-client semantics:
///
///  - client registry with the RuntimeOptions::max_sessions accept limit
///    (typed `too-many-sessions` rejection);
///  - per-client breakpoint ownership with per-(location, condition)
///    refcounts — two clients can hold different conditions on one shared
///    location, and a stop is routed only to the clients whose own
///    condition matched;
///  - watchpoint ownership and value-change subscriptions with
///    per-subscription decimation (riding the runtime's change serials);
///  - the stop handshake between the simulation thread and however many
///    engaged clients owe an answer (first resume command wins; a departed
///    client can never hang a stop).
///
/// Every method may throw ServiceError with a typed rpc::ErrorCode.
class DebugService {
 public:
  using Command = rpc::Command;

  explicit DebugService(runtime::Runtime& runtime);
  ~DebugService();

  DebugService(const DebugService&) = delete;
  DebugService& operator=(const DebugService&) = delete;

  // -- clients -----------------------------------------------------------------
  /// Registers a client and its event sink; returns the client id. Throws
  /// ServiceError(TooManySessions) beyond RuntimeOptions::max_sessions.
  /// The sink must outlive the registration.
  ClientId register_client(const std::string& name, EventSink* sink);
  /// Releases everything the client owns (breakpoint arms, watches,
  /// subscriptions), resigns it from a pending stop, and forgets it.
  /// Returns how many runtime breakpoints died. Safe to call twice.
  size_t unregister_client(ClientId id);
  void set_client_name(ClientId id, const std::string& name);
  /// Marks the client as a binary-events subscriber: fan-out serializes
  /// hot events once into ServiceEvent::binary_body for it (and every
  /// other binary client) instead of per-client JSON rendering.
  void set_client_binary(ClientId id, bool binary);
  [[nodiscard]] size_t client_count() const;
  [[nodiscard]] std::vector<ClientView> clients() const;

  /// What the runtime's backend supports (the `connect` handshake body).
  [[nodiscard]] rpc::Capabilities capabilities() const;

  // -- breakpoints -------------------------------------------------------------
  /// Arms filename:line (optionally with a condition) for this client and
  /// engages it. Returns the inserted breakpoint ids. Typed errors:
  /// NoSuchLocation (no symbol breakpoint there), NoSuchEntity (unknown
  /// condition symbol), InvalidPayload (malformed condition).
  std::vector<int64_t> arm_breakpoint(ClientId id, const BreakpointSpec& spec);
  /// Releases the client's arms at filename[:line] (line 0 = whole file).
  /// Returns how many runtime breakpoints died (shared arms survive).
  size_t disarm_breakpoint(ClientId id, const std::string& filename,
                           uint32_t line);
  [[nodiscard]] std::vector<BreakpointView> list_breakpoints(
      ClientId id) const;
  [[nodiscard]] std::vector<LocationView> breakpoint_locations(
      const std::string& filename, uint32_t line) const;

  // -- execution ---------------------------------------------------------------
  /// Answers the pending stop (or requests a pause while running). `time`
  /// is required for Jump. Typed errors: InvalidState when the simulation
  /// is not stopped / another client already answered, InvalidPayload for
  /// a missing or out-of-range jump target.
  void execute(ClientId id, Command command,
               std::optional<uint64_t> time = std::nullopt);
  /// Releases the client's owned state but keeps it attached (protocol
  /// `detach`). Returns how many runtime breakpoints died.
  size_t detach(ClientId id);

  // -- evaluation --------------------------------------------------------------
  EvaluateResult evaluate(const EvaluateSpec& spec);
  /// Arms a watchpoint owned by this client; returns the watch id.
  int64_t arm_watch(ClientId id, const WatchSpec& spec);
  /// Typed NoSuchEntity when the client does not own the watch.
  void disarm_watch(ClientId id, int64_t watch_id);

  // -- hierarchy / symbol browsing ---------------------------------------------
  [[nodiscard]] std::vector<InstanceView> instances() const;
  /// Generator variables of an instance with their current values.
  [[nodiscard]] std::vector<VariableView> variables(
      const std::string& instance_name) const;
  /// Frame locals + generator variables for a breakpoint id.
  [[nodiscard]] rpc::Frame frame_variables(int64_t breakpoint_id) const;
  [[nodiscard]] std::vector<std::string> files() const;

  // -- signal forcing ----------------------------------------------------------
  /// Forces a signal (`set-value`). Typed NoSuchEntity when unknown.
  void set_value(const std::string& name, const std::string& value);

  // -- subscriptions -----------------------------------------------------------
  /// Subscribes the client to value-change events for the given signals at
  /// the given decimation; events arrive through the client's sink as
  /// Kind::ValueChange. Returns the subscription id.
  uint64_t subscribe(ClientId id, const SubscribeSpec& spec);
  /// Typed NoSuchEntity when the client does not own the subscription.
  void unsubscribe(ClientId id, uint64_t subscription_id);
  [[nodiscard]] size_t subscription_count() const;

  // -- service counters --------------------------------------------------------
  /// The `session.*` counters (requests, protocol_errors, stops_broadcast,
  /// events_delivered/_decimated/_dropped) live in metrics(); `stats`
  /// reads them from there.
  void count_request() { requests_->add(1); }
  void count_protocol_error() { protocol_errors_->add(1); }
  /// The runtime's registry; all `session.*` metrics live here next to
  /// the `runtime.*` ones, so one exposition page covers the stack.
  [[nodiscard]] obs::MetricsRegistry& metrics() const;

  // -- cross-client notifications ----------------------------------------------
  /// Pushes a `breakpoint-changed` event to every *other* attached v2+
  /// session when `actor` arms or disarms a shared location (action
  /// "armed" / "disarmed"). Fired by arm_breakpoint/disarm_breakpoint for
  /// explicit protocol commands only — implicit releases at detach or
  /// disconnect do not notify. The caller must hold no service locks.
  void notify_breakpoint_change(ClientId actor, const std::string& action,
                                const Location& location,
                                const std::string& condition);

  // -- runtime hooks -----------------------------------------------------------
  /// Called by the runtime's scheduler when a stop fires: routes the event
  /// to the relevant clients' sinks (condition-routed stops reach only the
  /// sessions whose own condition matched) and blocks until one engaged
  /// recipient answers with an execution command. Continue when no client
  /// is expected to answer or the service is shutting down.
  Command deliver_stop(rpc::StopEvent event);

  /// Two-phase shutdown bracket used by the front-end host: begin_ wakes a
  /// simulation thread parked in deliver_stop (it resumes with Continue);
  /// finish_ waits for it to actually leave the handshake, then clears the
  /// shared stop state and re-arms the service for reuse.
  void begin_shutdown();
  void finish_shutdown();
  [[nodiscard]] bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

 private:
  struct ClientState {
    ClientId id = 0;
    std::string name;
    EventSink* sink = nullptr;
    bool engaged = false;  ///< expected to answer stops
    bool binary = false;   ///< receives events as binary frames
    /// Owned breakpoint arms: one entry per (location, condition) this
    /// client holds ("" = unconditional).
    std::set<std::pair<Location, std::string>> arms;
    std::set<int64_t> watches;
    std::set<uint64_t> subscriptions;
  };

  struct SubscriptionState {
    uint64_t id = 0;        ///< runtime subscription id (shared id space)
    ClientId client = 0;
    uint32_t decimation = 1;
    uint64_t events_seen = 0;
    /// Minimum sim-time gap between delivered events (0 = off).
    uint64_t min_interval = 0;
    uint64_t last_delivered_time = 0;
    bool delivered_any = false;
    /// Registry counter `session.subscription.<id>.events_dropped`
    /// (removed from the registry at unsubscribe/release). Null when
    /// min_interval is 0.
    obs::Counter* dropped = nullptr;
  };
  /// Drops the per-subscription registry counter.
  void remove_subscription_metric_locked(const SubscriptionState& state)
      HGDB_REQUIRES(clients_mutex_);

  /// True when `client` should receive this stop: non-owners and
  /// non-condition-routed stops broadcast; owners of a stopped location
  /// are filtered by their own condition's membership in the frame's
  /// matched set.
  static bool stop_relevant(const ClientState& client,
                            const rpc::StopEvent& event);
  void engage_locked(ClientState& client) HGDB_REQUIRES(clients_mutex_) {
    client.engaged = true;
  }
  /// Throws NoSuchEntity for unknown ids.
  ClientState& client_at(ClientId id) HGDB_REQUIRES(clients_mutex_);
  /// Removes a client from the current stop's expected responders; once
  /// every engaged recipient has answered or resigned, the simulation
  /// auto-resumes with Continue.
  void resign_from_stop(ClientId id);
  size_t release_client_state_locked(ClientState& client)
      HGDB_REQUIRES(clients_mutex_);
  /// Runtime change-listener callback (rendered): applies the
  /// per-subscription decimation and forwards to the owning client's sink.
  void handle_value_changes(
      int64_t subscription_id, uint64_t time,
      std::vector<ServiceEvent::ValueChange::Change> changes);

  runtime::Runtime* runtime_;

  // Brackets every sink->deliver() call. Sink callbacks run under this
  // mutex with clients_mutex_ *released*, so a slow or re-entrant sink
  // cannot block attach/arm/subscribe traffic — and may call back into
  // the service. Sink lifetime is still guaranteed: unregister_client
  // acquires delivery_mutex_ before removing the client, so once it
  // returns no deliver() can be in flight on the departing sink.
  common::DeliveryMutex delivery_mutex_{"session::delivery"};

  mutable common::ClientsMutex clients_mutex_{"session::clients"};
  std::map<ClientId, ClientState> clients_ HGDB_GUARDED_BY(clients_mutex_);
  ClientId next_client_id_ HGDB_GUARDED_BY(clients_mutex_) = 1;
  std::map<uint64_t, SubscriptionState> subscriptions_
      HGDB_GUARDED_BY(clients_mutex_);

  // Stop/command handshake between the sim thread and front-end threads.
  // The first execution command wins; pending_responders_ tracks which
  // engaged clients still owe an answer for the current stop.
  common::CommandMutex command_mutex_{"session::command"};
  std::condition_variable_any command_ready_;
  std::optional<Command> pending_command_ HGDB_GUARDED_BY(command_mutex_);
  bool waiting_for_command_ HGDB_GUARDED_BY(command_mutex_) = false;
  std::set<ClientId> pending_responders_ HGDB_GUARDED_BY(command_mutex_);

  std::atomic<bool> shutting_down_{false};

  // Service counters, resolved once from the runtime's MetricsRegistry
  // (relaxed-atomic adds; same hot-path discipline as the runtime's).
  obs::Counter* requests_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* stops_broadcast_ = nullptr;
  obs::Counter* events_delivered_ = nullptr;
  obs::Counter* events_decimated_ = nullptr;
  obs::Counter* events_dropped_ = nullptr;
  /// `session.breakpoint_changes`: breakpoint-changed events delivered to
  /// non-actor sessions.
  obs::Counter* breakpoint_changes_ = nullptr;
  /// Stop-to-command-latency histogram (`session.stop_handshake_ns`).
  obs::Histogram* stop_handshake_ns_ = nullptr;
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_DEBUG_SERVICE_H
