#ifndef HGDB_SESSION_SESSION_MANAGER_H
#define HGDB_SESSION_SESSION_MANAGER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/checked_mutex.h"
#include "obs/metrics.h"
#include "rpc/event_writer.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"
#include "session/debug_service.h"
#include "session/debug_session.h"

namespace hgdb::rpc {
class TcpServer;
}  // namespace hgdb::rpc

namespace hgdb::runtime {
class Runtime;
}  // namespace hgdb::runtime

namespace hgdb::session {

class DapServer;

/// The protocol front-end host between debugger transports and the
/// wire-format-free DebugService core (the "RPC-based debugging protocol"
/// of the paper's Sec. 3.5, grown into protocol v2 + DAP).
///
/// The manager owns:
///  - the DebugService — typed requests, push event sinks, per-client
///    ownership, the stop handshake (see debug_service.h);
///  - the *native* front end: N concurrent DebugSessions over any
///    rpc::Channel plus a TCP accept loop (listen_tcp), dispatching v2
///    JSON envelopes through a *command registry* whose handlers decode
///    payloads and call the typed core — adding a request family means
///    registering a handler, not editing the runtime core. A message
///    that is not a v2 envelope gets a typed malformed-request error;
///  - the *DAP* front end (listen_dap): VSCode attaches over Content-
///    Length framing, sharing the same core — breakpoint refcounts, stop
///    routing, and the session limit span both protocols.
class SessionManager {
 public:
  using Command = rpc::Command;
  /// A command handler fills in `response` (already carrying the echoed
  /// command/token). Throwing ServiceError maps to its typed code;
  /// std::invalid_argument to invalid-payload, std::out_of_range to
  /// no-such-entity, anything else to internal-error.
  using Handler = std::function<void(DebugSession&, const rpc::RequestV2&,
                                     rpc::ResponseV2&)>;

  /// Capability a command requires; gated before the handler runs.
  enum class Gate : uint8_t { None, TimeTravel, SetValue };

  explicit SessionManager(runtime::Runtime& runtime);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// The typed core shared by every front end.
  [[nodiscard]] DebugService& service() { return *service_; }

  // -- clients -----------------------------------------------------------------
  /// Attaches a native-protocol client and starts its reader thread;
  /// returns the session id (0 when the client was rejected by the
  /// session limit — it still receives a typed `too-many-sessions` answer
  /// to its first request before the session closes). Every session,
  /// JSON and binary alike, sends through the async EventWriter, so
  /// pushed events always ride the bounded-queue slow-client policy.
  /// Throws std::invalid_argument when the channel has no socket.
  uint64_t add_client(std::unique_ptr<rpc::Channel> channel);
  /// Binds loopback TCP (0 = ephemeral) and accepts native clients until
  /// shutdown; returns the bound port.
  uint16_t listen_tcp(uint16_t port = 0);
  /// Binds loopback TCP for Debug Adapter Protocol clients (VSCode);
  /// returns the bound port.
  uint16_t listen_dap(uint16_t port = 0);
  /// Closes every session (native and DAP) and the listeners; joins all
  /// threads. The manager is reusable afterwards.
  void shutdown();

  /// Attached native-protocol sessions (DAP connections excluded; the
  /// DebugService counts every client).
  [[nodiscard]] size_t session_count() const;

  // -- protocol ----------------------------------------------------------------
  /// What the runtime's backend supports, straight from
  /// vpi::SimulatorInterface.
  [[nodiscard]] rpc::Capabilities capabilities() const;
  /// Registered command names (the `connect` catalogue), sorted.
  [[nodiscard]] std::vector<std::string> command_names() const;
  /// Registers or overrides a command handler (extension point; the
  /// built-in catalogue is registered by the constructor).
  void register_command(const std::string& name, Handler handler,
                        Gate gate = Gate::None);

  // -- runtime hook ------------------------------------------------------------
  /// Called by the runtime's scheduler when a stop fires; forwards to
  /// DebugService::deliver_stop (routing + handshake).
  Command deliver_stop(rpc::StopEvent event);

 private:
  struct Entry {
    std::unique_ptr<DebugSession> session;
    std::thread thread;
  };
  struct CommandSpec {
    Handler handler;
    Gate gate = Gate::None;
    /// Per-command request count (`session.command.<name>` in the
    /// registry), resolved at registration.
    obs::Counter* count = nullptr;
  };

  void register_builtins();
  void accept_loop();
  void session_loop(DebugSession* session);
  void dispatch(DebugSession& session, const std::string& text);
  rpc::ResponseV2 execute(DebugSession& session, const rpc::RequestV2& request);
  /// Post-disconnect cleanup: unregisters the client from the service
  /// (releasing owned breakpoints/watches/subscriptions and resigning it
  /// from a pending stop).
  void cleanup_session(DebugSession& session);
  void handle_execution(DebugSession& session, const rpc::RequestV2& request,
                        rpc::ResponseV2& response, Command command);
  /// Flips the session + service to binary event frames (the `connect`
  /// capability opt-in). Runs on the session's own reader thread.
  void enable_binary_events(DebugSession& session);

  runtime::Runtime* runtime_;
  std::unique_ptr<DebugService> service_;
  /// Async event writer shared by every session. Declared before
  /// entries_ so it outlives the sessions during destruction (targets are
  /// removed in cleanup_session before a session dies).
  std::unique_ptr<rpc::EventWriter> event_writer_;
  /// `session.native.bytes_sent`: bytes the writer flushed to native
  /// clients.
  obs::Counter* native_bytes_sent_ = nullptr;

  mutable common::SessionsMutex sessions_mutex_{"session::sessions"};
  std::vector<Entry> entries_ HGDB_GUARDED_BY(sessions_mutex_);

  std::map<std::string, CommandSpec> commands_;  // immutable after ctor

  std::atomic<bool> shutting_down_{false};
  std::unique_ptr<rpc::TcpServer> tcp_server_;
  std::thread accept_thread_;
  std::unique_ptr<DapServer> dap_server_;
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_SESSION_MANAGER_H
