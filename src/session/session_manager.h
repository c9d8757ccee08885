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

/// The protocol front-end host between debugger transports and the
/// wire-format-free DebugService core (the "RPC-based debugging protocol"
/// of the paper's Sec. 3.5, grown into protocol v2 + DAP).
///
/// The manager owns:
///  - the DebugService — typed requests, push event sinks, per-client
///    ownership, the stop handshake (see debug_service.h);
///  - one connection table for both front ends, with one accept loop per
///    listener, one registration path (writer target, service client,
///    typed session-limit rejection), one cleanup path and one shutdown
///    join. Breakpoint refcounts, stop routing, and the session limit span
///    both protocols; only the reader loop and the event rendering differ:
///    - *native* (add_client, listen_tcp): a DebugSession per rpc::Channel,
///      dispatching v2 JSON envelopes through a *command registry* whose
///      handlers decode payloads and call the typed core. A message that
///      is not a v2 envelope gets a typed malformed-request error;
///    - *DAP* (listen_dap): a DapSession per VSCode connection, over
///      Content-Length framing.
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
  /// returns the session id. It returns 0 when the session limit rejected
  /// the client (its first request still gets a typed `too-many-sessions`
  /// answer before the session closes) or when shutdown is in progress
  /// (the channel is closed). Every session, JSON and binary alike, sends
  /// through the async EventWriter, so pushed events always ride the
  /// bounded-queue slow-client policy.
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

  /// Attached connections of both front ends, native and DAP (a session
  /// stops counting once its peer is gone).
  [[nodiscard]] size_t session_count() const;

  // -- protocol ----------------------------------------------------------------
  /// What the runtime's backend supports, straight from
  /// vpi::SimulatorInterface.
  [[nodiscard]] rpc::Capabilities capabilities() const;
  /// Registered command names (the `connect` catalogue), sorted.
  [[nodiscard]] std::vector<std::string> command_names() const;

  // -- runtime hook ------------------------------------------------------------
  /// Called by the runtime's scheduler when a stop fires; forwards to
  /// DebugService::deliver_stop (routing + handshake).
  Command deliver_stop(rpc::StopEvent event);

 private:
  struct Entry {
    std::unique_ptr<Connection> connection;
    std::thread thread;
  };
  /// One TCP listener and its accept thread.
  struct Listener {
    std::unique_ptr<rpc::TcpServer> server;
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
  /// Adds one command to the catalogue (called by register_builtins).
  void register_command(const std::string& name, Handler handler,
                        Gate gate = Gate::None);

  // -- connection lifecycle (both front ends) ----------------------------------
  /// Binds `listener` (once) and starts its accept thread, which calls
  /// `accept_one` until it reports the server closed or shutdown begins;
  /// returns the bound port.
  uint16_t listen(Listener& listener, uint16_t port,
                  std::function<bool(rpc::TcpServer&)> accept_one);
  /// Registers `connection` under `name`: its writer target, its service
  /// client (a session-limit rejection marks it rejected), its table entry
  /// and a reader thread running `read_loop`, then cleanup. Returns the
  /// client id, or 0 when it was rejected or shutdown began.
  uint64_t attach(std::unique_ptr<Connection> connection, const char* name,
                  obs::Counter* bytes_sent, std::function<void()> read_loop);
  /// After the reader loop: flushes the final response, closes the
  /// transport, unhooks the writer target and unregisters the client
  /// (releasing owned breakpoints/watches/subscriptions and resigning it
  /// from a pending stop).
  void cleanup(Connection& connection);

  // -- native front end --------------------------------------------------------
  void session_loop(DebugSession& session);
  void dispatch(DebugSession& session, const std::string& text);
  rpc::ResponseV2 execute(DebugSession& session, const rpc::RequestV2& request);
  void handle_execution(DebugSession& session, const rpc::RequestV2& request,
                        rpc::ResponseV2& response, Command command);
  /// Flips the session + service to binary event frames (the `connect`
  /// capability opt-in). Runs on the session's own reader thread.
  void enable_binary_events(DebugSession& session);

  runtime::Runtime* runtime_;
  std::unique_ptr<DebugService> service_;
  /// Async event writer shared by every connection. Declared before
  /// entries_ so it outlives the connections during destruction (targets
  /// are removed in cleanup() before a connection dies).
  std::unique_ptr<rpc::EventWriter> event_writer_;
  /// `session.native.bytes_sent` / `session.dap.bytes_sent`: bytes the
  /// writer flushed to each front end's clients.
  obs::Counter* native_bytes_sent_ = nullptr;
  obs::Counter* dap_bytes_sent_ = nullptr;

  mutable common::SessionsMutex sessions_mutex_{"session::sessions"};
  std::vector<Entry> entries_ HGDB_GUARDED_BY(sessions_mutex_);

  std::map<std::string, CommandSpec> commands_;  // immutable after ctor

  std::atomic<bool> shutting_down_{false};
  // Bound and reset under sessions_mutex_; each accept thread uses its
  // server unlocked, since shutdown() joins the thread before the reset.
  Listener native_listener_;
  Listener dap_listener_;
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_SESSION_MANAGER_H
