#ifndef HGDB_SESSION_DAP_SESSION_H
#define HGDB_SESSION_DAP_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checked_mutex.h"
#include "common/json.h"
#include "rpc/event_writer.h"
#include "rpc/tcp.h"
#include "session/dap_protocol.h"
#include "session/debug_service.h"
#include "session/debug_session.h"

namespace hgdb::session {

/// One Debug Adapter Protocol connection: VSCode (or any DAP client) over
/// loopback TCP with `Content-Length` framing, adapted onto the
/// DebugService core:
///
///   initialize            -> capability advertisement + `initialized`
///   launch / attach       -> no-op success (the simulation already runs)
///   setBreakpoints        -> disarm-then-arm per source, conditions kept
///   configurationDone     -> no-op success
///   threads               -> design instances (the paper's "hardware
///                            threads": same line, different instance)
///   stackTrace / scopes / variables
///                         -> frames of the last stop, locals + generator
///                            variables from the symbol table
///   continue / next / stepIn / stepOut / stepBack / reverseContinue /
///   pause                 -> execution commands through the stop handshake
///   evaluate              -> expression evaluation in frame scope
///   disconnect            -> releases the client's state
///
/// Stop events push as DAP `stopped` events; subscriptions surface as
/// custom `hgdbValues` events. SessionManager hosts it exactly like a
/// native DebugSession, so DAP and native-protocol debuggers share
/// breakpoint refcounts, stop routing, and the session limit.
class DapSession final : public Connection {
 public:
  DapSession(std::unique_ptr<rpc::ByteStream> stream, DebugService& service,
             rpc::EventWriter& writer);

  /// The reader loop: decodes requests and answers them until the peer
  /// leaves, the connection is closed, a framing error, or `disconnect`.
  void serve();

  /// Renders a pushed service event as a DAP event.
  bool deliver(const ServiceEvent& event) override;

 private:
  struct FrameEntry {
    rpc::Frame frame;
    int64_t locals_ref = 0;
    int64_t generator_ref = 0;
  };

  /// Handles one request; returns the response body (success path) or
  /// throws (failure response with the reason). `events` collects events
  /// to send after the response.
  common::Json handle_request(
      const dap::Request& request,
      std::vector<std::pair<std::string, common::Json>>& events);
  bool send_response(const dap::Request& request, bool success,
                     common::Json body, const std::string& message = "");
  bool send_event(const std::string& event, common::Json body);
  int64_t register_object(common::Json object) HGDB_REQUIRES(state_mutex_);
  void index_stop(const rpc::StopEvent& stop);

  std::unique_ptr<rpc::ByteStream> stream_;
  DebugService& service_;
  /// Request counters of the known commands, keyed on their static names
  /// and resolved at construction; unknown commands share one counter.
  std::map<std::string_view, obs::Counter*, std::less<>> command_counts_;
  obs::Counter* unknown_command_count_ = nullptr;

  // Sending: responses from the reader thread, events from the simulation
  // thread. One mutex serializes seq allocation + enqueue, because DAP
  // requires server seq to increase monotonically on the wire (the
  // enqueue itself is a bounded non-blocking push at a lower lock rank).
  // A dropped event leaves a seq gap, which DAP clients tolerate (seq is
  // unique/increasing, not dense).
  common::TransportMutex send_mutex_{"dap::connection_send"};
  int64_t next_seq_ HGDB_GUARDED_BY(send_mutex_) = 1;

  // The last stop, flattened into DAP reference tables (written by
  // deliver() on the sim thread, read by stackTrace/scopes/variables on
  // the reader thread).
  common::TransportMutex state_mutex_{"dap::connection_state"};
  std::optional<rpc::StopEvent> last_stop_ HGDB_GUARDED_BY(state_mutex_);
  /// frameId -> entry
  std::map<int64_t, FrameEntry> frames_ HGDB_GUARDED_BY(state_mutex_);
  /// variablesReference -> object
  std::map<int64_t, common::Json> variable_refs_
      HGDB_GUARDED_BY(state_mutex_);
  int64_t next_ref_ HGDB_GUARDED_BY(state_mutex_) = 1;
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_DAP_SESSION_H
