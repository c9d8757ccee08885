#ifndef HGDB_RPC_PROTOCOL_V2_H
#define HGDB_RPC_PROTOCOL_V2_H

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.h"
#include "rpc/protocol.h"

namespace hgdb::rpc {

/// The debug protocol between debugger clients and the hgdb runtime (paper
/// Sec. 3.5: "RPC-based debugging protocol similar to gdb remote
/// protocol"), one JSON object per Channel message. Every client->runtime
/// message is
///
///   {"version": 2, "command": "<name>", "token": <int>, "payload": {...}}
///
/// and every runtime->client message is either a response
///
///   {"version": 2, "type": "response", "command": "<name>", "token": <int>,
///    "status": "success" | "error", ["error": "<code>", "reason": "..."],
///    "payload": {...}}
///
/// or an unsolicited event
///
///   {"version": 2, "type": "event", "event": "<name>", "payload": {...}}
///
/// Commands are dispatched through a registry (session::SessionManager), so
/// new request families never touch the runtime core. A `connect` handshake
/// advertises the backend's actual capabilities (time travel, set-value,
/// live vs. replay) straight from vpi::SimulatorInterface, and failures
/// carry typed error codes instead of free-form reasons. A message without
/// the envelope is answered with a malformed-request error.

constexpr int64_t kProtocolV2 = 2;

// -- typed errors -------------------------------------------------------------

enum class ErrorCode : uint8_t {
  None = 0,               ///< success
  MalformedRequest,       ///< not JSON / not an object / broken envelope
  UnknownCommand,         ///< command not in the registry
  InvalidPayload,         ///< missing/ill-typed payload fields, bad values
  UnsupportedCapability,  ///< backend lacks the required capability
  InvalidState,           ///< legal command, wrong moment (e.g. not stopped)
  NoSuchLocation,         ///< no breakpoint at the source location
  NoSuchEntity,           ///< unknown instance / watch id / signal
  EvaluationFailed,       ///< expression did not evaluate
  InternalError,          ///< handler raised an unexpected error
  TooManySessions,        ///< SessionManager accept limit reached
};

/// Stable wire name, e.g. "unsupported-capability".
[[nodiscard]] const char* error_code_name(ErrorCode code);
/// Inverse mapping; unknown names decode to InternalError.
[[nodiscard]] ErrorCode error_code_from_name(std::string_view name);

// -- capability negotiation ---------------------------------------------------

/// What this runtime's backend actually supports, advertised by `connect`.
/// Derived from vpi::SimulatorInterface, so clients stop guessing whether
/// reverse-continue or jump will work.
struct Capabilities {
  int64_t protocol_version = kProtocolV2;
  std::string backend = "live";  ///< "live" or "replay"
  bool time_travel = false;      ///< jump / reverse execution across cycles
  bool set_value = false;        ///< forcing signal values
  bool multi_client = true;      ///< concurrent sessions share the runtime
  bool watchpoints = true;       ///< watch/unwatch commands
  bool batch_eval = true;        ///< evaluate-batch command
  bool binary_events = true;     ///< connect {"binary_events": true} switches
                                 ///< pushed events to binary frames

  [[nodiscard]] common::Json to_json() const;
  static Capabilities from_json(const common::Json& json);
};

// -- requests -----------------------------------------------------------------

struct RequestV2 {
  std::string command;
  int64_t token = 0;
  common::Json payload = common::Json::object();
};

/// Decode result; a malformed envelope is reported as a typed error
/// (parse_request_v2 never throws), keeping garbage off the service thread's
/// exception path entirely.
struct DecodedRequestV2 {
  RequestV2 request;
  ErrorCode error = ErrorCode::None;
  std::string reason;
  [[nodiscard]] bool ok() const { return error == ErrorCode::None; }
};

/// True when a parsed message carries a v2 envelope ("version" >= 2).
[[nodiscard]] bool is_v2_envelope(const common::Json& json);

DecodedRequestV2 parse_request_v2(const std::string& text);
std::string serialize_request_v2(const RequestV2& request);

/// Wire command name of an execution command ("continue", "step-over",
/// "jump", ...).
[[nodiscard]] const char* command_name(Command command);

// -- responses / events -------------------------------------------------------

struct ResponseV2 {
  std::string command;  ///< echo of the request command
  int64_t token = 0;
  ErrorCode error = ErrorCode::None;
  std::string reason;
  common::Json payload = common::Json::object();

  [[nodiscard]] bool ok() const { return error == ErrorCode::None; }
  void fail(ErrorCode code, std::string why) {
    error = code;
    reason = std::move(why);
  }
};

std::string serialize_response_v2(const ResponseV2& response);

struct EventV2 {
  std::string event;
  common::Json payload = common::Json::object();
};

std::string serialize_event_v2(const EventV2& event);

/// Client-side decoded runtime->client v2 message.
struct ServerMessageV2 {
  enum class Kind : uint8_t { Response, Event };
  Kind kind = Kind::Response;
  ResponseV2 response;
  EventV2 event;
};

/// Throws std::runtime_error (only) on malformed input.
ServerMessageV2 parse_server_message_v2(const std::string& text);

}  // namespace hgdb::rpc

#endif  // HGDB_RPC_PROTOCOL_V2_H
