#include "rpc/protocol_v2.h"

#include <stdexcept>

namespace hgdb::rpc {

using common::Json;

// -- typed errors -------------------------------------------------------------

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::None: return "none";
    case ErrorCode::MalformedRequest: return "malformed-request";
    case ErrorCode::UnknownCommand: return "unknown-command";
    case ErrorCode::InvalidPayload: return "invalid-payload";
    case ErrorCode::UnsupportedCapability: return "unsupported-capability";
    case ErrorCode::InvalidState: return "invalid-state";
    case ErrorCode::NoSuchLocation: return "no-such-location";
    case ErrorCode::NoSuchEntity: return "no-such-entity";
    case ErrorCode::EvaluationFailed: return "evaluation-failed";
    case ErrorCode::InternalError: return "internal-error";
    case ErrorCode::TooManySessions: return "too-many-sessions";
  }
  return "internal-error";
}

ErrorCode error_code_from_name(std::string_view name) {
  if (name == "none") return ErrorCode::None;
  if (name == "malformed-request") return ErrorCode::MalformedRequest;
  if (name == "unknown-command") return ErrorCode::UnknownCommand;
  if (name == "invalid-payload") return ErrorCode::InvalidPayload;
  if (name == "unsupported-capability") return ErrorCode::UnsupportedCapability;
  if (name == "invalid-state") return ErrorCode::InvalidState;
  if (name == "no-such-location") return ErrorCode::NoSuchLocation;
  if (name == "no-such-entity") return ErrorCode::NoSuchEntity;
  if (name == "evaluation-failed") return ErrorCode::EvaluationFailed;
  if (name == "too-many-sessions") return ErrorCode::TooManySessions;
  return ErrorCode::InternalError;
}

// -- capability negotiation ---------------------------------------------------

Json Capabilities::to_json() const {
  Json json = Json::object();
  json["protocol_version"] = Json(protocol_version);
  json["backend"] = Json(backend);
  json["time_travel"] = Json(time_travel);
  json["set_value"] = Json(set_value);
  json["multi_client"] = Json(multi_client);
  json["watchpoints"] = Json(watchpoints);
  json["batch_eval"] = Json(batch_eval);
  json["binary_events"] = Json(binary_events);
  return json;
}

Capabilities Capabilities::from_json(const Json& json) {
  Capabilities caps;
  if (!json.is_object()) return caps;
  caps.protocol_version = json.get_int("protocol_version", kProtocolV2);
  caps.backend = json.get_string("backend", "live");
  caps.time_travel = json.get_bool("time_travel");
  caps.set_value = json.get_bool("set_value");
  caps.multi_client = json.get_bool("multi_client", true);
  caps.watchpoints = json.get_bool("watchpoints", true);
  caps.batch_eval = json.get_bool("batch_eval", true);
  caps.binary_events = json.get_bool("binary_events");
  return caps;
}

// -- requests -----------------------------------------------------------------

bool is_v2_envelope(const Json& json) {
  if (!json.is_object()) return false;
  auto version = json.get("version");
  return version && version->get().is_number() &&
         version->get().as_int() >= kProtocolV2;
}

DecodedRequestV2 parse_request_v2(const std::string& text) {
  DecodedRequestV2 decoded;
  Json json;
  try {
    json = Json::parse(text);
  } catch (const std::exception& error) {
    decoded.error = ErrorCode::MalformedRequest;
    decoded.reason = std::string("malformed request: ") + error.what();
    return decoded;
  }
  if (!json.is_object()) {
    decoded.error = ErrorCode::MalformedRequest;
    decoded.reason = "request is not a JSON object";
    return decoded;
  }
  // Best-effort token extraction first, so even broken envelopes get their
  // error correlated back to the request.
  if (auto token = json.get("token"); token && token->get().is_number()) {
    decoded.request.token = token->get().as_int();
  }
  if (!is_v2_envelope(json)) {
    decoded.error = ErrorCode::MalformedRequest;
    decoded.reason = "missing or unsupported 'version'";
    return decoded;
  }
  auto command = json.get("command");
  if (!command || !command->get().is_string() ||
      command->get().as_string().empty()) {
    decoded.error = ErrorCode::MalformedRequest;
    decoded.reason = "missing or non-string 'command'";
    return decoded;
  }
  decoded.request.command = command->get().as_string();
  if (auto token = json.get("token")) {
    if (!token->get().is_number()) {
      decoded.error = ErrorCode::MalformedRequest;
      decoded.reason = "field 'token' must be a number";
      return decoded;
    }
  }
  if (auto payload = json.get("payload")) {
    if (!payload->get().is_object()) {
      decoded.error = ErrorCode::MalformedRequest;
      decoded.reason = "field 'payload' must be an object";
      return decoded;
    }
    decoded.request.payload = payload->get();
  }
  return decoded;
}

std::string serialize_request_v2(const RequestV2& request) {
  Json json = Json::object();
  json["version"] = Json(kProtocolV2);
  json["command"] = Json(request.command);
  json["token"] = Json(request.token);
  json["payload"] = request.payload;
  return json.dump();
}

const char* command_name(Command command) {
  switch (command) {
    case Command::Continue: return "continue";
    case Command::Pause: return "pause";
    case Command::StepOver: return "step-over";
    case Command::StepBack: return "step-back";
    case Command::ReverseContinue: return "reverse-continue";
    case Command::Jump: return "jump";
    case Command::Detach: return "detach";
  }
  return "continue";
}

// -- responses / events -------------------------------------------------------

std::string serialize_response_v2(const ResponseV2& response) {
  Json json = Json::object();
  json["version"] = Json(kProtocolV2);
  json["type"] = Json("response");
  json["command"] = Json(response.command);
  json["token"] = Json(response.token);
  json["status"] = Json(response.ok() ? "success" : "error");
  if (!response.ok()) {
    json["error"] = Json(error_code_name(response.error));
    if (!response.reason.empty()) json["reason"] = Json(response.reason);
  }
  json["payload"] = response.payload;
  return json.dump();
}

std::string serialize_event_v2(const EventV2& event) {
  Json json = Json::object();
  json["version"] = Json(kProtocolV2);
  json["type"] = Json("event");
  json["event"] = Json(event.event);
  json["payload"] = event.payload;
  return json.dump();
}

ServerMessageV2 parse_server_message_v2(const std::string& text) {
  Json json;
  try {
    json = Json::parse(text);
  } catch (const std::exception& error) {
    throw std::runtime_error(std::string("malformed server message: ") +
                             error.what());
  }
  if (!json.is_object()) {
    throw std::runtime_error("server message is not a JSON object");
  }
  if (!is_v2_envelope(json)) {
    throw std::runtime_error("server message is not a v2 envelope");
  }
  ServerMessageV2 message;
  const std::string type = json.get_string("type");
  if (type == "response") {
    message.kind = ServerMessageV2::Kind::Response;
    message.response.command = json.get_string("command");
    message.response.token = json.get_int("token");
    const std::string status = json.get_string("status");
    if (status != "success" && status != "error") {
      throw std::runtime_error("unknown response status '" + status + "'");
    }
    if (status == "error") {
      message.response.error = error_code_from_name(json.get_string("error"));
      if (message.response.error == ErrorCode::None) {
        message.response.error = ErrorCode::InternalError;
      }
      message.response.reason = json.get_string("reason");
    }
    if (auto payload = json.get("payload")) {
      if (!payload->get().is_object()) {
        throw std::runtime_error("field 'payload' must be an object");
      }
      message.response.payload = payload->get();
    }
  } else if (type == "event") {
    message.kind = ServerMessageV2::Kind::Event;
    message.event.event = json.get_string("event");
    if (message.event.event.empty()) {
      throw std::runtime_error("event message missing 'event'");
    }
    if (auto payload = json.get("payload")) {
      if (!payload->get().is_object()) {
        throw std::runtime_error("field 'payload' must be an object");
      }
      message.event.payload = payload->get();
    }
  } else {
    throw std::runtime_error("unknown server message type '" + type + "'");
  }
  return message;
}

}  // namespace hgdb::rpc
