#include "debugger/client.h"

#include <stdexcept>

namespace hgdb::debugger {

using common::Json;
using rpc::Command;
using rpc::ErrorCode;
using rpc::RequestV2;
using rpc::ResponseV2;

DebugClient::DebugClient(std::unique_ptr<rpc::Channel> channel)
    : channel_(std::move(channel)) {}

// ---------------------------------------------------------------------------
// transport loops
// ---------------------------------------------------------------------------

void DebugClient::queue_event(const rpc::EventV2& event) {
  const Json& body = event.payload;
  if (event.event == "stop") {
    stops_.push_back(rpc::stop_event_fields(body));
  } else if (event.event == "values") {
    ValueEvent values;
    values.subscription = body.get_int("subscription");
    values.time = static_cast<uint64_t>(body.get_int("time"));
    if (auto changes = body.get("changes")) {
      for (const auto& entry : changes->get().as_array()) {
        ValueEvent::Change change;
        change.signal = entry.get_string("signal");
        change.value = entry.get_string("value");
        change.width = static_cast<uint32_t>(entry.get_int("width"));
        values.changes.push_back(std::move(change));
      }
    }
    values_.push_back(std::move(values));
  } else if (event.event == "breakpoint-changed") {
    rpc::BreakpointChangeEvent change;
    change.action = body.get_string("action");
    change.filename = body.get_string("filename");
    change.line = static_cast<uint32_t>(body.get_int("line"));
    change.condition = body.get_string("condition");
    change.client = static_cast<uint64_t>(body.get_int("client"));
    breakpoint_changes_.push_back(std::move(change));
  }
}

std::optional<ResponseV2> DebugClient::absorb(const std::string& message) {
  if (rpc::is_event_frame(message)) {
    try {
      auto decoded = rpc::decode_event_frame(message);
      switch (decoded.kind) {
        case rpc::FrameKind::Stop:
          stops_.push_back(std::move(decoded.stop));
          break;
        case rpc::FrameKind::ValueChange: {
          ValueEvent event;
          event.subscription =
              static_cast<int64_t>(decoded.value_change.subscription);
          event.time = decoded.value_change.time;
          for (auto& change : decoded.value_change.changes) {
            event.changes.push_back(ValueEvent::Change{
                std::move(change.signal), std::move(change.value),
                change.width});
          }
          values_.push_back(std::move(event));
          break;
        }
        case rpc::FrameKind::Lifecycle:
          last_lifecycle_ = std::move(decoded.lifecycle);
          break;
        case rpc::FrameKind::BreakpointChanged:
          breakpoint_changes_.push_back(std::move(decoded.breakpoint_change));
          break;
      }
    } catch (const std::exception&) {
      // Malformed frame: swallow — a response can never start with the
      // frame magic, so this was a pushed event beyond repair.
    }
    return std::nullopt;
  }
  try {
    auto decoded = rpc::parse_server_message_v2(message);
    if (decoded.kind == rpc::ServerMessageV2::Kind::Response) {
      return std::move(decoded.response);
    }
    queue_event(decoded.event);
  } catch (const std::exception&) {
    // Stray or unparseable message, or an event with a malformed payload.
  }
  return std::nullopt;
}

ResponseV2 DebugClient::transact(const std::string& command, Json payload) {
  RequestV2 request;
  request.command = command;
  request.token = next_token_++;
  request.payload = std::move(payload);
  channel_->send(rpc::serialize_request_v2(request));
  while (true) {
    auto message = channel_->receive();
    if (!message) {
      throw std::runtime_error("debug channel closed");
    }
    auto response = absorb(*message);
    // Events were queued for their own waiters; a response to an older
    // request is dropped.
    if (!response || response->token != request.token) continue;
    if (!response->ok()) {
      last_error_ = response->reason;
      last_error_code_ = response->error;
    } else {
      last_error_code_ = ErrorCode::None;
    }
    return std::move(*response);
  }
}

// ---------------------------------------------------------------------------
// handshake
// ---------------------------------------------------------------------------

bool DebugClient::connect(const std::string& client_name, bool binary_events) {
  Json payload = Json::object();
  payload["client"] = Json(client_name);
  if (binary_events) payload["binary_events"] = Json(true);
  auto response = transact("connect", std::move(payload));
  if (!response.ok()) return false;
  if (auto caps = response.payload.get("capabilities")) {
    capabilities_ = rpc::Capabilities::from_json(caps->get());
  }
  binary_events_ = response.payload.get_bool("binary_events");
  return true;
}

// ---------------------------------------------------------------------------
// breakpoints
// ---------------------------------------------------------------------------

std::vector<int64_t> DebugClient::set_breakpoint(const std::string& filename,
                                                 uint32_t line,
                                                 const std::string& condition) {
  Json payload = Json::object();
  payload["filename"] = Json(filename);
  payload["line"] = Json(static_cast<int64_t>(line));
  if (!condition.empty()) payload["condition"] = Json(condition);
  auto response = transact("breakpoint-add", std::move(payload));
  std::vector<int64_t> ids;
  if (!response.ok()) return ids;
  if (auto list = response.payload.get("ids"); list && list->get().is_array()) {
    for (const auto& id : list->get().as_array()) ids.push_back(id.as_int());
  }
  return ids;
}

size_t DebugClient::remove_breakpoint(const std::string& filename,
                                      uint32_t line) {
  Json payload = Json::object();
  payload["filename"] = Json(filename);
  payload["line"] = Json(static_cast<int64_t>(line));
  auto response = transact("breakpoint-remove", std::move(payload));
  return static_cast<size_t>(response.payload.get_int("removed"));
}

Json DebugClient::list_locations(const std::string& filename, uint32_t line) {
  Json payload = Json::object();
  payload["filename"] = Json(filename);
  payload["line"] = Json(static_cast<int64_t>(line));
  auto response = transact("bp-location", std::move(payload));
  if (auto list = response.payload.get("breakpoints")) return list->get();
  return Json::array();
}

// ---------------------------------------------------------------------------
// execution control
// ---------------------------------------------------------------------------

bool DebugClient::send_command(Command command, uint64_t time) {
  Json payload = Json::object();
  if (command == Command::Jump) {
    payload["time"] = Json(static_cast<int64_t>(time));
  }
  return transact(rpc::command_name(command), std::move(payload)).ok();
}

bool DebugClient::resume() { return send_command(Command::Continue); }
bool DebugClient::step_over() { return send_command(Command::StepOver); }
bool DebugClient::step_back() { return send_command(Command::StepBack); }
bool DebugClient::reverse_resume() {
  return send_command(Command::ReverseContinue);
}
bool DebugClient::pause() { return send_command(Command::Pause); }
bool DebugClient::jump(uint64_t time) {
  return send_command(Command::Jump, time);
}
bool DebugClient::detach() { return send_command(Command::Detach); }

bool DebugClient::disconnect() {
  return transact("disconnect", Json::object()).ok();
}

// ---------------------------------------------------------------------------
// inspection
// ---------------------------------------------------------------------------

std::optional<rpc::StopEvent> DebugClient::wait_stop(
    std::optional<std::chrono::milliseconds> timeout) {
  while (true) {
    if (!stops_.empty()) {
      auto stop = std::move(stops_.front());
      stops_.pop_front();
      return stop;
    }
    auto message = channel_->receive(timeout);
    if (!message) return std::nullopt;
    // Other event kinds queue for their own waiters; stray responses
    // (e.g. after a timeout race) are ignored.
    absorb(*message);
  }
}

std::optional<ValueEvent> DebugClient::wait_values(
    std::optional<std::chrono::milliseconds> timeout) {
  while (true) {
    if (!values_.empty()) {
      auto event = std::move(values_.front());
      values_.pop_front();
      return event;
    }
    auto message = channel_->receive(timeout);
    if (!message) return std::nullopt;
    absorb(*message);
  }
}

std::optional<rpc::BreakpointChangeEvent> DebugClient::wait_breakpoint_change(
    std::optional<std::chrono::milliseconds> timeout) {
  while (true) {
    if (!breakpoint_changes_.empty()) {
      auto event = std::move(breakpoint_changes_.front());
      breakpoint_changes_.pop_front();
      return event;
    }
    auto message = channel_->receive(timeout);
    if (!message) return std::nullopt;
    absorb(*message);
  }
}

std::optional<std::string> DebugClient::evaluate(
    const std::string& expression, std::optional<int64_t> breakpoint_id,
    const std::string& instance) {
  Json payload = Json::object();
  payload["expression"] = Json(expression);
  if (breakpoint_id) payload["breakpoint_id"] = Json(*breakpoint_id);
  if (!instance.empty()) payload["instance_name"] = Json(instance);
  auto response = transact("evaluate", std::move(payload));
  if (!response.ok()) return std::nullopt;
  return response.payload.get_string("result");
}

Json DebugClient::info() { return transact("info", Json::object()).payload; }

// ---------------------------------------------------------------------------
// request families
// ---------------------------------------------------------------------------

std::vector<EvalResult> DebugClient::evaluate_batch(
    const std::vector<std::string>& expressions,
    std::optional<int64_t> breakpoint_id, const std::string& instance) {
  std::vector<EvalResult> results;
  Json payload = Json::object();
  Json list = Json::array();
  for (const auto& expression : expressions) list.push_back(Json(expression));
  payload["expressions"] = std::move(list);
  if (breakpoint_id) payload["breakpoint_id"] = Json(*breakpoint_id);
  if (!instance.empty()) payload["instance_name"] = Json(instance);
  auto response = transact("evaluate-batch", std::move(payload));
  if (!response.ok()) return results;
  if (auto entries = response.payload.get("results")) {
    for (const auto& entry : entries->get().as_array()) {
      EvalResult result;
      result.expression = entry.get_string("expression");
      result.ok = entry.get_string("status") == "success";
      result.value = entry.get_string("value");
      result.width = static_cast<uint32_t>(entry.get_int("width"));
      result.reason = entry.get_string("reason");
      results.push_back(std::move(result));
    }
  }
  return results;
}

std::optional<int64_t> DebugClient::watch(const std::string& expression,
                                          const std::string& instance) {
  Json payload = Json::object();
  payload["expression"] = Json(expression);
  if (!instance.empty()) payload["instance_name"] = Json(instance);
  auto response = transact("watch", std::move(payload));
  if (!response.ok()) return std::nullopt;
  return response.payload.get_int("id");
}

bool DebugClient::unwatch(int64_t id) {
  Json payload = Json::object();
  payload["id"] = Json(id);
  return transact("unwatch", std::move(payload)).ok();
}

std::optional<int64_t> DebugClient::subscribe(
    const std::vector<std::string>& signals, uint32_t decimation,
    const std::string& instance, uint64_t min_interval) {
  Json payload = Json::object();
  Json list = Json::array();
  for (const auto& signal : signals) list.push_back(Json(signal));
  payload["signals"] = std::move(list);
  if (decimation != 1) {
    payload["decimation"] = Json(static_cast<int64_t>(decimation));
  }
  if (min_interval != 0) {
    payload["min_interval"] = Json(min_interval);
  }
  if (!instance.empty()) payload["instance_name"] = Json(instance);
  auto response = transact("subscribe", std::move(payload));
  if (!response.ok()) return std::nullopt;
  return response.payload.get_int("id");
}

bool DebugClient::unsubscribe(int64_t id) {
  Json payload = Json::object();
  payload["id"] = Json(id);
  return transact("unsubscribe", std::move(payload)).ok();
}

Json DebugClient::list_instances() {
  auto response = transact("list-instances", Json::object());
  if (auto list = response.payload.get("instances")) return list->get();
  return Json::array();
}

Json DebugClient::list_variables(const std::string& instance) {
  Json payload = Json::object();
  payload["instance_name"] = Json(instance);
  auto response = transact("list-variables", std::move(payload));
  if (auto list = response.payload.get("variables")) return list->get();
  return Json::array();
}

Json DebugClient::stats() { return transact("stats", Json::object()).payload; }

std::string DebugClient::metrics() {
  auto response = transact("metrics", Json::object());
  if (!response.ok()) return "";
  return response.payload.get_string("text");
}

Json DebugClient::metrics_json() {
  Json payload = Json::object();
  payload["format"] = Json("json");
  auto response = transact("metrics", std::move(payload));
  if (auto metrics = response.payload.get("metrics")) return metrics->get();
  return Json::object();
}

Json DebugClient::trace_control(const std::string& action) {
  Json payload = Json::object();
  payload["action"] = Json(action);
  return transact("trace", std::move(payload)).payload;
}

std::string DebugClient::trace_dump() {
  Json payload = Json::object();
  payload["action"] = Json("dump");
  auto response = transact("trace", std::move(payload));
  if (!response.ok()) return "";
  return response.payload.get_string("json");
}

bool DebugClient::set_value(const std::string& name, const std::string& value) {
  Json payload = Json::object();
  payload["name"] = Json(name);
  payload["value"] = Json(value);
  return transact("set-value", std::move(payload)).ok();
}

}  // namespace hgdb::debugger
