#include "session/dap_session.h"

#include <array>
#include <chrono>
#include <string>
#include <string_view>
#include <utility>

#include "obs/trace.h"

namespace hgdb::session {

using common::Json;

namespace {

/// DAP line/column numbers are 1-based; the symbol table's columns may be
/// 0 (unknown).
int64_t dap_column(uint32_t column) { return column == 0 ? 1 : column; }

/// Every command handle_request answers. Each is counted on its own
/// `session.dap.command.<name>` counter; any other command string counts
/// on `session.dap.command.unknown`, so client input cannot add registry
/// names.
constexpr std::array<std::string_view, 20> kCommands = {
    "initialize",
    "launch",
    "attach",
    "configurationDone",
    "setBreakpoints",
    "threads",
    "stackTrace",
    "scopes",
    "variables",
    "evaluate",
    "continue",
    "next",
    "stepIn",
    "stepOut",
    "stepBack",
    "reverseContinue",
    "pause",
    "setVariable",
    "hgdbMetrics",
    "disconnect",
};

constexpr std::string_view kUnknownCommand = "unknown";

}  // namespace

DapSession::DapSession(std::unique_ptr<rpc::ByteStream> stream,
                       DebugService& service, rpc::EventWriter& writer)
    : Connection(writer, stream->native_handle(),
                 [raw = stream.get()] { raw->close(); }),
      stream_(std::move(stream)),
      service_(service) {
  auto counter = [&](std::string_view name) {
    return &service_.metrics().counter("session.dap.command." +
                                       std::string(name));
  };
  for (const std::string_view name : kCommands) {
    command_counts_.emplace(name, counter(name));
  }
  unknown_command_count_ = counter(kUnknownCommand);
}

// ---------------------------------------------------------------------------
// sending
// ---------------------------------------------------------------------------

// The Content-Length message carries its own framing, so it rides the
// writer as a raw frame; byte accounting lives in the writer target.

bool DapSession::send_response(const dap::Request& request, bool success,
                               Json body, const std::string& message) {
  common::LockGuard lock(send_mutex_);
  const Json response = dap::make_response(next_seq_++, request, success,
                                           std::move(body), message);
  // force: responses are request-paced, they bypass the event bound.
  return enqueue(rpc::make_raw_frame(dap::FrameCodec::encode(response.dump())),
                 /*force=*/true);
}

bool DapSession::send_event(const std::string& event, Json body) {
  common::LockGuard lock(send_mutex_);
  const Json message = dap::make_event(next_seq_++, event, std::move(body));
  return enqueue(rpc::make_raw_frame(dap::FrameCodec::encode(message.dump())),
                 /*force=*/false);
}

// ---------------------------------------------------------------------------
// pushed events
// ---------------------------------------------------------------------------

int64_t DapSession::register_object(Json object) {
  const int64_t ref = next_ref_++;
  variable_refs_.emplace(ref, std::move(object));
  return ref;
}

void DapSession::index_stop(const rpc::StopEvent& stop) {
  common::LockGuard lock(state_mutex_);
  frames_.clear();
  variable_refs_.clear();
  next_ref_ = 1;
  int64_t frame_id = 1;
  for (const auto& frame : stop.frames) {
    FrameEntry entry;
    entry.frame = frame;
    entry.locals_ref = register_object(frame.locals);
    entry.generator_ref = register_object(frame.generator);
    frames_.emplace(frame_id++, std::move(entry));
  }
}

bool DapSession::deliver(const ServiceEvent& event) {
  switch (event.kind) {
    case ServiceEvent::Kind::Stop: {
      index_stop(event.stop);
      Json body = Json::object();
      // condition_routed marks run-mode inserted-breakpoint hits; step
      // and pause stops carry frames too but must not claim to be
      // breakpoints.
      const char* reason = "step";
      if (event.stop.condition_routed && !event.stop.frames.empty()) {
        reason = "breakpoint";
      } else if (!event.stop.watch_hits.empty()) {
        reason = "data breakpoint";
      }
      body["reason"] = Json(reason);
      body["allThreadsStopped"] = Json(true);
      body["threadId"] =
          Json(event.stop.frames.empty()
                   ? int64_t{1}
                   : event.stop.frames.front().instance_id + 1);
      body["description"] =
          Json("stopped at time " + std::to_string(event.stop.time));
      return send_event("stopped", std::move(body));
    }
    case ServiceEvent::Kind::ValueChange:
      // Not part of the DAP standard; surfaced as a custom event so a
      // VSCode extension can stream values without polling.
      return send_event("hgdbValues", value_change_payload(event.value_change));
    case ServiceEvent::Kind::Lifecycle:
      if (event.lifecycle == "shutdown") {
        send_event("terminated", Json::object());
      }
      return true;
    case ServiceEvent::Kind::BreakpointChanged:
      // Another attached session armed or disarmed a shared location;
      // surfaced as a custom event so the IDE can refresh its gutter.
      return send_event("hgdbBreakpointChanged",
                        breakpoint_change_payload(event.breakpoint_change));
  }
  return true;
}

// ---------------------------------------------------------------------------
// request dispatch
// ---------------------------------------------------------------------------

Json DapSession::handle_request(
    const dap::Request& request,
    std::vector<std::pair<std::string, Json>>& events) {
  using Command = DebugService::Command;
  const ClientId client = id();
  const Json& args = request.arguments;
  Json body = Json::object();

  if (request.command == "initialize") {
    const auto caps = service_.capabilities();
    body["supportsConfigurationDoneRequest"] = Json(true);
    body["supportsConditionalBreakpoints"] = Json(true);
    body["supportsEvaluateForHovers"] = Json(true);
    body["supportsStepBack"] = Json(caps.time_travel);
    // setVariable routes through DebugService::set_value, so advertise
    // exactly what the backend can do (replay backends cannot force
    // signals; a live simulator can).
    body["supportsSetVariable"] = Json(caps.set_value);
    events.emplace_back("initialized", Json::object());
    return body;
  }
  if (request.command == "launch" || request.command == "attach" ||
      request.command == "configurationDone") {
    // The simulation (or replay) is already running under the runtime;
    // both launch and attach mean "start debugging it".
    return body;
  }
  if (request.command == "setBreakpoints") {
    auto source = args.get("source");
    if (!source || !source->get().is_object()) {
      throw std::runtime_error("setBreakpoints needs a source");
    }
    std::string path = source->get().get_string("path");
    if (path.empty()) path = source->get().get_string("name");
    // DAP semantics: the request *replaces* all breakpoints in the source.
    service_.disarm_breakpoint(client, path, 0);
    Json results = Json::array();
    if (auto requested = args.get("breakpoints")) {
      for (const auto& entry : requested->get().as_array()) {
        const auto line = static_cast<uint32_t>(entry.get_int("line"));
        const std::string condition = entry.get_string("condition");
        Json result = Json::object();
        result["line"] = Json(static_cast<int64_t>(line));
        try {
          const auto ids = service_.arm_breakpoint(
              client, BreakpointSpec{path, line, condition});
          result["verified"] = Json(true);
          result["id"] = Json(ids.front());
        } catch (const ServiceError& error) {
          result["verified"] = Json(false);
          result["message"] = Json(error.what());
        }
        results.push_back(std::move(result));
      }
    }
    body["breakpoints"] = std::move(results);
    return body;
  }
  if (request.command == "threads") {
    Json threads = Json::array();
    for (const auto& instance : service_.instances()) {
      Json thread = Json::object();
      // The paper's concurrent "hardware threads" are design instances;
      // DAP thread ids must be nonzero, hence the +1.
      thread["id"] = Json(instance.id + 1);
      thread["name"] = Json(instance.name);
      threads.push_back(std::move(thread));
    }
    body["threads"] = std::move(threads);
    return body;
  }
  if (request.command == "stackTrace") {
    const int64_t thread_id = args.get_int("threadId");
    Json stack = Json::array();
    common::LockGuard lock(state_mutex_);
    for (const auto& [frame_id, entry] : frames_) {
      if (thread_id != 0 && entry.frame.instance_id + 1 != thread_id) continue;
      Json frame = Json::object();
      frame["id"] = Json(frame_id);
      frame["name"] = Json(entry.frame.instance_name + " at " +
                           entry.frame.filename + ":" +
                           std::to_string(entry.frame.line));
      Json source = Json::object();
      source["name"] = Json(entry.frame.filename);
      source["path"] = Json(entry.frame.filename);
      frame["source"] = std::move(source);
      frame["line"] = Json(static_cast<int64_t>(entry.frame.line));
      frame["column"] = Json(dap_column(entry.frame.column));
      stack.push_back(std::move(frame));
    }
    body["totalFrames"] = Json(static_cast<int64_t>(stack.size()));
    body["stackFrames"] = std::move(stack);
    return body;
  }
  if (request.command == "scopes") {
    const int64_t frame_id = args.get_int("frameId");
    common::LockGuard lock(state_mutex_);
    auto it = frames_.find(frame_id);
    if (it == frames_.end()) {
      throw std::runtime_error("unknown frameId " + std::to_string(frame_id));
    }
    Json scopes = Json::array();
    const std::pair<const char*, int64_t> entries[] = {
        {"Locals", it->second.locals_ref},
        {"Generator", it->second.generator_ref},
    };
    for (const auto& [name, ref] : entries) {
      Json scope = Json::object();
      scope["name"] = Json(name);
      scope["variablesReference"] = Json(ref);
      scope["expensive"] = Json(false);
      scopes.push_back(std::move(scope));
    }
    body["scopes"] = std::move(scopes);
    return body;
  }
  if (request.command == "variables") {
    const int64_t ref = args.get_int("variablesReference");
    common::LockGuard lock(state_mutex_);
    auto it = variable_refs_.find(ref);
    if (it == variable_refs_.end()) {
      throw std::runtime_error("unknown variablesReference " +
                               std::to_string(ref));
    }
    Json variables = Json::array();
    // Copy: register_object below mutates the map we iterate.
    const Json object = it->second;
    for (const auto& [name, value] : object.as_object()) {
      Json variable = Json::object();
      variable["name"] = Json(name);
      if (value.is_object()) {
        // A reconstructed bundle: expandable via a child reference.
        variable["value"] = Json("{...}");
        variable["variablesReference"] =
            Json(register_object(value));
      } else {
        variable["value"] =
            Json(value.is_string() ? value.as_string() : value.dump());
        variable["variablesReference"] = Json(int64_t{0});
      }
      variables.push_back(std::move(variable));
    }
    body["variables"] = std::move(variables);
    return body;
  }
  if (request.command == "evaluate") {
    EvaluateSpec spec;
    spec.expression = args.get_string("expression");
    const int64_t frame_id = args.get_int("frameId");
    if (frame_id != 0) {
      common::LockGuard lock(state_mutex_);
      auto it = frames_.find(frame_id);
      if (it != frames_.end()) {
        spec.breakpoint_id = it->second.frame.breakpoint_id;
      }
    }
    const auto result = service_.evaluate(spec);
    body["result"] = Json(result.value);
    body["variablesReference"] = Json(int64_t{0});
    return body;
  }
  if (request.command == "continue") {
    service_.execute(client, Command::Continue);
    body["allThreadsContinued"] = Json(true);
    return body;
  }
  if (request.command == "next" || request.command == "stepIn" ||
      request.command == "stepOut") {
    // One statement of the emulated source program; hardware has no call
    // stack to step into or out of, so all three map to step-over.
    service_.execute(client, Command::StepOver);
    return body;
  }
  if (request.command == "stepBack") {
    service_.execute(client, Command::StepBack);
    return body;
  }
  if (request.command == "reverseContinue") {
    service_.execute(client, Command::ReverseContinue);
    return body;
  }
  if (request.command == "pause") {
    service_.execute(client, Command::Pause);
    return body;
  }
  if (request.command == "setVariable") {
    if (!service_.capabilities().set_value) {
      throw std::runtime_error("backend ('" + service_.capabilities().backend +
                               "') does not support set-value");
    }
    const int64_t ref = args.get_int("variablesReference");
    const std::string name = args.get_string("name");
    const std::string value = args.get_string("value");
    if (name.empty()) throw std::runtime_error("setVariable needs a name");
    // Scope the variable through the frame owning this reference: scope
    // variables resolve as <instance>.<name> first, then as a bare
    // (absolute) hierarchical name.
    std::string instance;
    {
      common::LockGuard lock(state_mutex_);
      for (const auto& [frame_id, entry] : frames_) {
        if (entry.locals_ref == ref || entry.generator_ref == ref) {
          instance = entry.frame.instance_name;
          break;
        }
      }
    }
    bool set = false;
    if (!instance.empty()) {
      try {
        service_.set_value(instance + "." + name, value);
        set = true;
      } catch (const ServiceError&) {
        // fall through to the bare name
      }
    }
    if (!set) service_.set_value(name, value);
    // Read back through the evaluator so the IDE shows the value the
    // simulator actually took (width-truncated, base-normalized).
    std::string rendered = value;
    try {
      EvaluateSpec spec;
      spec.expression = name;
      spec.instance_name = instance;
      rendered = service_.evaluate(spec).value;
    } catch (const std::exception&) {
      // echo the requested value when read-back is unavailable
    }
    {
      // Keep the cached stop tables coherent for later `variables`
      // requests against the same reference.
      common::LockGuard lock(state_mutex_);
      auto it = variable_refs_.find(ref);
      if (it != variable_refs_.end() && it->second.is_object()) {
        it->second[name] = Json(rendered);
      }
    }
    body["value"] = Json(rendered);
    body["variablesReference"] = Json(int64_t{0});
    return body;
  }
  if (request.command == "hgdbMetrics") {
    // Custom request: the unified registry snapshot plus the Prometheus
    // text page, so IDE extensions can render either.
    body["metrics"] = service_.metrics().snapshot_json();
    body["prometheus"] = Json(service_.metrics().render_prometheus());
    return body;
  }
  if (request.command == "disconnect") {
    close_requested.store(true);
    return body;
  }
  throw std::runtime_error("unsupported command '" + request.command + "'");
}

void DapSession::serve() {
  dap::FrameCodec codec;
  while (true) {
    auto chunk = stream_->receive_some();
    if (!chunk) return;  // peer closed (possibly mid-request) or shut down
    codec.feed(*chunk);
    while (true) {
      std::optional<std::string> payload;
      dap::Request request;
      try {
        payload = codec.next();
        if (!payload) break;
        request = dap::parse_request(Json::parse(*payload));
      } catch (const std::exception&) {
        return;  // framing violation or not a DAP request: drop
      }
      bool sent = false;
      std::vector<std::pair<std::string, Json>> events;
      if (rejected()) {
        close_requested.store(true);
        sent = send_response(request, false, Json::object(),
                             "too-many-sessions");
      } else {
        service_.count_request();
        // Counted and traced under a catalogued name, never the raw client
        // text. The names are static NUL-terminated literals, as TraceSpan
        // needs.
        std::string_view command = kUnknownCommand;
        if (const auto it = command_counts_.find(request.command);
            it != command_counts_.end()) {
          command = it->first;
          it->second->add(1);
        } else {
          unknown_command_count_->add(1);
        }
#if HGDB_OBS_SPANS_ENABLED
        obs::TraceSpan dispatch_span(obs::TraceRecorder::global(), "dap",
                                     command.data());
#else
        (void)command;
#endif
        try {
          Json body = handle_request(request, events);
          sent = send_response(request, true, std::move(body));
        } catch (const std::exception& error) {
          service_.count_protocol_error();
          sent = send_response(request, false, Json::object(), error.what());
        }
      }
      if (!sent) return;
      for (auto& [event, event_body] : events) {
        send_event(event, std::move(event_body));
      }
      if (close_requested.load()) return;
    }
  }
}

}  // namespace hgdb::session
