#include "session/dap_server.h"

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "rpc/tcp.h"
#include "session/dap_protocol.h"

namespace hgdb::session {

using common::Json;

// ---------------------------------------------------------------------------
// connection state
// ---------------------------------------------------------------------------

/// One DAP connection: the raw byte stream, the framing codec, and the
/// stop-state tables that back stackTrace/scopes/variables. Registered as
/// a DebugService client; deliver() renders pushed events as DAP events.
struct DapServer::Connection final : public EventSink {
  DapServer* server = nullptr;
  DebugService* service = nullptr;
  std::unique_ptr<rpc::ByteStream> stream;
  /// The shared async writer; every outbound byte of this connection
  /// enqueues on `writer_target` (the socket fd registered at accept), so
  /// the reader and simulation threads never write the socket directly.
  rpc::EventWriter* writer = nullptr;
  uint64_t writer_target = 0;
  ClientId client = 0;
  bool rejected = false;  ///< session limit reached at accept time
  std::thread thread;
  std::atomic<bool> reapable{false};
  bool close_requested = false;  ///< reader-thread only (disconnect)

  // Sending: responses from the reader thread, events from the simulation
  // thread; one mutex serializes seq allocation + enqueue so server seq
  // stays monotonically increasing on the wire (the enqueue itself is a
  // bounded non-blocking push at a lower lock rank).
  common::TransportMutex send_mutex{"dap::connection_send"};
  int64_t next_seq HGDB_GUARDED_BY(send_mutex) = 1;

  // The last stop, flattened into DAP reference tables (written by
  // deliver() on the sim thread, read by stackTrace/scopes/variables on
  // the reader thread).
  common::TransportMutex state_mutex{"dap::connection_state"};
  std::optional<rpc::StopEvent> last_stop HGDB_GUARDED_BY(state_mutex);
  struct FrameEntry {
    rpc::Frame frame;
    int64_t locals_ref = 0;
    int64_t generator_ref = 0;
  };
  /// frameId -> entry
  std::map<int64_t, FrameEntry> frames HGDB_GUARDED_BY(state_mutex);
  /// variablesReference -> object
  std::map<int64_t, Json> variable_refs HGDB_GUARDED_BY(state_mutex);
  int64_t next_ref HGDB_GUARDED_BY(state_mutex) = 1;

  // seq allocation and the enqueue happen under one send_mutex hold: DAP
  // requires server seq to be monotonically increasing on the wire, and
  // the sim thread (events) races the reader thread (responses). A
  // dropped event leaves a seq gap, which DAP clients tolerate (seq is
  // unique/increasing, not dense).
  bool send_response(const dap::Request& request, bool success, Json body,
                     const std::string& message = "") {
    common::LockGuard lock(send_mutex);
    const Json response = dap::make_response(next_seq++, request, success,
                                             std::move(body), message);
    // force: responses are request-paced, they bypass the event bound.
    return send_encoded(dap::FrameCodec::encode(response.dump()),
                        /*force=*/true);
  }

  bool send_event(const std::string& event, Json body) {
    common::LockGuard lock(send_mutex);
    const Json message = dap::make_event(next_seq++, event, std::move(body));
    return send_encoded(dap::FrameCodec::encode(message.dump()),
                        /*force=*/false);
  }

  bool send_encoded(const std::string& encoded, bool force)
      HGDB_REQUIRES(send_mutex) {
    // The Content-Length message carries its own framing, so it rides the
    // writer as a raw frame; byte accounting lives in the writer target.
    switch (writer->enqueue(writer_target, rpc::make_raw_frame(encoded),
                            force)) {
      case rpc::EventWriter::Enqueue::Queued:
        return true;
      case rpc::EventWriter::Enqueue::Dropped:
        // Slow-client policy: the event is sacrificed (and counted), the
        // connection stays attached.
        return true;
      case rpc::EventWriter::Enqueue::Dead:
        return false;
    }
    return false;
  }

  int64_t register_object(Json object) HGDB_REQUIRES(state_mutex) {
    const int64_t ref = next_ref++;
    variable_refs.emplace(ref, std::move(object));
    return ref;
  }

  void index_stop(const rpc::StopEvent& stop) {
    common::LockGuard lock(state_mutex);
    last_stop = stop;
    frames.clear();
    variable_refs.clear();
    next_ref = 1;
    int64_t frame_id = 1;
    for (const auto& frame : stop.frames) {
      FrameEntry entry;
      entry.frame = frame;
      entry.locals_ref = register_object(frame.locals);
      entry.generator_ref = register_object(frame.generator);
      frames.emplace(frame_id++, std::move(entry));
    }
  }

  bool deliver(const ServiceEvent& event) override {
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
      case ServiceEvent::Kind::ValueChange: {
        // Not part of the DAP standard; surfaced as a custom event so a
        // VSCode extension can stream values without polling.
        Json body = Json::object();
        body["subscription"] =
            Json(static_cast<int64_t>(event.value_change.subscription));
        body["time"] = Json(static_cast<int64_t>(event.value_change.time));
        Json changes = Json::array();
        for (const auto& change : event.value_change.changes) {
          Json entry = Json::object();
          entry["signal"] = Json(change.signal);
          entry["value"] = Json(change.value);
          entry["width"] = Json(static_cast<int64_t>(change.width));
          changes.push_back(std::move(entry));
        }
        body["changes"] = std::move(changes);
        return send_event("hgdbValues", std::move(body));
      }
      case ServiceEvent::Kind::Lifecycle:
        if (event.lifecycle == "shutdown") {
          send_event("terminated", Json::object());
        }
        return true;
      case ServiceEvent::Kind::BreakpointChanged: {
        // Another attached session armed or disarmed a shared location;
        // surfaced as a custom event so the IDE can refresh its gutter.
        Json body = Json::object();
        body["action"] = Json(event.breakpoint_change.action);
        body["filename"] = Json(event.breakpoint_change.filename);
        body["line"] =
            Json(static_cast<int64_t>(event.breakpoint_change.line));
        body["condition"] = Json(event.breakpoint_change.condition);
        body["client"] =
            Json(static_cast<int64_t>(event.breakpoint_change.client));
        return send_event("hgdbBreakpointChanged", std::move(body));
      }
    }
    return true;
  }
};

namespace {

/// DAP line/column numbers are 1-based; the symbol table's columns may be
/// 0 (unknown).
int64_t dap_column(uint32_t column) { return column == 0 ? 1 : column; }

}  // namespace

// ---------------------------------------------------------------------------
// server lifecycle
// ---------------------------------------------------------------------------

DapServer::DapServer(DebugService& service, rpc::EventWriter& writer)
    : service_(&service), writer_(&writer) {}

DapServer::~DapServer() { shutdown(); }

uint16_t DapServer::listen(uint16_t port) {
  common::LockGuard lock(connections_mutex_);
  if (server_) return server_->port();
  server_ = std::make_unique<rpc::TcpServer>(port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return server_->port();
}

void DapServer::accept_loop() {
  // server_ stays valid for the thread's lifetime: shutdown() joins this
  // thread before resetting it.
  while (!shutting_down_.load()) {
    auto stream = server_->accept_stream();
    if (!stream) break;
    auto connection = std::make_unique<Connection>();
    connection->server = this;
    connection->service = service_;
    connection->stream = std::move(stream);
    connection->writer = writer_;
    // Register the writer target before the service can deliver anything:
    // the sink attaches inside register_client below, and the first event
    // must already find the async path.
    {
      rpc::EventWriter::Target target;
      // accept_stream always hands back a socket.
      target.fd = connection->stream->native_handle();
      Connection* raw = connection.get();
      // Minimal and service-free: closing the stream wakes the blocked
      // reader thread, which unregisters the client on its own stack.
      target.on_dead = [raw] { raw->stream->close(); };
      target.bytes_sent =
          &service_->metrics().counter("session.dap.bytes_sent");
      connection->writer_target = writer_->add_target(std::move(target));
    }
    try {
      connection->client = service_->register_client("dap", connection.get());
    } catch (const ServiceError&) {
      // Session limit: answer the first request with a failure, then drop.
      connection->rejected = true;
    }
    {
      common::LockGuard lock(connections_mutex_);
      if (!shutting_down_.load()) {
        // Reap connections whose thread has fully finished.
        for (auto it = connections_.begin(); it != connections_.end();) {
          if ((*it)->reapable.load()) {
            if ((*it)->thread.joinable()) (*it)->thread.join();
            it = connections_.erase(it);
          } else {
            ++it;
          }
        }
        connections_.push_back(std::move(connection));
        Connection* raw = connections_.back().get();
        raw->thread = std::thread([this, raw] { connection_loop(raw); });
        continue;
      }
    }
    // Shutdown began while this connection registered: undo it off-lock
    // (remove_target waits for in-flight on_dead callbacks).
    if (!connection->rejected) service_->unregister_client(connection->client);
    writer_->remove_target(connection->writer_target);
    connection->stream->close();
    break;
  }
}

void DapServer::shutdown() {
  shutting_down_.store(true);
  {
    common::LockGuard lock(connections_mutex_);
    if (server_) server_->close();
    for (auto& connection : connections_) connection->stream->close();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> taken;
  {
    common::LockGuard lock(connections_mutex_);
    taken.swap(connections_);
    server_.reset();
  }
  for (auto& connection : taken) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  shutting_down_.store(false);  // server object is reusable
}

size_t DapServer::connection_count() const {
  common::LockGuard lock(connections_mutex_);
  size_t alive = 0;
  for (const auto& connection : connections_) {
    if (!connection->reapable.load()) ++alive;
  }
  return alive;
}

// ---------------------------------------------------------------------------
// request dispatch
// ---------------------------------------------------------------------------

namespace {

/// Handles one DAP request against the service; returns the response body
/// (success path) or throws (ServiceError -> failure response with the
/// typed reason). `events` collects events to send after the response.
Json handle_request(DapServer::Connection& connection, DebugService& service,
                    const dap::Request& request,
                    std::vector<std::pair<std::string, Json>>& events) {
  using Command = DebugService::Command;
  const ClientId client = connection.client;
  const Json& args = request.arguments;
  Json body = Json::object();

  if (request.command == "initialize") {
    const auto caps = service.capabilities();
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
    service.disarm_breakpoint(client, path, 0);
    Json results = Json::array();
    if (auto requested = args.get("breakpoints")) {
      for (const auto& entry : requested->get().as_array()) {
        const auto line = static_cast<uint32_t>(entry.get_int("line"));
        const std::string condition = entry.get_string("condition");
        Json result = Json::object();
        result["line"] = Json(static_cast<int64_t>(line));
        try {
          const auto ids = service.arm_breakpoint(
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
    for (const auto& instance : service.instances()) {
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
    common::LockGuard lock(connection.state_mutex);
    for (const auto& [frame_id, entry] : connection.frames) {
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
    common::LockGuard lock(connection.state_mutex);
    auto it = connection.frames.find(frame_id);
    if (it == connection.frames.end()) {
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
    common::LockGuard lock(connection.state_mutex);
    auto it = connection.variable_refs.find(ref);
    if (it == connection.variable_refs.end()) {
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
            Json(connection.register_object(value));
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
      common::LockGuard lock(connection.state_mutex);
      auto it = connection.frames.find(frame_id);
      if (it != connection.frames.end()) {
        spec.breakpoint_id = it->second.frame.breakpoint_id;
      }
    }
    const auto result = service.evaluate(spec);
    body["result"] = Json(result.value);
    body["variablesReference"] = Json(int64_t{0});
    return body;
  }
  if (request.command == "continue") {
    service.execute(client, Command::Continue);
    body["allThreadsContinued"] = Json(true);
    return body;
  }
  if (request.command == "next" || request.command == "stepIn" ||
      request.command == "stepOut") {
    // One statement of the emulated source program; hardware has no call
    // stack to step into or out of, so all three map to step-over.
    service.execute(client, Command::StepOver);
    return body;
  }
  if (request.command == "stepBack") {
    service.execute(client, Command::StepBack);
    return body;
  }
  if (request.command == "reverseContinue") {
    service.execute(client, Command::ReverseContinue);
    return body;
  }
  if (request.command == "pause") {
    service.execute(client, Command::Pause);
    return body;
  }
  if (request.command == "setVariable") {
    if (!service.capabilities().set_value) {
      throw std::runtime_error("backend ('" + service.capabilities().backend +
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
      common::LockGuard lock(connection.state_mutex);
      for (const auto& [frame_id, entry] : connection.frames) {
        if (entry.locals_ref == ref || entry.generator_ref == ref) {
          instance = entry.frame.instance_name;
          break;
        }
      }
    }
    bool set = false;
    if (!instance.empty()) {
      try {
        service.set_value(instance + "." + name, value);
        set = true;
      } catch (const ServiceError&) {
        // fall through to the bare name
      }
    }
    if (!set) service.set_value(name, value);
    // Read back through the evaluator so the IDE shows the value the
    // simulator actually took (width-truncated, base-normalized).
    std::string rendered = value;
    try {
      EvaluateSpec spec;
      spec.expression = name;
      spec.instance_name = instance;
      rendered = service.evaluate(spec).value;
    } catch (const std::exception&) {
      // echo the requested value when read-back is unavailable
    }
    {
      // Keep the cached stop tables coherent for later `variables`
      // requests against the same reference.
      common::LockGuard lock(connection.state_mutex);
      auto it = connection.variable_refs.find(ref);
      if (it != connection.variable_refs.end() && it->second.is_object()) {
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
    body["metrics"] = service.metrics().snapshot_json();
    body["prometheus"] = Json(service.metrics().render_prometheus());
    return body;
  }
  if (request.command == "disconnect") {
    connection.close_requested = true;
    return body;
  }
  throw std::runtime_error("unsupported command '" + request.command + "'");
}

}  // namespace

void DapServer::connection_loop(Connection* connection) {
  dap::FrameCodec codec;
  bool drop = false;
  while (!drop && !shutting_down_.load()) {
    auto chunk = connection->stream->receive_some();
    if (!chunk) break;  // peer closed (possibly mid-request)
    codec.feed(*chunk);
    while (true) {
      std::optional<std::string> payload;
      try {
        payload = codec.next();
      } catch (const std::exception&) {
        drop = true;  // framing violation: drop the connection
        break;
      }
      if (!payload) break;
      dap::Request request;
      try {
        request = dap::parse_request(Json::parse(*payload));
      } catch (const std::exception&) {
        drop = true;  // not a DAP request: drop the connection
        break;
      }
      bool sent = false;
      std::vector<std::pair<std::string, Json>> events;
      if (connection->rejected) {
        connection->close_requested = true;
        sent = connection->send_response(request, false, Json::object(),
                                         "too-many-sessions");
      } else {
        service_->count_request();
        service_->metrics()
            .counter("session.dap.command." + request.command)
            .add(1);
#if HGDB_OBS_SPANS_ENABLED
        auto& trace_recorder = obs::TraceRecorder::global();
        obs::TraceSpan dispatch_span(
            trace_recorder, "dap",
            trace_recorder.enabled() ? trace_recorder.intern(request.command)
                                     : "dispatch");
#endif
        try {
          Json body = handle_request(*connection, *service_, request, events);
          sent = connection->send_response(request, true, std::move(body));
        } catch (const std::exception& error) {
          service_->count_protocol_error();
          sent = connection->send_response(request, false, Json::object(),
                                           error.what());
        }
      }
      if (!sent) {
        drop = true;
        break;
      }
      for (auto& [event, event_body] : events) {
        connection->send_event(event, std::move(event_body));
      }
      if (connection->close_requested) {
        drop = true;
        break;
      }
    }
  }
  // The final response (disconnect ack, limit rejection) may still sit in
  // the writer queue; give it a bounded chance to flush, then unhook the
  // target so the writer holds no reference to this connection's fd.
  writer_->drain(connection->writer_target, std::chrono::milliseconds(1000));
  writer_->remove_target(connection->writer_target);
  // Abrupt disconnects (mid-request included) release everything the
  // client owned and resign it from a pending stop, so a vanished IDE can
  // never hang the scheduler.
  if (!connection->rejected) service_->unregister_client(connection->client);
  connection->stream->close();
  connection->reapable.store(true);
}

}  // namespace hgdb::session
