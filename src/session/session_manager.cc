#include "session/session_manager.h"

#include <stdexcept>

#include "obs/trace.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "session/dap_session.h"

namespace hgdb::session {

using common::Json;
using rpc::ErrorCode;
using rpc::RequestV2;
using rpc::ResponseV2;

namespace {

// -- payload accessors --------------------------------------------------------
// Throw std::invalid_argument, which execute() maps to invalid-payload; the
// message names the offending field so clients can fix the request.

const Json& payload_field(const Json& payload, const char* key) {
  auto field = payload.get(key);
  if (!field) {
    throw std::invalid_argument(std::string("payload missing '") + key + "'");
  }
  return field->get();
}

std::string want_string(const Json& payload, const char* key) {
  const Json& field = payload_field(payload, key);
  if (!field.is_string()) {
    throw std::invalid_argument(std::string("payload field '") + key +
                                "' must be a string");
  }
  return field.as_string();
}

int64_t int_field(const Json& field, const char* key) {
  if (!field.is_number()) {
    throw std::invalid_argument(std::string("payload field '") + key +
                                "' must be a number");
  }
  try {
    return field.as_int();
  } catch (const std::runtime_error&) {
    throw std::invalid_argument(std::string("payload field '") + key +
                                "' is out of int64 range");
  }
}

int64_t want_int(const Json& payload, const char* key) {
  return int_field(payload_field(payload, key), key);
}

std::string opt_string(const Json& payload, const char* key,
                       std::string fallback = "") {
  auto field = payload.get(key);
  if (!field) return fallback;
  if (!field->get().is_string()) {
    throw std::invalid_argument(std::string("payload field '") + key +
                                "' must be a string");
  }
  return field->get().as_string();
}

int64_t opt_int(const Json& payload, const char* key, int64_t fallback = 0) {
  auto field = payload.get(key);
  if (!field) return fallback;
  return int_field(field->get(), key);
}

bool opt_bool(const Json& payload, const char* key, bool fallback = false) {
  auto field = payload.get(key);
  if (!field) return fallback;
  if (!field->get().is_bool()) {
    throw std::invalid_argument(std::string("payload field '") + key +
                                "' must be a boolean");
  }
  return field->get().as_bool();
}

}  // namespace

SessionManager::SessionManager(runtime::Runtime& runtime)
    : runtime_(&runtime), service_(std::make_unique<DebugService>(runtime)) {
  rpc::EventWriter::Options writer_options;
  writer_options.max_queue_frames = runtime.options().event_queue_frames;
  writer_options.max_queue_bytes = runtime.options().event_queue_bytes;
  writer_options.disconnect_on_overflow =
      runtime.options().disconnect_slow_clients;
  writer_options.metrics = &runtime.metrics();
  event_writer_ = std::make_unique<rpc::EventWriter>(writer_options);
  native_bytes_sent_ = &runtime.metrics().counter("session.native.bytes_sent");
  dap_bytes_sent_ = &runtime.metrics().counter("session.dap.bytes_sent");
  register_builtins();
}

SessionManager::~SessionManager() { shutdown(); }

// ---------------------------------------------------------------------------
// connection lifecycle (both front ends)
// ---------------------------------------------------------------------------

uint64_t SessionManager::add_client(std::unique_ptr<rpc::Channel> channel) {
  auto session = std::make_unique<DebugSession>(std::move(channel),
                                                *event_writer_);
  DebugSession* raw = session.get();
  return attach(std::move(session), "client", native_bytes_sent_,
                [this, raw] { session_loop(*raw); });
}

uint16_t SessionManager::listen_tcp(uint16_t port) {
  return listen(native_listener_, port, [this](rpc::TcpServer& server) {
    auto channel = server.accept();
    if (!channel) return false;
    add_client(std::move(channel));
    return true;
  });
}

uint16_t SessionManager::listen_dap(uint16_t port) {
  return listen(dap_listener_, port, [this](rpc::TcpServer& server) {
    auto stream = server.accept_stream();
    if (!stream) return false;
    auto session = std::make_unique<DapSession>(std::move(stream), *service_,
                                                *event_writer_);
    DapSession* raw = session.get();
    attach(std::move(session), "dap", dap_bytes_sent_,
           [raw] { raw->serve(); });
    return true;
  });
}

uint16_t SessionManager::listen(
    Listener& listener, uint16_t port,
    std::function<bool(rpc::TcpServer&)> accept_one) {
  common::LockGuard lock(sessions_mutex_);
  if (listener.server) return listener.server->port();
  listener.server = std::make_unique<rpc::TcpServer>(port);
  // The accept loop of both front ends. It uses the server unlocked:
  // shutdown() joins this thread before resetting the server.
  listener.thread = std::thread([this, server = listener.server.get(),
                                 accept_one = std::move(accept_one)] {
    while (!shutting_down_.load() && accept_one(*server)) {
    }
  });
  return listener.server->port();
}

uint64_t SessionManager::attach(std::unique_ptr<Connection> connection,
                                const char* name, obs::Counter* bytes_sent,
                                std::function<void()> read_loop) {
  // Every outbound byte goes through the writer, so register the socket
  // before the service can count or deliver to the client; add_target
  // throws std::invalid_argument for a transport without one. on_dead
  // stays service-free: closing the transport wakes the blocked reader
  // thread, which runs cleanup() on its own stack.
  rpc::EventWriter::Target target;
  target.fd = connection->fd();
  Connection* raw = connection.get();
  target.on_dead = [raw] { raw->close(); };
  target.bytes_sent = bytes_sent;
  raw->writer_target_ = event_writer_->add_target(std::move(target));
  {
    common::LockGuard lock(sessions_mutex_);
    // Checked under the table lock: shutdown() sets the flag before it
    // takes this lock to close every entry, so an entry pushed here is
    // always closed and joined by it.
    if (!shutting_down_.load()) {
      // The service enforces the session limit across both protocols. A
      // rejected client still gets a reader, which answers its first
      // request with the typed too-many-sessions error and closes.
      try {
        raw->id_ = service_->register_client(name, raw);
      } catch (const ServiceError&) {
        raw->rejected_ = true;
      }
      // Reap connections whose reader thread has fully finished
      // (reapable() is the thread's final statement, so this join cannot
      // block on our locks).
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->connection->reapable()) {
          if (it->thread.joinable()) it->thread.join();
          it = entries_.erase(it);
        } else {
          ++it;
        }
      }
      entries_.push_back(Entry{std::move(connection), std::thread{}});
      entries_.back().thread =
          std::thread([this, raw, read_loop = std::move(read_loop)] {
            read_loop();
            cleanup(*raw);
            raw->set_reapable();
          });
      return raw->id();
    }
  }
  // Shutdown began first: undo off-lock (remove_target waits for an
  // in-flight on_dead).
  event_writer_->remove_target(raw->writer_target());
  raw->close();
  return 0;
}

void SessionManager::cleanup(Connection& connection) {
  // The final response (disconnect ack, limit rejection) may still sit in
  // the writer queue; give it a bounded chance to flush before the close
  // tears the transport down.
  event_writer_->drain(connection.writer_target(),
                       std::chrono::milliseconds(1000));
  connection.mark_dead();
  connection.close();
  // Unhook the writer target before the service forgets the client: once
  // remove_target returns, the writer holds no reference to this
  // connection's fd or callbacks, so the Entry can be reaped safely.
  // Abrupt disconnects (mid-request included) release everything the
  // client owned and resign it from a pending stop, so a vanished client
  // can never hang the scheduler.
  event_writer_->remove_target(connection.writer_target());
  if (!connection.rejected()) service_->unregister_client(connection.id());
}

void SessionManager::shutdown() {
  // Serializes overlapping shutdown() calls (e.g. an explicit stop racing
  // the destructor); outermost rank in the hierarchy.
  static common::LifecycleMutex shutdown_mutex{"session::lifecycle"};
  common::LockGuard shutdown_lock(shutdown_mutex);
  shutting_down_.store(true);
  // Wake a deliver_stop() waiting for a command: it sees the shutdown and
  // releases the simulation with Continue.
  service_->begin_shutdown();
  Listener* listeners[] = {&native_listener_, &dap_listener_};
  {
    common::LockGuard lock(sessions_mutex_);
    for (Listener* listener : listeners) {
      if (listener->server) listener->server->close();
    }
    for (auto& entry : entries_) entry.connection->close();
  }
  for (Listener* listener : listeners) {
    if (listener->thread.joinable()) listener->thread.join();
  }
  // Entry addresses are stable (unique_ptr) and the vector cannot change
  // (attach() neither pushes nor reaps once shutting_down_ is set), so
  // join index-wise without holding sessions_mutex_ — the exiting threads
  // need it for cleanup.
  size_t count = 0;
  {
    common::LockGuard lock(sessions_mutex_);
    count = entries_.size();
  }
  for (size_t i = 0; i < count; ++i) {
    std::thread* thread = nullptr;
    {
      common::LockGuard lock(sessions_mutex_);
      thread = &entries_[i].thread;
    }
    if (thread->joinable()) thread->join();
  }
  {
    common::LockGuard lock(sessions_mutex_);
    entries_.clear();
    for (Listener* listener : listeners) listener->server.reset();
  }
  // Waits for the sim thread to actually leave the stop handshake, then
  // clears the shared state and re-arms the service for reuse.
  service_->finish_shutdown();
  shutting_down_.store(false);  // manager is reusable
}

size_t SessionManager::session_count() const {
  common::LockGuard lock(sessions_mutex_);
  size_t alive = 0;
  for (const auto& entry : entries_) {
    if (entry.connection->alive()) ++alive;
  }
  return alive;
}

// ---------------------------------------------------------------------------
// native front end: reader loop
// ---------------------------------------------------------------------------

void SessionManager::session_loop(DebugSession& session) {
  while (!shutting_down_.load()) {
    auto message = session.receive();
    if (!message) break;  // peer closed
    dispatch(session, *message);
    if (session.close_requested.load()) break;
  }
}

void SessionManager::enable_binary_events(DebugSession& session) {
  session.enable_binary_events();
  service_->set_client_binary(session.id(), true);
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

void SessionManager::dispatch(DebugSession& session, const std::string& text) {
  service_->count_request();
  auto decoded = rpc::parse_request_v2(text);
  if (!decoded.ok()) {
    service_->count_protocol_error();
    ResponseV2 response;
    response.token = decoded.request.token;
    response.command = decoded.request.command;
    response.fail(decoded.error, decoded.reason);
    session.send(rpc::serialize_response_v2(response));
    return;
  }
  session.send(rpc::serialize_response_v2(execute(session, decoded.request)));
}

ResponseV2 SessionManager::execute(DebugSession& session,
                                   const RequestV2& request) {
  ResponseV2 response;
  response.command = request.command;
  response.token = request.token;

  // A limit-rejected session answers everything with the typed error and
  // closes; it owns nothing, so there is nothing to clean up.
  if (session.rejected()) {
    response.fail(ErrorCode::TooManySessions,
                  "session limit reached; connection refused");
    session.close_requested.store(true);
    return response;
  }

  auto it = commands_.find(request.command);
  if (it == commands_.end()) {
    service_->count_protocol_error();
    response.fail(ErrorCode::UnknownCommand,
                  "unknown command '" + request.command + "'");
    return response;
  }
  if (it->second.count != nullptr) it->second.count->add(1);
#if HGDB_OBS_SPANS_ENABLED
  // Span named after the command itself (interned: the catalogue is a
  // small fixed set). Brackets gating + handler, i.e. the whole dispatch.
  auto& trace_recorder = obs::TraceRecorder::global();
  obs::TraceSpan dispatch_span(
      trace_recorder,
      "session",
      trace_recorder.enabled() ? trace_recorder.intern(request.command)
                               : "dispatch");
#endif

  if (it->second.gate != Gate::None) {
    const auto caps = capabilities();
    if (it->second.gate == Gate::TimeTravel && !caps.time_travel) {
      response.fail(ErrorCode::UnsupportedCapability,
                    "backend ('" + caps.backend +
                        "') does not support time travel");
      return response;
    }
    if (it->second.gate == Gate::SetValue && !caps.set_value) {
      response.fail(ErrorCode::UnsupportedCapability,
                    "backend ('" + caps.backend +
                        "') does not support set-value");
      return response;
    }
  }

  try {
    it->second.handler(session, request, response);
  } catch (const ServiceError& error) {
    response.fail(error.code(), error.what());
  } catch (const std::invalid_argument& error) {
    response.fail(ErrorCode::InvalidPayload, error.what());
  } catch (const std::out_of_range& error) {
    response.fail(ErrorCode::NoSuchEntity, error.what());
  } catch (const std::exception& error) {
    response.fail(ErrorCode::InternalError, error.what());
  }
  return response;
}

// ---------------------------------------------------------------------------
// stop delivery / execution commands
// ---------------------------------------------------------------------------

SessionManager::Command SessionManager::deliver_stop(rpc::StopEvent event) {
  return service_->deliver_stop(std::move(event));
}

void SessionManager::handle_execution(DebugSession& session,
                                      const RequestV2& request,
                                      ResponseV2& response, Command command) {
  (void)response;
  std::optional<uint64_t> time;
  if (command == Command::Jump && request.payload.contains("time")) {
    time = static_cast<uint64_t>(want_int(request.payload, "time"));
  }
  service_->execute(session.id(), command, time);
}

// ---------------------------------------------------------------------------
// protocol surface
// ---------------------------------------------------------------------------

rpc::Capabilities SessionManager::capabilities() const {
  return service_->capabilities();
}

std::vector<std::string> SessionManager::command_names() const {
  std::vector<std::string> names;
  names.reserve(commands_.size());
  for (const auto& [name, spec] : commands_) names.push_back(name);
  return names;
}

void SessionManager::register_command(const std::string& name, Handler handler,
                                      Gate gate) {
  commands_[name] = CommandSpec{
      std::move(handler), gate,
      &service_->metrics().counter("session.command." + name)};
}

// ---------------------------------------------------------------------------
// built-in command catalogue (the native v2 front end: each handler
// decodes the JSON payload, calls the typed DebugService core, and renders
// the result — byte-compatible with the pre-DebugService wire format)
// ---------------------------------------------------------------------------

void SessionManager::register_builtins() {
  // -- handshake --------------------------------------------------------------
  register_command("connect", [this](DebugSession& session,
                                     const RequestV2& request,
                                     ResponseV2& response) {
    service_->set_client_name(
        session.id(), opt_string(request.payload, "client", "client"));
    // Capability opt-in: after this response, pushed events arrive as
    // binary frames (the command channel stays JSON v2). Idempotent on
    // reconnect-style repeated `connect`s.
    if (opt_bool(request.payload, "binary_events") &&
        !session.binary_events()) {
      enable_binary_events(session);
    }
    response.payload["session_id"] = Json(static_cast<int64_t>(session.id()));
    response.payload["server"] = Json("hgdb");
    response.payload["binary_events"] = Json(session.binary_events());
    response.payload["capabilities"] = capabilities().to_json();
    Json commands = Json::array();
    for (const auto& name : command_names()) commands.push_back(Json(name));
    response.payload["commands"] = std::move(commands);
  });

  register_command("disconnect", [this](DebugSession& session,
                                        const RequestV2&,
                                        ResponseV2& response) {
    service_->detach(session.id());
    session.close_requested.store(true);
    response.payload["disconnected"] = Json(true);
  });

  // -- breakpoints ------------------------------------------------------------
  register_command("breakpoint-add", [this](DebugSession& session,
                                            const RequestV2& request,
                                            ResponseV2& response) {
    BreakpointSpec spec;
    spec.filename = want_string(request.payload, "filename");
    spec.line = static_cast<uint32_t>(want_int(request.payload, "line"));
    spec.condition = opt_string(request.payload, "condition");
    const auto ids = service_->arm_breakpoint(session.id(), spec);
    Json json_ids = Json::array();
    for (int64_t id : ids) json_ids.push_back(Json(id));
    response.payload["ids"] = std::move(json_ids);
  });

  register_command("breakpoint-remove", [this](DebugSession& session,
                                               const RequestV2& request,
                                               ResponseV2& response) {
    const std::string filename = want_string(request.payload, "filename");
    const auto line =
        static_cast<uint32_t>(opt_int(request.payload, "line", 0));
    const size_t removed =
        service_->disarm_breakpoint(session.id(), filename, line);
    response.payload["removed"] = Json(static_cast<int64_t>(removed));
  });

  register_command("breakpoint-list", [this](DebugSession& session,
                                             const RequestV2&,
                                             ResponseV2& response) {
    Json list = Json::array();
    for (const auto& bp : service_->list_breakpoints(session.id())) {
      Json entry = Json::object();
      entry["id"] = Json(bp.id);
      entry["filename"] = Json(bp.filename);
      entry["line"] = Json(static_cast<int64_t>(bp.line));
      entry["instance"] = Json(bp.instance);
      entry["owned"] = Json(bp.owned);
      list.push_back(std::move(entry));
    }
    response.payload["breakpoints"] = std::move(list);
  });

  register_command("bp-location", [this](DebugSession&,
                                         const RequestV2& request,
                                         ResponseV2& response) {
    const std::string filename = want_string(request.payload, "filename");
    const auto line =
        static_cast<uint32_t>(opt_int(request.payload, "line", 0));
    Json list = Json::array();
    for (const auto& row : service_->breakpoint_locations(filename, line)) {
      Json entry = Json::object();
      entry["id"] = Json(row.id);
      entry["filename"] = Json(row.filename);
      entry["line"] = Json(static_cast<int64_t>(row.line));
      entry["column"] = Json(static_cast<int64_t>(row.column));
      entry["instance"] = Json(row.instance);
      list.push_back(std::move(entry));
    }
    response.payload["breakpoints"] = std::move(list);
  });

  // -- execution --------------------------------------------------------------
  struct ExecutionCommand {
    Command command;
    Gate gate;
  };
  const ExecutionCommand executions[] = {
      {Command::Continue, Gate::None},
      {Command::Pause, Gate::None},
      {Command::StepOver, Gate::None},
      // step-back / reverse-continue intentionally ungated: without time
      // travel the scheduler degrades them to forward stepping, which is
      // still useful. jump has no degraded meaning, so it is gated.
      {Command::StepBack, Gate::None},
      {Command::ReverseContinue, Gate::None},
      {Command::Jump, Gate::TimeTravel},
  };
  for (const auto& execution : executions) {
    register_command(
        rpc::command_name(execution.command),
        [this, command = execution.command](DebugSession& session,
                                            const RequestV2& request,
                                            ResponseV2& response) {
          handle_execution(session, request, response, command);
        },
        execution.gate);
  }

  register_command("detach", [this](DebugSession& session, const RequestV2&,
                                    ResponseV2& response) {
    const size_t removed = service_->detach(session.id());
    response.payload["removed"] = Json(static_cast<int64_t>(removed));
  });

  // -- evaluation -------------------------------------------------------------
  register_command("evaluate", [this](DebugSession&, const RequestV2& request,
                                      ResponseV2& response) {
    EvaluateSpec spec;
    spec.expression = want_string(request.payload, "expression");
    if (request.payload.contains("breakpoint_id")) {
      spec.breakpoint_id = want_int(request.payload, "breakpoint_id");
    }
    spec.instance_name = opt_string(request.payload, "instance_name");
    const auto result = service_->evaluate(spec);
    response.payload["result"] = Json(result.value);
    response.payload["width"] = Json(static_cast<int64_t>(result.width));
  });

  register_command("evaluate-batch", [this](DebugSession&,
                                            const RequestV2& request,
                                            ResponseV2& response) {
    const Json& expressions = payload_field(request.payload, "expressions");
    if (!expressions.is_array()) {
      throw std::invalid_argument("payload field 'expressions' must be an array");
    }
    EvaluateSpec spec;
    if (request.payload.contains("breakpoint_id")) {
      spec.breakpoint_id = want_int(request.payload, "breakpoint_id");
    }
    spec.instance_name = opt_string(request.payload, "instance_name");
    Json results = Json::array();
    int64_t errors = 0;
    for (const auto& item : expressions.as_array()) {
      if (!item.is_string()) {
        throw std::invalid_argument("'expressions' entries must be strings");
      }
      Json result = Json::object();
      result["expression"] = item;
      spec.expression = item.as_string();
      try {
        const auto value = service_->evaluate(spec);
        result["status"] = Json("success");
        result["value"] = Json(value.value);
        result["width"] = Json(static_cast<int64_t>(value.width));
      } catch (const ServiceError& error) {
        result["status"] = Json("error");
        result["reason"] = Json(error.what());
        ++errors;
      }
      results.push_back(std::move(result));
    }
    response.payload["results"] = std::move(results);
    response.payload["errors"] = Json(errors);
  });

  // -- watchpoints ------------------------------------------------------------
  register_command("watch", [this](DebugSession& session,
                                   const RequestV2& request,
                                   ResponseV2& response) {
    WatchSpec spec;
    spec.expression = want_string(request.payload, "expression");
    spec.instance_name = opt_string(request.payload, "instance_name");
    const int64_t id = service_->arm_watch(session.id(), spec);
    response.payload["id"] = Json(id);
  });

  register_command("unwatch", [this](DebugSession& session,
                                     const RequestV2& request,
                                     ResponseV2& response) {
    const int64_t id = want_int(request.payload, "id");
    service_->disarm_watch(session.id(), id);
    response.payload["removed"] = Json(true);
  });

  // -- subscriptions (push value-change streams) ------------------------------
  register_command("subscribe", [this](DebugSession& session,
                                       const RequestV2& request,
                                       ResponseV2& response) {
    SubscribeSpec spec;
    const Json& signals = payload_field(request.payload, "signals");
    if (!signals.is_array()) {
      throw std::invalid_argument("payload field 'signals' must be an array");
    }
    for (const auto& signal : signals.as_array()) {
      if (!signal.is_string()) {
        throw std::invalid_argument("'signals' entries must be strings");
      }
      spec.signals.push_back(signal.as_string());
    }
    spec.instance_name = opt_string(request.payload, "instance_name");
    spec.decimation =
        static_cast<uint32_t>(opt_int(request.payload, "decimation", 1));
    // Server-side rate limit (sim-time units), applied after decimation.
    spec.min_interval =
        static_cast<uint64_t>(opt_int(request.payload, "min_interval", 0));
    const uint64_t id = service_->subscribe(session.id(), spec);
    response.payload["id"] = Json(static_cast<int64_t>(id));
    response.payload["decimation"] =
        Json(static_cast<int64_t>(std::max<uint32_t>(1, spec.decimation)));
    response.payload["min_interval"] = Json(spec.min_interval);
  });

  register_command("unsubscribe", [this](DebugSession& session,
                                         const RequestV2& request,
                                         ResponseV2& response) {
    const int64_t id = want_int(request.payload, "id");
    service_->unsubscribe(session.id(), static_cast<uint64_t>(id));
    response.payload["removed"] = Json(true);
  });

  // -- hierarchy / symbol browsing --------------------------------------------
  register_command("list-instances", [this](DebugSession&, const RequestV2&,
                                            ResponseV2& response) {
    Json list = Json::array();
    for (const auto& row : service_->instances()) {
      Json entry = Json::object();
      entry["id"] = Json(row.id);
      entry["name"] = Json(row.name);
      list.push_back(std::move(entry));
    }
    response.payload["instances"] = std::move(list);
  });

  register_command("list-variables", [this](DebugSession&,
                                            const RequestV2& request,
                                            ResponseV2& response) {
    if (request.payload.contains("breakpoint_id")) {
      const int64_t id = want_int(request.payload, "breakpoint_id");
      const rpc::Frame frame = service_->frame_variables(id);
      response.payload["locals"] = frame.locals;
      response.payload["generator"] = frame.generator;
      return;
    }
    const std::string instance =
        want_string(request.payload, "instance_name");
    Json list = Json::array();
    for (const auto& variable : service_->variables(instance)) {
      Json entry = Json::object();
      entry["name"] = Json(variable.name);
      entry["rtl"] = Json(variable.is_rtl);
      entry["value"] = Json(variable.value);
      if (variable.width) {
        entry["width"] = Json(static_cast<int64_t>(*variable.width));
      }
      list.push_back(std::move(entry));
    }
    response.payload["variables"] = std::move(list);
  });

  register_command("list-files", [this](DebugSession&, const RequestV2&,
                                        ResponseV2& response) {
    Json files = Json::array();
    for (const auto& file : service_->files()) {
      files.push_back(Json(file));
    }
    response.payload["files"] = std::move(files);
  });

  // -- introspection ----------------------------------------------------------
  register_command("info", [this](DebugSession&, const RequestV2&,
                                  ResponseV2& response) {
    Json inserted = Json::array();
    for (const auto& bp : runtime_->inserted_breakpoints()) {
      Json entry = Json::object();
      entry["id"] = Json(bp.id);
      entry["filename"] = Json(bp.filename);
      entry["line"] = Json(static_cast<int64_t>(bp.line));
      entry["instance"] = Json(bp.instance_name);
      inserted.push_back(std::move(entry));
    }
    response.payload["breakpoints"] = std::move(inserted);
    response.payload["time"] =
        Json(static_cast<int64_t>(runtime_->sim_interface().get_time()));
    Json files = Json::array();
    for (const auto& file : service_->files()) {
      files.push_back(Json(file));
    }
    response.payload["files"] = std::move(files);
    response.payload["protocol_version"] = Json(rpc::kProtocolV2);
    response.payload["backend"] =
        Json(runtime_->sim_interface().backend_kind());
    Json sessions = Json::array();
    for (const auto& client : service_->clients()) {
      Json item = Json::object();
      item["id"] = Json(static_cast<int64_t>(client.id));
      item["client"] = Json(client.name);
      item["protocol"] = Json(rpc::kProtocolV2);
      sessions.push_back(std::move(item));
    }
    response.payload["sessions"] = std::move(sessions);
  });

  register_command("stats", [this](DebugSession&, const RequestV2&,
                                   ResponseV2& response) {
    const auto stats = runtime_->stats();
    response.payload["clock_edges"] = Json(stats.clock_edges);
    response.payload["fast_path_exits"] = Json(stats.fast_path_exits);
    response.payload["batches_evaluated"] = Json(stats.batches_evaluated);
    response.payload["conditions_evaluated"] = Json(stats.conditions_evaluated);
    response.payload["watchpoints_evaluated"] =
        Json(stats.watchpoints_evaluated);
    response.payload["stops"] = Json(stats.stops);
    // Compiled-evaluation pipeline counters: time spent in condition
    // evaluation, members skipped by the change-driven cache, and batched
    // signal-fetch traffic.
    response.payload["eval_ns"] = Json(stats.eval_ns);
    response.payload["dirty_skips"] = Json(stats.dirty_skips);
    response.payload["batch_fetches"] = Json(stats.batch_fetches);
    response.payload["batch_signals"] = Json(stats.batch_signals);
    response.payload["programs_compiled"] = Json(stats.programs_compiled);
    response.payload["program_cache_hits"] = Json(stats.program_cache_hits);
    response.payload["sessions"] =
        Json(static_cast<int64_t>(service_->client_count()));
    response.payload["watchpoints"] =
        Json(static_cast<int64_t>(runtime_->watchpoint_count()));
    response.payload["subscriptions"] =
        Json(static_cast<int64_t>(service_->subscription_count()));
    // Service counters, read from the registry they are counted in.
    auto& registry = service_->metrics();
    for (const char* name :
         {"requests", "protocol_errors", "stops_broadcast", "events_delivered",
          "events_decimated", "events_dropped"}) {
      response.payload[name] =
          Json(registry.counter(std::string("session.") + name).value());
    }
    // Latency quantiles from the registry histograms (power-of-two bucket
    // upper bounds, see obs::Histogram).
    Json latency = Json::object();
    for (const char* name :
         {"runtime.batch_eval_ns", "session.stop_handshake_ns"}) {
      const auto snap = registry.histogram(name).snapshot();
      Json entry = Json::object();
      entry["count"] = Json(snap.count);
      entry["p50"] = Json(snap.p50);
      entry["p95"] = Json(snap.p95);
      entry["p99"] = Json(snap.p99);
      latency[name] = std::move(entry);
    }
    response.payload["latency"] = std::move(latency);
  });

  // -- observability ----------------------------------------------------------
  register_command("metrics", [this](DebugSession&, const RequestV2& request,
                                     ResponseV2& response) {
    // Prometheus text exposition by default; format=json returns the
    // structured snapshot (counters/gauges/histogram quantiles).
    const std::string format =
        opt_string(request.payload, "format", "prometheus");
    auto& registry = service_->metrics();
    if (format == "json") {
      response.payload["metrics"] = registry.snapshot_json();
    } else if (format == "prometheus") {
      response.payload["text"] = Json(registry.render_prometheus());
    } else {
      throw std::invalid_argument(
          "payload field 'format' must be 'prometheus' or 'json'");
    }
  });

  register_command("trace", [](DebugSession&, const RequestV2& request,
                               ResponseV2& response) {
    auto& recorder = obs::TraceRecorder::global();
    const std::string action = want_string(request.payload, "action");
    if (action == "start") {
      recorder.start();
    } else if (action == "stop") {
      recorder.stop();
    } else if (action == "clear") {
      recorder.clear();
    } else if (action == "dump") {
      // chrome://tracing / Perfetto JSON as a string payload; the client
      // writes it to a file.
      response.payload["json"] = Json(recorder.export_chrome_json());
    } else if (action != "status") {
      throw std::invalid_argument(
          "payload field 'action' must be start|stop|clear|status|dump");
    }
    response.payload["enabled"] = Json(recorder.enabled());
    response.payload["recorded"] = Json(recorder.recorded());
    response.payload["dropped"] = Json(recorder.dropped());
    response.payload["capacity"] =
        Json(static_cast<int64_t>(recorder.capacity()));
#if HGDB_OBS_SPANS_ENABLED
    response.payload["spans_compiled"] = Json(true);
#else
    response.payload["spans_compiled"] = Json(false);
#endif
  });

  // -- signal forcing ---------------------------------------------------------
  register_command(
      "set-value",
      [this](DebugSession&, const RequestV2& request, ResponseV2& response) {
        const std::string name = want_string(request.payload, "name");
        const Json& raw = payload_field(request.payload, "value");
        std::string value;
        if (raw.is_string()) {
          value = raw.as_string();
        } else if (raw.is_number()) {
          value = std::to_string(int_field(raw, "value"));
        } else {
          throw std::invalid_argument(
              "payload field 'value' must be a string or number");
        }
        service_->set_value(name, value);
        response.payload["set"] = Json(true);
      },
      Gate::SetValue);
}

}  // namespace hgdb::session
