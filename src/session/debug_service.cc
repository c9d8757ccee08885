#include "session/debug_service.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "runtime/runtime.h"

namespace hgdb::session {

using common::BitVector;
using rpc::ErrorCode;

namespace {

std::string render(const BitVector& value) { return value.to_string(10); }

}  // namespace

DebugService::DebugService(runtime::Runtime& runtime) : runtime_(&runtime) {
  auto& registry = runtime_->metrics();
  requests_ = &registry.counter("session.requests");
  protocol_errors_ = &registry.counter("session.protocol_errors");
  stops_broadcast_ = &registry.counter("session.stops_broadcast");
  events_delivered_ = &registry.counter("session.events_delivered");
  events_decimated_ = &registry.counter("session.events_decimated");
  events_dropped_ = &registry.counter("session.events_dropped");
  breakpoint_changes_ = &registry.counter("session.breakpoint_changes");
  stop_handshake_ns_ = &registry.histogram("session.stop_handshake_ns");
  runtime_->set_change_listener(
      [this](int64_t subscription_id, uint64_t time,
             const std::vector<runtime::Runtime::SignalChange>& changes) {
        std::vector<ServiceEvent::ValueChange::Change> rendered;
        rendered.reserve(changes.size());
        for (const auto& change : changes) {
          rendered.push_back(ServiceEvent::ValueChange::Change{
              change.name, render(change.value), change.value.width()});
        }
        handle_value_changes(subscription_id, time, std::move(rendered));
      });
}

DebugService::~DebugService() { runtime_->set_change_listener(nullptr); }

// ---------------------------------------------------------------------------
// clients
// ---------------------------------------------------------------------------

ClientId DebugService::register_client(const std::string& name,
                                       EventSink* sink) {
  common::LockGuard lock(clients_mutex_);
  const size_t limit = runtime_->options().max_sessions;
  if (limit != 0 && clients_.size() >= limit) {
    throw ServiceError(ErrorCode::TooManySessions,
                       "session limit reached (" + std::to_string(limit) +
                           " attached)");
  }
  const ClientId id = next_client_id_++;
  ClientState state;
  state.id = id;
  state.name = name;
  state.sink = sink;
  clients_.emplace(id, std::move(state));
  return id;
}

size_t DebugService::unregister_client(ClientId id) {
  size_t removed = 0;
  {
    // delivery_mutex_ first: wait out any sink delivery in flight, so the
    // caller may destroy the sink the moment this returns.
    common::LockGuard delivery(delivery_mutex_);
    common::LockGuard lock(clients_mutex_);
    auto it = clients_.find(id);
    if (it == clients_.end()) return 0;
    removed = release_client_state_locked(it->second);
    clients_.erase(it);
  }
  // The departing client stops counting toward the current stop's expected
  // responders: the simulation resumes once every engaged recipient has
  // answered or left, and never sooner — so a crash can't hang a stop, and
  // a remaining client's stop is never yanked away.
  resign_from_stop(id);
  return removed;
}

DebugService::ClientState& DebugService::client_at(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) {
    throw ServiceError(ErrorCode::NoSuchEntity,
                       "unknown client " + std::to_string(id));
  }
  return it->second;
}

void DebugService::set_client_name(ClientId id, const std::string& name) {
  common::LockGuard lock(clients_mutex_);
  client_at(id).name = name;
}

void DebugService::set_client_binary(ClientId id, bool binary) {
  // delivery_mutex_ first, like unregister_client: a fan-out snapshotting
  // binary flags must not race the switch mid-delivery.
  common::LockGuard delivery(delivery_mutex_);
  common::LockGuard lock(clients_mutex_);
  client_at(id).binary = binary;
}

size_t DebugService::client_count() const {
  common::LockGuard lock(clients_mutex_);
  return clients_.size();
}

std::vector<ClientView> DebugService::clients() const {
  common::LockGuard lock(clients_mutex_);
  std::vector<ClientView> views;
  views.reserve(clients_.size());
  for (const auto& [id, client] : clients_) {
    views.push_back(ClientView{id, client.name});
  }
  return views;
}

rpc::Capabilities DebugService::capabilities() const {
  rpc::Capabilities caps;
  auto& interface = runtime_->sim_interface();
  caps.backend = interface.backend_kind();
  caps.time_travel = interface.supports_time_travel();
  caps.set_value = interface.supports_set_value();
  return caps;
}

// ---------------------------------------------------------------------------
// breakpoints
// ---------------------------------------------------------------------------

std::vector<int64_t> DebugService::arm_breakpoint(ClientId id,
                                                  const BreakpointSpec& spec) {
  std::vector<int64_t> ids;
  try {
    ids = runtime_->add_breakpoint(spec.filename, spec.line, spec.condition);
  } catch (const std::invalid_argument& error) {
    throw ServiceError(ErrorCode::InvalidPayload, error.what());
  } catch (const std::out_of_range& error) {
    throw ServiceError(ErrorCode::NoSuchEntity, error.what());
  }
  if (ids.empty()) {
    throw ServiceError(ErrorCode::NoSuchLocation,
                       "no breakpoint at " + spec.filename + ":" +
                           std::to_string(spec.line));
  }
  const auto key =
      std::make_pair(Location{spec.filename, spec.line}, spec.condition);
  bool fresh_arm = false;
  {
    common::LockGuard lock(clients_mutex_);
    ClientState& client = client_at(id);
    engage_locked(client);  // armed a breakpoint: expected to answer stops
    fresh_arm = client.arms.insert(key).second;
    if (!fresh_arm) {
      // The client already held this exact arm; undo the duplicate runtime
      // reference so its ref count stays one-per-owner.
      runtime_->release_breakpoint(spec.filename, spec.line, spec.condition);
    }
  }
  // Outside the client table lock: the fan-out takes delivery_mutex_ and
  // re-enters clients_mutex_ itself. A re-arm of an already-held location
  // changes nothing, so the other sessions hear nothing.
  if (fresh_arm) {
    notify_breakpoint_change(id, "armed", key.first, key.second);
  }
  return ids;
}

size_t DebugService::disarm_breakpoint(ClientId id,
                                       const std::string& filename,
                                       uint32_t line) {
  std::vector<std::pair<Location, std::string>> taken;
  {
    common::LockGuard lock(clients_mutex_);
    ClientState& client = client_at(id);
    for (auto it = client.arms.begin(); it != client.arms.end();) {
      const auto& [location, condition] = *it;
      if (location.first == filename && (line == 0 || location.second == line)) {
        taken.push_back(*it);
        it = client.arms.erase(it);
      } else {
        ++it;
      }
    }
  }
  size_t removed = 0;
  for (const auto& [location, condition] : taken) {
    removed +=
        runtime_->release_breakpoint(location.first, location.second, condition);
    notify_breakpoint_change(id, "disarmed", location, condition);
  }
  return removed;
}

std::vector<BreakpointView> DebugService::list_breakpoints(ClientId id) const {
  std::vector<BreakpointView> views;
  const auto inserted = runtime_->inserted_breakpoints();
  common::LockGuard lock(clients_mutex_);
  auto it = clients_.find(id);
  for (const auto& bp : inserted) {
    bool owned = false;
    if (it != clients_.end()) {
      const Location location{bp.filename, bp.line};
      for (const auto& [armed, condition] : it->second.arms) {
        if (armed == location) {
          owned = true;
          break;
        }
      }
    }
    views.push_back(
        BreakpointView{bp.id, bp.filename, bp.line, bp.instance_name, owned});
  }
  return views;
}

std::vector<LocationView> DebugService::breakpoint_locations(
    const std::string& filename, uint32_t line) const {
  std::vector<LocationView> views;
  const auto& table = runtime_->symbol_table();
  for (const auto& row : table.breakpoints_at(filename, line)) {
    LocationView view;
    view.id = row.id;
    view.filename = row.filename;
    view.line = row.line_num;
    view.column = row.column_num;
    auto instance = table.instance(row.instance_id);
    view.instance = instance ? instance->name : "";
    views.push_back(std::move(view));
  }
  return views;
}

// ---------------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------------

void DebugService::execute(ClientId id, Command command,
                           std::optional<uint64_t> time) {
  {
    common::LockGuard lock(clients_mutex_);
    engage_locked(client_at(id));
  }
  common::UniqueLock lock(command_mutex_);
  if (waiting_for_command_) {
    if (pending_command_.has_value()) {
      // Another client already answered this stop; first command wins
      // rather than being silently overwritten.
      throw ServiceError(ErrorCode::InvalidState,
                         "a resume command is already pending for this stop");
    }
    if (command == Command::Jump) {
      if (!time) {
        throw ServiceError(ErrorCode::InvalidPayload,
                           "payload missing 'time'");
      }
      if (!runtime_->sim_interface().set_time(*time)) {
        throw ServiceError(ErrorCode::InvalidPayload,
                           "time travel target out of range");
      }
    }
    pending_command_ = command;
    command_ready_.notify_all();
    return;
  }
  lock.unlock();
  if (command == Command::Pause) {
    runtime_->request_pause();
    return;
  }
  throw ServiceError(ErrorCode::InvalidState, "simulation is not stopped");
}

size_t DebugService::detach(ClientId id) {
  size_t removed = 0;
  {
    common::LockGuard lock(clients_mutex_);
    removed = release_client_state_locked(client_at(id));
  }
  resign_from_stop(id);
  return removed;
}

size_t DebugService::release_client_state_locked(ClientState& client) {
  size_t removed = 0;
  for (const auto& [location, condition] : client.arms) {
    removed +=
        runtime_->release_breakpoint(location.first, location.second, condition);
  }
  client.arms.clear();
  for (int64_t watch : client.watches) {
    runtime_->remove_watchpoint(watch);
  }
  client.watches.clear();
  for (uint64_t subscription : client.subscriptions) {
    runtime_->remove_signal_subscription(static_cast<int64_t>(subscription));
    if (auto sub = subscriptions_.find(subscription);
        sub != subscriptions_.end()) {
      remove_subscription_metric_locked(sub->second);
      subscriptions_.erase(sub);
    }
  }
  client.subscriptions.clear();
  client.engaged = false;
  return removed;
}

// ---------------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------------

EvaluateResult DebugService::evaluate(const EvaluateSpec& spec) {
  auto value = runtime_->evaluate(spec.expression, spec.breakpoint_id,
                                  spec.instance_name);
  if (!value) {
    throw ServiceError(ErrorCode::EvaluationFailed,
                       "cannot evaluate '" + spec.expression + "'");
  }
  return EvaluateResult{render(*value), value->width()};
}

int64_t DebugService::arm_watch(ClientId id, const WatchSpec& spec) {
  int64_t watch_id = 0;
  try {
    watch_id = runtime_->add_watchpoint(spec.expression, spec.instance_name);
  } catch (const std::invalid_argument& error) {
    throw ServiceError(ErrorCode::InvalidPayload, error.what());
  } catch (const std::out_of_range& error) {
    throw ServiceError(ErrorCode::NoSuchEntity, error.what());
  }
  common::LockGuard lock(clients_mutex_);
  ClientState& client = client_at(id);
  engage_locked(client);  // armed a watchpoint: expected to answer stops
  client.watches.insert(watch_id);
  return watch_id;
}

void DebugService::disarm_watch(ClientId id, int64_t watch_id) {
  {
    common::LockGuard lock(clients_mutex_);
    ClientState& client = client_at(id);
    if (client.watches.erase(watch_id) == 0) {
      throw ServiceError(ErrorCode::NoSuchEntity,
                         "watchpoint " + std::to_string(watch_id) +
                             " is not owned by this session");
    }
  }
  runtime_->remove_watchpoint(watch_id);
}

// ---------------------------------------------------------------------------
// hierarchy / symbol browsing
// ---------------------------------------------------------------------------

std::vector<InstanceView> DebugService::instances() const {
  std::vector<InstanceView> views;
  for (const auto& row : runtime_->symbol_table().instances()) {
    views.push_back(InstanceView{row.id, row.name});
  }
  return views;
}

std::vector<VariableView> DebugService::variables(
    const std::string& instance_name) const {
  const auto& table = runtime_->symbol_table();
  auto row = table.instance_by_name(instance_name);
  if (!row) {
    throw ServiceError(ErrorCode::NoSuchEntity,
                       "unknown instance '" + instance_name + "'");
  }
  std::vector<VariableView> views;
  for (const auto& variable : table.generator_variables(row->id)) {
    VariableView view;
    view.name = variable.name;
    view.is_rtl = variable.is_rtl;
    if (!variable.is_rtl) {
      view.value = variable.value;
    } else if (auto value =
                   runtime_->read_instance_rtl(instance_name, variable.value)) {
      view.value = render(*value);
      view.width = value->width();
    } else {
      view.value = "<unavailable>";
    }
    views.push_back(std::move(view));
  }
  return views;
}

rpc::Frame DebugService::frame_variables(int64_t breakpoint_id) const {
  try {
    return runtime_->build_frame(breakpoint_id);
  } catch (const std::invalid_argument& error) {
    throw ServiceError(ErrorCode::NoSuchEntity, error.what());
  }
}

std::vector<std::string> DebugService::files() const {
  return runtime_->symbol_table().files();
}

// ---------------------------------------------------------------------------
// signal forcing
// ---------------------------------------------------------------------------

void DebugService::set_value(const std::string& name,
                             const std::string& value) {
  BitVector bits;
  try {
    bits = BitVector::from_string(value);
  } catch (const std::exception& error) {
    throw ServiceError(ErrorCode::InvalidPayload, error.what());
  }
  if (!runtime_->set_signal_value(name, bits)) {
    throw ServiceError(ErrorCode::NoSuchEntity, "cannot set '" + name + "'");
  }
}

// ---------------------------------------------------------------------------
// subscriptions
// ---------------------------------------------------------------------------

uint64_t DebugService::subscribe(ClientId id, const SubscribeSpec& spec) {
  // The runtime registration happens under clients_mutex_ so the first
  // change event — possibly the only one, the initial snapshot — cannot
  // fire before the SubscriptionState exists: the sim thread's listener
  // callback blocks on this mutex until the state is recorded. Safe
  // lock-order-wise because the runtime never holds its state mutex while
  // invoking the listener.
  common::LockGuard lock(clients_mutex_);
  ClientState& client = client_at(id);
  int64_t subscription_id = 0;
  try {
    subscription_id =
        runtime_->add_signal_subscription(spec.signals, spec.instance_name);
  } catch (const std::invalid_argument& error) {
    throw ServiceError(ErrorCode::InvalidPayload, error.what());
  } catch (const std::out_of_range& error) {
    throw ServiceError(ErrorCode::NoSuchEntity, error.what());
  }
  const auto key = static_cast<uint64_t>(subscription_id);
  client.subscriptions.insert(key);
  SubscriptionState state;
  state.id = key;
  state.client = id;
  state.decimation = std::max<uint32_t>(1, spec.decimation);
  state.min_interval = spec.min_interval;
  if (state.min_interval != 0) {
    state.dropped = &metrics().counter("session.subscription." +
                                       std::to_string(key) +
                                       ".events_dropped");
  }
  subscriptions_.emplace(key, state);
  return key;
}

void DebugService::unsubscribe(ClientId id, uint64_t subscription_id) {
  {
    common::LockGuard lock(clients_mutex_);
    ClientState& client = client_at(id);
    if (client.subscriptions.erase(subscription_id) == 0) {
      throw ServiceError(ErrorCode::NoSuchEntity,
                         "subscription " + std::to_string(subscription_id) +
                             " is not owned by this session");
    }
    if (auto sub = subscriptions_.find(subscription_id);
        sub != subscriptions_.end()) {
      remove_subscription_metric_locked(sub->second);
      subscriptions_.erase(sub);
    }
  }
  runtime_->remove_signal_subscription(static_cast<int64_t>(subscription_id));
}

size_t DebugService::subscription_count() const {
  common::LockGuard lock(clients_mutex_);
  return subscriptions_.size();
}

void DebugService::handle_value_changes(
    int64_t subscription_id, uint64_t time,
    std::vector<ServiceEvent::ValueChange::Change> changes) {
  const uint64_t key = static_cast<uint64_t>(subscription_id);
  // delivery_mutex_ — not clients_mutex_ — brackets the sink call: the
  // sink stays alive because unregister_client waits on delivery_mutex_
  // before letting the front end destroy it, while clients_mutex_ stays
  // free so a slow (or re-entrant) sink cannot block service traffic.
  common::LockGuard delivery(delivery_mutex_);
  EventSink* sink = nullptr;
  bool binary = false;
  {
    common::LockGuard lock(clients_mutex_);
    auto it = subscriptions_.find(key);
    if (it == subscriptions_.end()) return;
    SubscriptionState& state = it->second;
    // Client-chosen decimation: the first event (the initial snapshot) is
    // always delivered, then every Nth change event — a client at
    // decimation N receives ~1/N of the stream regardless of burstiness,
    // but never misses the snapshot of a mostly-static signal.
    const uint64_t seen = state.events_seen++;
    if (seen % state.decimation != 0) {
      events_decimated_->add(1);
      return;
    }
    // Server-side min-interval throttle, applied after decimation: a burst
    // of changes inside the window collapses to the first one. The initial
    // snapshot always passes (a mostly-static signal must still surface).
    if (state.min_interval != 0 && state.delivered_any &&
        time < state.last_delivered_time + state.min_interval) {
      events_dropped_->add(1);
      if (state.dropped != nullptr) state.dropped->add(1);
      return;
    }
    auto client = clients_.find(state.client);
    if (client == clients_.end() || client->second.sink == nullptr) return;
    sink = client->second.sink;
    binary = client->second.binary;
  }
  HGDB_TRACE_SPAN("session", "event_fanout");
  ServiceEvent event;
  event.kind = ServiceEvent::Kind::ValueChange;
  event.value_change.subscription = key;
  event.value_change.time = time;
  event.value_change.changes = std::move(changes);
  if (binary) {
    event.binary_body =
        rpc::encode_value_change_body(time, event.value_change.changes);
  }
  if (sink->deliver(event)) {
    events_delivered_->add(1);
    // Re-find under the lock: the subscription may have been dropped
    // while the sink ran.
    common::LockGuard lock(clients_mutex_);
    if (auto it = subscriptions_.find(key); it != subscriptions_.end()) {
      it->second.delivered_any = true;
      it->second.last_delivered_time = time;
    }
  }
}

void DebugService::remove_subscription_metric_locked(
    const SubscriptionState& state) {
  if (state.dropped == nullptr) return;
  metrics().remove("session.subscription." + std::to_string(state.id) +
                   ".events_dropped");
}

obs::MetricsRegistry& DebugService::metrics() const {
  return runtime_->metrics();
}

// ---------------------------------------------------------------------------
// cross-client notifications
// ---------------------------------------------------------------------------

void DebugService::notify_breakpoint_change(ClientId actor,
                                            const std::string& action,
                                            const Location& location,
                                            const std::string& condition) {
  // Same bracket discipline as the other fan-outs: snapshot the recipients
  // under clients_mutex_, deliver under delivery_mutex_ only.
  common::LockGuard delivery(delivery_mutex_);
  struct Target {
    EventSink* sink = nullptr;
    bool binary = false;
  };
  std::vector<Target> targets;
  bool any_binary = false;
  {
    common::LockGuard lock(clients_mutex_);
    for (auto& [id, client] : clients_) {
      // The editing session already knows.
      if (id == actor || client.sink == nullptr) continue;
      targets.push_back(Target{client.sink, client.binary});
      any_binary |= client.binary;
    }
  }
  if (targets.empty()) return;
  ServiceEvent event;
  event.kind = ServiceEvent::Kind::BreakpointChanged;
  event.breakpoint_change.action = action;
  event.breakpoint_change.filename = location.first;
  event.breakpoint_change.line = location.second;
  event.breakpoint_change.condition = condition;
  event.breakpoint_change.client = actor;
  if (any_binary) {
    event.binary_body = rpc::encode_breakpoint_change_body(event.breakpoint_change);
  }
  for (const auto& target : targets) {
    if (target.sink->deliver(event)) breakpoint_changes_->add(1);
  }
}

// ---------------------------------------------------------------------------
// stop delivery
// ---------------------------------------------------------------------------

bool DebugService::stop_relevant(const ClientState& client,
                                 const rpc::StopEvent& event) {
  // Watch stops, step/pause stops, and reverse bottom-outs broadcast; only
  // run-mode inserted hits are condition-routed.
  if (!event.condition_routed || event.frames.empty()) return true;
  bool owns_any = false;
  for (const auto& frame : event.frames) {
    const Location location{frame.filename, frame.line};
    bool owner_here = false;
    for (const auto& [armed, condition] : client.arms) {
      if (armed != location) continue;
      owner_here = true;
      if (condition.empty()) return true;  // unconditional arm: always hit
      if (std::find(frame.matched_conditions.begin(),
                    frame.matched_conditions.end(),
                    condition) != frame.matched_conditions.end()) {
        return true;  // this client's own condition fired
      }
    }
    owns_any |= owner_here;
  }
  // Owners whose conditions all missed are skipped ("each session stops
  // only on its own condition"); pure observers keep the broadcast.
  return !owns_any;
}

DebugService::Command DebugService::deliver_stop(rpc::StopEvent event) {
  if (shutting_down_.load()) return Command::Continue;
  // The stop handshake is the paper's interactive-latency path: broadcast
  // to the relevant sinks, park the sim thread, wake on the first
  // execution command. Span + histogram measure exactly that interval.
  HGDB_TRACE_SPAN("session", "stop_handshake");
  const auto handshake_t0 = std::chrono::steady_clock::now();

  ServiceEvent service_event;
  service_event.kind = ServiceEvent::Kind::Stop;
  service_event.stop = std::move(event);

  // waiting_for_command_ must be visible before any client can answer, so
  // the broadcast happens under command_mutex_ — held without release all
  // the way into the wait, which is what closes the window between a
  // client seeing the event and the handshake being armed.
  common::UniqueLock lock(command_mutex_);
  pending_command_.reset();
  pending_responders_.clear();
  size_t delivered = 0;
  {
    // Snapshot the relevant sinks under clients_mutex_, then deliver with
    // only command_mutex_ + delivery_mutex_ held: a slow or re-entrant
    // sink must not block the client table (and may query the service).
    // delivery_mutex_ keeps every snapshotted sink alive through the loop
    // (unregister_client waits on it) and is released before parking, so
    // a departing client can still resign from the stop.
    common::LockGuard delivery(delivery_mutex_);
    struct Target {
      ClientId id = 0;
      EventSink* sink = nullptr;
      bool engaged = false;
      bool binary = false;
    };
    std::vector<Target> targets;
    bool any_binary = false;
    {
      common::LockGuard clients_lock(clients_mutex_);
      targets.reserve(clients_.size());
      for (auto& [id, client] : clients_) {
        if (client.sink == nullptr) continue;
        if (!stop_relevant(client, service_event.stop)) continue;
        targets.push_back(Target{id, client.sink, client.engaged, client.binary});
        any_binary |= client.binary;
      }
    }
    // Serialize once: every binary subscriber shares this encoding (its
    // sink enqueues a refcount bump, not a render). JSON clients keep the
    // per-client render path inside their sinks.
    if (any_binary) {
      service_event.binary_body = rpc::encode_stop_body(service_event.stop);
    }
    for (const auto& target : targets) {
      if (target.sink->deliver(service_event)) {
        ++delivered;
        // Only engaged clients owe an answer; passive observers receive
        // the event but must not be able to park the simulation.
        if (target.engaged) pending_responders_.insert(target.id);
      }
    }
  }
  if (delivered == 0 || pending_responders_.empty()) {
    return Command::Continue;  // nobody is expected to answer
  }
  stops_broadcast_->add(1);

  waiting_for_command_ = true;
  while (!pending_command_.has_value() && !shutting_down_.load()) {
    command_ready_.wait(lock);
  }
  waiting_for_command_ = false;
  const Command command = pending_command_.value_or(Command::Continue);
  pending_command_.reset();
  pending_responders_.clear();
  // Wake a finish_shutdown() waiting for the sim thread to leave the
  // handshake.
  command_ready_.notify_all();
  stop_handshake_ns_->record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - handshake_t0)
          .count()));
  return command;
}

void DebugService::resign_from_stop(ClientId id) {
  common::LockGuard lock(command_mutex_);
  pending_responders_.erase(id);
  if (waiting_for_command_ && !pending_command_ &&
      pending_responders_.empty()) {
    pending_command_ = Command::Continue;
    command_ready_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// shutdown bracket
// ---------------------------------------------------------------------------

void DebugService::begin_shutdown() {
  shutting_down_.store(true);
  common::LockGuard lock(command_mutex_);
  command_ready_.notify_all();
}

void DebugService::finish_shutdown() {
  {
    // The sim thread may still be parked inside deliver_stop():
    // shutting_down_ satisfies its wake predicate, but it has to actually
    // run and leave the handshake before the shared state is reset —
    // resetting first would swallow its wakeup and park it forever.
    common::UniqueLock lock(command_mutex_);
    command_ready_.notify_all();
    while (waiting_for_command_) command_ready_.wait(lock);
    pending_command_.reset();
    pending_responders_.clear();
  }
  {
    // delivery_mutex_ too: a value-change delivery racing the shutdown
    // must fully drain before the client table (and the sinks' owners)
    // are torn down.
    common::LockGuard delivery(delivery_mutex_);
    common::LockGuard lock(clients_mutex_);
    for (auto& [id, client] : clients_) {
      release_client_state_locked(client);
    }
    clients_.clear();
    subscriptions_.clear();
  }
  shutting_down_.store(false);  // service is reusable
}

}  // namespace hgdb::session
