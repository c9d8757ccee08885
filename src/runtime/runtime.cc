#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "session/session_manager.h"

namespace hgdb::runtime {

using common::BitVector;
using rpc::Frame;
using rpc::StopEvent;

namespace {

/// Renders a value the way the IDE variable pane shows it.
std::string render(const BitVector& value) { return value.to_string(10); }

uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Runtime::Runtime(vpi::SimulatorInterface& interface,
                 const symbols::SymbolTable& table, RuntimeOptions options)
    : interface_(&interface), table_(&table), options_(options) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    metrics_owned_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = metrics_owned_.get();
  }
  // Resolve every hot-path counter once; after this the per-edge cost is a
  // relaxed fetch_add, identical to the pre-registry AtomicStats.
  stats_.clock_edges = &metrics_->counter("runtime.clock_edges");
  stats_.fast_path_exits = &metrics_->counter("runtime.fast_path_exits");
  stats_.batches_evaluated = &metrics_->counter("runtime.batches_evaluated");
  stats_.conditions_evaluated =
      &metrics_->counter("runtime.conditions_evaluated");
  stats_.watchpoints_evaluated =
      &metrics_->counter("runtime.watchpoints_evaluated");
  stats_.stops = &metrics_->counter("runtime.stops");
  stats_.eval_ns = &metrics_->counter("runtime.eval_ns");
  stats_.dirty_skips = &metrics_->counter("runtime.dirty_skips");
  stats_.batch_fetches = &metrics_->counter("runtime.batch_fetches");
  stats_.batch_signals = &metrics_->counter("runtime.batch_signals");
  stats_.programs_compiled = &metrics_->counter("runtime.programs_compiled");
  stats_.program_cache_hits =
      &metrics_->counter("runtime.program_cache_hits");
  stats_.batch_eval_ns = &metrics_->histogram("runtime.batch_eval_ns");
}

Runtime::~Runtime() {
  stop_service();
  detach();
}

// ---------------------------------------------------------------------------
// attach / detach
// ---------------------------------------------------------------------------

void Runtime::attach() {
  if (callback_handle_) return;

  // Precompute the absolute breakpoint ordering (Fig. 2: "Before the
  // simulation starts, we compute the absolute ordering of every potential
  // breakpoint based on the symbol table").
  breakpoints_.clear();
  batches_.clear();
  by_id_.clear();
  instance_names_.clear();

  for (const auto& instance : table_->instances()) {
    instance_names_[instance.id] = instance.name;
  }

  const auto rows = table_->all_breakpoints();
  breakpoints_.reserve(rows.size());
  for (const auto& row : rows) {
    Breakpoint bp;
    bp.row = row;
    if (!row.enable.empty()) bp.enable = Expression::parse(row.enable);
    auto name_it = instance_names_.find(row.instance_id);
    bp.instance_name =
        name_it != instance_names_.end() ? name_it->second : std::string{};
    by_id_[row.id] = breakpoints_.size();
    breakpoints_.push_back(std::move(bp));
  }
  for (size_t i = 0; i < breakpoints_.size(); ++i) {
    const auto& row = breakpoints_[i].row;
    if (batches_.empty() || batches_.back().filename != row.filename ||
        batches_.back().line != row.line_num ||
        batches_.back().column != row.column_num) {
      batches_.push_back(Batch{row.filename, row.line_num, row.column_num, {}});
    }
    batches_.back().members.push_back(i);
  }

  // Locate the generated design inside the simulated hierarchy (Sec. 3.4).
  std::string symbol_root;
  for (const auto& [id, name] : instance_names_) {
    if (symbol_root.empty() || name.size() < symbol_root.size()) {
      symbol_root = name;
    }
  }
  std::vector<std::string> symbol_names;
  for (const auto& [id, name] : instance_names_) {
    for (const auto& variable : table_->generator_variables(id)) {
      if (!variable.is_rtl) continue;
      symbol_names.push_back(name + "." + variable.value);
      if (symbol_names.size() >= 64) break;
    }
    if (symbol_names.size() >= 64) break;
  }
  mapper_.emplace(interface_->signal_names(), symbol_names, symbol_root);

  {
    // Arm time for every symbol-table enable condition: compile and
    // slot-resolve them once, so the per-edge path never sees a string.
    common::LockGuard lock(state_mutex_);
    rebuild_plan_locked();
  }

  callback_handle_ = interface_->add_clock_callback(
      [this](vpi::ClockEdge edge, uint64_t time) { on_clock_edge(edge, time); });
}

void Runtime::detach() {
  if (!callback_handle_) return;
  interface_->remove_clock_callback(*callback_handle_);
  callback_handle_.reset();
}

// ---------------------------------------------------------------------------
// breakpoints
// ---------------------------------------------------------------------------

std::vector<int64_t> Runtime::add_breakpoint(const std::string& filename,
                                             uint32_t line,
                                             const std::string& condition) {
  std::optional<Expression> parsed;
  if (!condition.empty()) parsed = Expression::parse(condition);

  common::LockGuard lock(state_mutex_);
  if (parsed) {
    // Arm-time symbol validation: an unknown name in a user condition is a
    // typed error now, not a silent never-fires (or a throw from inside
    // the scheduler) later. Checked for every matching instance before any
    // state changes so a failure arms nothing.
    for (auto& bp : breakpoints_) {
      if (bp.row.filename != filename || bp.row.line_num != line) continue;
      for (const auto& name : parsed->names()) {
        if (!resolve_binding(&bp, bp.row.instance_id, bp.instance_name, name,
                             nullptr)) {
          throw std::out_of_range("cannot resolve symbol '" + name +
                                  "' in condition for " + filename + ":" +
                                  std::to_string(line) + " (instance '" +
                                  bp.instance_name + "')");
        }
      }
    }
  }
  std::vector<int64_t> inserted;
  for (auto& bp : breakpoints_) {
    if (bp.row.filename != filename || bp.row.line_num != line) continue;
    if (parsed) {
      // One refcounted arm per distinct condition text: two sessions with
      // different conditions on the same location coexist, and each hit
      // records which conditions matched (stop routing).
      auto it = std::find_if(bp.conditions.begin(), bp.conditions.end(),
                             [&](const CondArm& arm) {
                               return arm.text == condition;
                             });
      if (it == bp.conditions.end()) {
        CondArm arm;
        arm.text = condition;
        arm.refs = 1;
        arm.expr = Expression::parse(condition);
        bp.conditions.push_back(std::move(arm));
      } else {
        ++it->refs;
      }
    } else {
      ++bp.uncond_refs;
    }
    bp.inserted = true;
    inserted.push_back(bp.row.id);
  }
  if (!inserted.empty()) {
    any_inserted_.store(true, std::memory_order_release);
    rebuild_plan_locked();
  }
  return inserted;
}

size_t Runtime::release_breakpoint(const std::string& filename, uint32_t line,
                                   const std::string& condition) {
  common::LockGuard lock(state_mutex_);
  size_t died = 0;
  bool any = false;
  bool changed = false;
  for (auto& bp : breakpoints_) {
    if (bp.row.filename == filename && bp.row.line_num == line &&
        bp.inserted) {
      if (condition.empty()) {
        if (bp.uncond_refs > 0) {
          --bp.uncond_refs;
          changed = true;
        }
      } else {
        auto it = std::find_if(bp.conditions.begin(), bp.conditions.end(),
                               [&](const CondArm& arm) {
                                 return arm.text == condition;
                               });
        if (it != bp.conditions.end() && --it->refs <= 0) {
          bp.conditions.erase(it);
          changed = true;
        }
      }
      const bool still = bp.uncond_refs > 0 || !bp.conditions.empty();
      if (!still) {
        bp.inserted = false;
        ++died;
      }
    }
    any |= bp.inserted;
  }
  any_inserted_.store(any, std::memory_order_release);
  if (changed || died != 0) rebuild_plan_locked();
  return died;
}

size_t Runtime::remove_breakpoint(const std::string& filename, uint32_t line) {
  common::LockGuard lock(state_mutex_);
  size_t removed = 0;
  bool any = false;
  for (auto& bp : breakpoints_) {
    if (bp.row.filename == filename &&
        (line == 0 || bp.row.line_num == line)) {
      if (bp.inserted) ++removed;
      bp.inserted = false;
      bp.uncond_refs = 0;
      bp.conditions.clear();
    }
    any |= bp.inserted;
  }
  any_inserted_.store(any, std::memory_order_release);
  if (removed != 0) rebuild_plan_locked();
  return removed;
}

void Runtime::clear_breakpoints() {
  common::LockGuard lock(state_mutex_);
  for (auto& bp : breakpoints_) {
    bp.inserted = false;
    bp.uncond_refs = 0;
    bp.conditions.clear();
  }
  any_inserted_.store(false, std::memory_order_release);
  rebuild_plan_locked();
}

size_t Runtime::inserted_count() const {
  common::LockGuard lock(state_mutex_);
  return static_cast<size_t>(
      std::count_if(breakpoints_.begin(), breakpoints_.end(),
                    [](const Breakpoint& bp) { return bp.inserted; }));
}

std::vector<Runtime::InsertedBreakpoint> Runtime::inserted_breakpoints() const {
  common::LockGuard lock(state_mutex_);
  std::vector<InsertedBreakpoint> out;
  for (const auto& bp : breakpoints_) {
    if (!bp.inserted) continue;
    out.push_back(InsertedBreakpoint{bp.row.id, bp.row.filename,
                                     bp.row.line_num, bp.instance_name});
  }
  return out;
}

// ---------------------------------------------------------------------------
// watchpoints
// ---------------------------------------------------------------------------

int64_t Runtime::add_watchpoint(const std::string& expression,
                                const std::string& instance_name) {
  Expression parsed = Expression::parse(expression);  // std::invalid_argument

  const auto instance = resolve_instance(instance_name);
  if (!instance) {
    throw std::out_of_range("unknown instance '" + instance_name + "'");
  }
  const auto& [instance_id, name] = *instance;

  Watchpoint wp{0, expression, std::move(parsed), instance_id, name,
                std::nullopt};
  // Everything below runs under state_mutex_: arm-time resolution talks to
  // the backend's handle table, which the simulation thread reads through
  // get_values() while evaluating batches.
  common::LockGuard lock(state_mutex_);
  // Arm-time symbol validation, same contract as conditional breakpoints:
  // unknown names are a typed error at arm time, never a scheduler throw.
  for (const auto& symbol : wp.expr.names()) {
    if (!resolve_binding(nullptr, instance_id, name, symbol, nullptr)) {
      throw std::out_of_range("cannot resolve symbol '" + symbol +
                              "' in watch expression (instance '" + name +
                              "')");
    }
  }
  // Baseline: the current value, so the watch fires on the next change
  // rather than immediately. Expressions that fault now (e.g. a bad bit
  // slice) baseline on the first successful evaluation instead.
  try {
    wp.last = wp.expr.evaluate(instance_resolver(instance_id, name));
  } catch (const std::exception&) {
  }

  wp.id = next_watch_id_++;
  const int64_t id = wp.id;
  watchpoints_.push_back(std::move(wp));
  any_watch_.store(true, std::memory_order_release);
  rebuild_plan_locked();
  return id;
}

bool Runtime::remove_watchpoint(int64_t id) {
  common::LockGuard lock(state_mutex_);
  const size_t before = watchpoints_.size();
  watchpoints_.erase(
      std::remove_if(watchpoints_.begin(), watchpoints_.end(),
                     [id](const Watchpoint& wp) { return wp.id == id; }),
      watchpoints_.end());
  any_watch_.store(!watchpoints_.empty(), std::memory_order_release);
  if (watchpoints_.size() != before) rebuild_plan_locked();
  return watchpoints_.size() != before;
}

size_t Runtime::watchpoint_count() const {
  common::LockGuard lock(state_mutex_);
  return watchpoints_.size();
}

void Runtime::collect_watch_hits(std::vector<rpc::WatchHit>& hits) {
  common::LockGuard lock(state_mutex_);
  if (watchpoints_.empty()) return;
  // Timestamp only when stats are on: clock reads are not free on the
  // per-edge path the Fig. 5 overhead budget protects.
  const auto t0 = options_.collect_stats
                      ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};

  const bool compiled = options_.compiled_eval;
  if (compiled) ensure_edge_values_locked();

  // In compiled mode a watchpoint none of whose input signals changed
  // since its last evaluation is skipped outright — its value cannot have
  // changed, so it cannot fire.
  EvalCounts counts;
  for (auto& wp : watchpoints_) {
    std::optional<BitVector> current;
    if (compiled && wp.compiled) {
      if (wp.eval_serial != 0 && deps_serial(wp.dep_slots) <= wp.eval_serial) {
        ++counts.skipped;
        continue;
      }
      const BitVector* value = eval_predicate_value(*wp.compiled, plan_);
      if (value != nullptr) current = *value;
      wp.eval_serial = plan_.serial;
    } else {
      try {
        current = wp.expr.evaluate(
            instance_resolver(wp.instance_id, wp.instance_name));
      } catch (const std::exception&) {
        // Unresolvable this edge: no value, so no change is reported.
      }
    }
    ++counts.evaluated;
    if (!current) continue;
    if (wp.last && *wp.last != *current) {
      hits.push_back(
          rpc::WatchHit{wp.id, wp.text, render(*wp.last), render(*current)});
    }
    wp.last = std::move(current);
  }
  stats_.watchpoints_evaluated->add(counts.evaluated);
  stats_.dirty_skips->add(counts.skipped);
  if (counts.skipped != 0) {
    HGDB_TRACE_INSTANT("runtime", "dirty_skips", counts.skipped);
  }
  if (options_.collect_stats) {
    const uint64_t elapsed = elapsed_ns(t0);
    stats_.eval_ns->add(elapsed);
    stats_.batch_eval_ns->record(elapsed);
  }
}

void Runtime::set_stop_handler(StopHandler handler) {
  StopHandler retired;
  {
    common::LockGuard lock(handler_mutex_);
    retired = std::move(stop_handler_);
    stop_handler_ = std::move(handler);
  }
  // `retired` (and everything it captured) dies here, outside
  // handler_mutex_: a handler owning resources whose teardown re-enters
  // the runtime must not deadlock against the slot lock.
}

// ---------------------------------------------------------------------------
// value-change subscriptions (push event streams)
// ---------------------------------------------------------------------------

void Runtime::set_change_listener(ChangeListener listener) {
  ChangeListener retired;
  {
    common::LockGuard lock(listener_mutex_);
    retired = std::move(change_listener_);
    change_listener_ = std::move(listener);
  }
  // As in set_stop_handler: the replaced listener's destructor runs with
  // listener_mutex_ released, so a capture that re-enters the runtime
  // (DebugService resetting the listener in its own teardown) is safe.
}

int64_t Runtime::add_signal_subscription(const std::vector<std::string>& names,
                                         const std::string& instance_name) {
  if (names.empty()) {
    throw std::invalid_argument("subscription needs at least one signal");
  }
  const auto instance = resolve_instance(instance_name);
  if (!instance) {
    throw std::out_of_range("unknown instance '" + instance_name + "'");
  }
  Subscription sub;
  sub.names = names;
  sub.instance_id = instance->first;
  sub.instance_name = instance->second;

  common::LockGuard lock(state_mutex_);
  // Arm-time validation, same contract as conditions/watches: an unknown
  // name is a typed error now, never a silent dead stream.
  for (const auto& name : sub.names) {
    if (!resolve_binding(nullptr, sub.instance_id, sub.instance_name, name,
                         nullptr)) {
      throw std::out_of_range("cannot resolve signal '" + name +
                              "' (instance '" + sub.instance_name + "')");
    }
  }
  sub.id = next_subscription_id_++;
  const int64_t id = sub.id;
  subscriptions_.push_back(std::move(sub));
  any_subs_.store(true, std::memory_order_release);
  rebuild_plan_locked();
  return id;
}

bool Runtime::remove_signal_subscription(int64_t id) {
  common::LockGuard lock(state_mutex_);
  const size_t before = subscriptions_.size();
  subscriptions_.erase(
      std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                     [id](const Subscription& sub) { return sub.id == id; }),
      subscriptions_.end());
  any_subs_.store(!subscriptions_.empty(), std::memory_order_release);
  if (subscriptions_.size() != before) rebuild_plan_locked();
  return subscriptions_.size() != before;
}

size_t Runtime::subscription_count() const {
  common::LockGuard lock(state_mutex_);
  return subscriptions_.size();
}

void Runtime::emit_subscription_events(uint64_t time) {
  // Collect under the state lock, deliver outside it: the listener sends
  // on client transports and may call back into the runtime.
  struct Pending {
    int64_t id;
    std::vector<SignalChange> changes;
  };
  std::vector<Pending> pending;
  {
    common::LockGuard lock(state_mutex_);
    if (subscriptions_.empty()) return;
    ensure_edge_values_locked();
    for (auto& sub : subscriptions_) {
      std::vector<SignalChange> changes;
      sub.last_values.resize(sub.names.size());
      for (size_t i = 0; i < sub.names.size(); ++i) {
        const int32_t slot = sub.slots.empty() ? -1 : sub.slots[i];
        if (slot < 0) {
          // Constant-folded symbol: the snapshot contract still holds —
          // its (only) value is emitted once, then the entry stays silent.
          if (!sub.last_values[i] && i < sub.constants.size() &&
              sub.constants[i]) {
            sub.last_values[i] = sub.constants[i];
            changes.push_back(SignalChange{sub.names[i], *sub.constants[i]});
          }
          continue;
        }
        const auto index = static_cast<size_t>(slot);
        if (plan_.present[index] == 0) continue;
        if (plan_.change_serial[index] <= sub.last_serial) continue;
        // The serial gate is the cheap filter; the value compare makes it
        // exact across plan rebuilds (which reset the serials): only a
        // signal whose value actually differs from the last report — or
        // was never reported (the initial snapshot) — is emitted.
        if (sub.last_values[i] &&
            *sub.last_values[i] == plan_.values[index]) {
          continue;
        }
        sub.last_values[i] = plan_.values[index];
        changes.push_back(SignalChange{sub.names[i], plan_.values[index]});
      }
      sub.last_serial = plan_.serial;
      if (!changes.empty()) {
        pending.push_back(Pending{sub.id, std::move(changes)});
      }
    }
  }
  if (pending.empty()) return;
  ChangeListener listener;
  {
    common::LockGuard lock(listener_mutex_);
    listener = change_listener_;
  }
  if (!listener) return;
  for (auto& entry : pending) {
    listener(entry.id, time, entry.changes);
  }
}

// ---------------------------------------------------------------------------
// name resolution
// ---------------------------------------------------------------------------

std::string Runtime::to_design_name(const std::string& symbol_name) const {
  if (mapper_ && mapper_->valid()) return mapper_->to_design(symbol_name);
  return symbol_name;
}

Expression::Resolver Runtime::breakpoint_resolver(const Breakpoint& bp) const {
  return [this, &bp](const std::string& name) -> std::optional<BitVector> {
    // 1. frame locals (scope variables)
    if (auto variable = table_->resolve_scope_variable(bp.row.id, name)) {
      if (!variable->is_rtl) {
        return BitVector::from_string(variable->value);
      }
      return interface_->get_value(
          to_design_name(bp.instance_name + "." + variable->value));
    }
    // 2. generator (instance) variables
    if (auto variable =
            table_->resolve_generator_variable(bp.row.instance_id, name)) {
      if (!variable->is_rtl) return BitVector::from_string(variable->value);
      return interface_->get_value(
          to_design_name(bp.instance_name + "." + variable->value));
    }
    // 3. instance-relative RTL name (this is how SSA enable conditions
    //    resolve: they are written over instance-relative node names)
    if (auto value = interface_->get_value(
            to_design_name(bp.instance_name + "." + name))) {
      return value;
    }
    // 4. absolute hierarchical name
    return interface_->get_value(name);
  };
}

std::optional<std::pair<int64_t, std::string>> Runtime::resolve_instance(
    const std::string& name) const {
  if (name.empty()) {
    // Top instance: the shortest name.
    int64_t top_id = 0;
    std::string top_name;
    for (const auto& [id, instance] : instance_names_) {
      if (top_name.empty() || instance.size() < top_name.size()) {
        top_name = instance;
        top_id = id;
      }
    }
    return std::make_pair(top_id, top_name);
  }
  if (auto row = table_->instance_by_name(name)) {
    return std::make_pair(row->id, name);
  }
  return std::nullopt;
}

Expression::Resolver Runtime::instance_resolver(
    int64_t instance_id, const std::string& instance_name) const {
  return [this, instance_id,
          instance_name](const std::string& name) -> std::optional<BitVector> {
    if (auto variable =
            table_->resolve_generator_variable(instance_id, name)) {
      if (!variable->is_rtl) return BitVector::from_string(variable->value);
      return interface_->get_value(
          to_design_name(instance_name + "." + variable->value));
    }
    if (auto value = interface_->get_value(
            to_design_name(instance_name + "." + name))) {
      return value;
    }
    return interface_->get_value(name);
  };
}

// ---------------------------------------------------------------------------
// compiled evaluation pipeline (parse -> compile -> slot resolution ->
// batched fetch -> change-driven evaluation)
// ---------------------------------------------------------------------------

std::optional<Runtime::SlotBinding> Runtime::resolve_binding(
    const Breakpoint* scope_bp, int64_t instance_id,
    const std::string& instance_name, const std::string& name,
    EvalPlan* plan) {
  // A design signal becomes a plan slot (deduplicated by design name).
  // With plan == nullptr only resolvability is checked.
  auto design_slot = [&](const std::string& design_name)
      -> std::optional<SlotBinding> {
    auto handle = interface_->lookup_signal(design_name);
    if (!handle) return std::nullopt;
    SlotBinding binding;
    if (plan != nullptr) {
      auto [it, inserted] = plan->index.try_emplace(
          design_name, static_cast<uint32_t>(plan->names.size()));
      if (inserted) {
        plan->names.push_back(design_name);
        plan->handles.push_back(*handle);
        plan->values.emplace_back();
        plan->present.push_back(0);
        plan->change_serial.push_back(0);
      }
      binding.plan_slot = static_cast<int32_t>(it->second);
    } else {
      binding.plan_slot = 0;  // placeholder: existence is all that matters
    }
    return binding;
  };
  // Non-RTL symbol-table variables are static strings: they fold to
  // constants at arm time.
  auto constant_of =
      [](const std::string& text) -> std::optional<SlotBinding> {
    try {
      SlotBinding binding;
      binding.is_constant = true;
      binding.constant = BitVector::from_string(text);
      return binding;
    } catch (const std::exception&) {
      return std::nullopt;  // malformed table entry: unresolvable
    }
  };

  // Resolution order mirrors the interpreted resolvers exactly:
  // 1. frame locals (breakpoint scope only)
  if (scope_bp != nullptr) {
    if (auto variable =
            table_->resolve_scope_variable(scope_bp->row.id, name)) {
      if (!variable->is_rtl) return constant_of(variable->value);
      return design_slot(
          to_design_name(instance_name + "." + variable->value));
    }
  }
  // 2. generator (instance) variables
  if (auto variable = table_->resolve_generator_variable(instance_id, name)) {
    if (!variable->is_rtl) return constant_of(variable->value);
    return design_slot(to_design_name(instance_name + "." + variable->value));
  }
  // 3. instance-relative RTL name
  if (auto binding = design_slot(to_design_name(instance_name + "." + name))) {
    return binding;
  }
  // 4. absolute hierarchical name
  return design_slot(name);
}

std::shared_ptr<const CompiledExpression> Runtime::compile_shared(
    const Expression& expr, bool persist) {
  // CSE across arms: N instances (or N sessions) arming the same condition
  // share one flat program; only the slot maps are per-instance. The key
  // is the normalized AST, so "a&&b" and "a && b" unify too. Only armed
  // predicates persist: caching throwaway one-off evaluations would let a
  // long-lived debug server grow the map without bound.
  std::string key = expr.cache_key();
  auto it = program_cache_.find(key);
  if (it != program_cache_.end()) {
    if (options_.collect_stats) {
      stats_.program_cache_hits->add(1);
    }
    return it->second;
  }
  auto program = std::make_shared<const CompiledExpression>(expr.compile());
  if (options_.collect_stats) {
    stats_.programs_compiled->add(1);
  }
  if (persist) program_cache_.emplace(std::move(key), program);
  return program;
}

Runtime::CompiledPredicate Runtime::bind_predicate(
    const Expression& expr, const Breakpoint* scope_bp, int64_t instance_id,
    const std::string& instance_name, EvalPlan* plan,
    std::vector<uint32_t>* deps, bool require_resolved, bool persist_program) {
  CompiledPredicate predicate;
  predicate.expr = compile_shared(expr, persist_program);
  const auto& symbols = predicate.expr->symbols();
  predicate.bindings.reserve(symbols.size());
  for (const auto& symbol : symbols) {
    auto binding =
        resolve_binding(scope_bp, instance_id, instance_name, symbol, plan);
    if (!binding) {
      if (require_resolved) {
        throw std::out_of_range("cannot resolve symbol '" + symbol + "'");
      }
      predicate.poisoned = true;
      predicate.bindings.emplace_back();
      continue;
    }
    if (!binding->is_constant && deps != nullptr) {
      deps->push_back(static_cast<uint32_t>(binding->plan_slot));
    }
    predicate.bindings.push_back(std::move(*binding));
  }
  predicate.ptrs.resize(predicate.bindings.size());
  return predicate;
}

void Runtime::rebuild_plan_locked() {
  plan_ = EvalPlan{};
  for (auto& bp : breakpoints_) {
    bp.compiled_enable.reset();
    bp.dep_slots.clear();
    bp.eval_serial = 0;
    bp.cached = 0;
    for (auto& arm : bp.conditions) {
      arm.compiled.reset();
      arm.cached = 0;
    }
    if (!options_.compiled_eval) continue;
    if (bp.enable) {
      // Enables come from the symbol table; one referencing an
      // optimized-away signal poisons the predicate (never hits), exactly
      // like the interpreted resolver's unresolved-name exception did.
      bp.compiled_enable =
          bind_predicate(*bp.enable, &bp, bp.row.instance_id,
                         bp.instance_name, &plan_, &bp.dep_slots, false);
    }
    if (bp.inserted) {
      for (auto& arm : bp.conditions) {
        arm.compiled =
            bind_predicate(*arm.expr, &bp, bp.row.instance_id,
                           bp.instance_name, &plan_, &bp.dep_slots, false);
      }
    }
    std::sort(bp.dep_slots.begin(), bp.dep_slots.end());
    bp.dep_slots.erase(std::unique(bp.dep_slots.begin(), bp.dep_slots.end()),
                       bp.dep_slots.end());
  }
  for (auto& wp : watchpoints_) {
    wp.compiled.reset();
    wp.dep_slots.clear();
    wp.eval_serial = 0;
    if (!options_.compiled_eval) continue;
    wp.compiled = bind_predicate(wp.expr, nullptr, wp.instance_id,
                                 wp.instance_name, &plan_, &wp.dep_slots,
                                 false);
    std::sort(wp.dep_slots.begin(), wp.dep_slots.end());
    wp.dep_slots.erase(std::unique(wp.dep_slots.begin(), wp.dep_slots.end()),
                       wp.dep_slots.end());
  }
  // Subscribed signals join the same plan (and the same batched fetch) in
  // either evaluation mode; their change events ride the plan serials.
  for (auto& sub : subscriptions_) {
    sub.slots.assign(sub.names.size(), -1);
    sub.constants.assign(sub.names.size(), std::nullopt);
    for (size_t i = 0; i < sub.names.size(); ++i) {
      auto binding = resolve_binding(nullptr, sub.instance_id,
                                     sub.instance_name, sub.names[i], &plan_);
      if (!binding) continue;
      if (binding->is_constant) {
        sub.constants[i] = binding->constant;
      } else {
        sub.slots[i] = binding->plan_slot;
      }
    }
    sub.last_serial = 0;  // next edge re-checks against last_values
  }
  // Drop programs no live predicate references (use_count 1 = only the
  // cache holds it): arm/disarm churn on a long-lived server must not
  // grow the cache monotonically. Everything above rebound first, so
  // shared programs still in use survive the sweep.
  for (auto it = program_cache_.begin(); it != program_cache_.end();) {
    it = it->second.use_count() == 1 ? program_cache_.erase(it)
                                     : std::next(it);
  }
  values_stale_ = true;
}

void Runtime::ensure_edge_values_locked() {
  if (edge_values_fresh_ && !values_stale_) return;
  const size_t count = plan_.handles.size();
  ++plan_.serial;  // even an empty fetch round advances the cache epoch
  if (count != 0) {
    HGDB_TRACE_SPAN_VAR(fetch_span, "runtime", "batch_fetch");
    fetch_span.set_arg(count);
    // Zero-copy fast path: backends with stable storage (the native
    // simulator's value array) hand back pointers; unchanged signals are
    // compared in place and copied never, changed ones copy-assign into
    // the plan (reusing capacity). The copying get_values() path remains
    // for backends that must marshal (replay seeks, RPC).
    plan_.views.resize(count);
    if (interface_->get_value_views(plan_.handles.data(), count,
                                    plan_.views.data())) {
      for (size_t i = 0; i < count; ++i) {
        const bool was_present = plan_.present[i] != 0;
        const bool now_present = plan_.views[i] != nullptr;
        if (was_present != now_present ||
            (now_present && plan_.values[i] != *plan_.views[i])) {
          plan_.change_serial[i] = plan_.serial;
          plan_.present[i] = now_present ? 1 : 0;
          if (now_present) plan_.values[i] = *plan_.views[i];
        }
      }
    } else {
      plan_.incoming.resize(count);
      plan_.incoming_present.assign(count, 0);
      interface_->get_values(plan_.handles.data(), count, plan_.incoming.data(),
                             plan_.incoming_present.data());
      for (size_t i = 0; i < count; ++i) {
        const bool was_present = plan_.present[i] != 0;
        const bool now_present = plan_.incoming_present[i] != 0;
        if (was_present != now_present ||
            (now_present && plan_.values[i] != plan_.incoming[i])) {
          plan_.change_serial[i] = plan_.serial;
          plan_.present[i] = plan_.incoming_present[i];
          if (now_present) std::swap(plan_.values[i], plan_.incoming[i]);
        }
      }
    }
    if (options_.collect_stats) {
      stats_.batch_fetches->add(1);
      stats_.batch_signals->add(count);
    }
  }
  edge_values_fresh_ = true;
  values_stale_ = false;
}

const BitVector* Runtime::eval_predicate_value(CompiledPredicate& predicate,
                                               const EvalPlan& plan) {
  if (predicate.poisoned) return nullptr;
  for (size_t i = 0; i < predicate.bindings.size(); ++i) {
    const SlotBinding& binding = predicate.bindings[i];
    if (binding.is_constant) {
      predicate.ptrs[i] = &binding.constant;
    } else {
      const auto slot = static_cast<size_t>(binding.plan_slot);
      predicate.ptrs[i] =
          plan.present[slot] != 0 ? &plan.values[slot] : nullptr;
    }
  }
  return predicate.expr->evaluate(predicate.ptrs.data(), predicate.scratch);
}

int Runtime::eval_predicate(CompiledPredicate& predicate,
                            const EvalPlan& plan) {
  const BitVector* value = eval_predicate_value(predicate, plan);
  if (value == nullptr) return -1;
  return value->to_bool() ? 1 : 0;
}

uint64_t Runtime::deps_serial(const std::vector<uint32_t>& deps) const {
  uint64_t serial = 0;
  for (uint32_t slot : deps) {
    serial = std::max(serial, plan_.change_serial[slot]);
  }
  return serial;
}

std::optional<BitVector> Runtime::evaluate_compiled(
    const Expression& parsed, const Breakpoint* scope_bp, int64_t instance_id,
    const std::string& instance_name) {
  // One-off evaluation (protocol `evaluate`/`evaluate-batch`): same
  // compile + slot-resolve + fetch pipeline as the scheduler, against a
  // throwaway plan.
  EvalPlan local;
  CompiledPredicate predicate;
  try {
    predicate = bind_predicate(parsed, scope_bp, instance_id, instance_name,
                               &local, nullptr, true,
                               /*persist_program=*/false);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const size_t count = local.handles.size();
  if (count != 0) {
    interface_->get_values(local.handles.data(), count, local.values.data(),
                           local.present.data());
  }
  const BitVector* value = eval_predicate_value(predicate, local);
  if (value == nullptr) return std::nullopt;
  return *value;
}

// ---------------------------------------------------------------------------
// scheduler (Fig. 2)
// ---------------------------------------------------------------------------

void Runtime::on_clock_edge(vpi::ClockEdge edge, uint64_t time) {
  // All values are stable at both edges under zero-delay simulation; one
  // pass per cycle at the rising edge is sufficient (Sec. 3).
  if (edge != vpi::ClockEdge::Rising) return;
  stats_.clock_edges->add(1);

  // Fast path first: nothing inserted, nothing watched, nothing
  // subscribed, no pause requested, plain run mode. This branch is the
  // entire per-cycle cost the paper measures in Fig. 5, so it is lock- and
  // allocation-free.
  if (mode_.load(std::memory_order_acquire) == Mode::Run &&
      !any_inserted_.load(std::memory_order_acquire) &&
      !any_watch_.load(std::memory_order_acquire) &&
      !any_subs_.load(std::memory_order_acquire) &&
      !pause_pending_.load(std::memory_order_acquire)) {
    stats_.fast_path_exits->add(1);
    return;
  }

  // Everything below is the non-fast-path edge work (Fig. 2 steps 1-4);
  // one span brackets the whole dispatch when tracing is on.
  HGDB_TRACE_SPAN("runtime", "edge_dispatch");

  if (pause_pending_.exchange(false)) {
    common::LockGuard lock(state_mutex_);
    mode_ = Mode::Step;
  }

  {
    // A new edge invalidates the previous edge's fetched values; the first
    // batch (or watchpoint sweep) that needs them re-fetches once.
    common::LockGuard lock(state_mutex_);
    edge_values_fresh_ = false;
  }

  // Subscribed value-change streams push before anything can stop the
  // cycle (forward execution only, like watchpoints): the events ride the
  // same batched fetch the condition pipeline is about to reuse.
  {
    const Mode current = mode_.load(std::memory_order_acquire);
    if (current != Mode::ReverseStep && current != Mode::ReverseContinue &&
        any_subs_.load(std::memory_order_acquire)) {
      emit_subscription_events(time);
    }
  }

  // Watchpoints fire before the batch scan (forward execution only: a
  // reverse traversal re-visits old values and would re-trigger them).
  {
    const Mode current = mode_.load(std::memory_order_acquire);
    if (current != Mode::ReverseStep && current != Mode::ReverseContinue &&
        any_watch_.load(std::memory_order_acquire)) {
      std::vector<rpc::WatchHit> watch_hits;
      collect_watch_hits(watch_hits);
      if (!watch_hits.empty()) {
        StopEvent event;
        event.time = time;
        event.watch_hits = std::move(watch_hits);
        stats_.stops->add(1);
        const Command command = deliver_stop(std::move(event));
        common::LockGuard lock(state_mutex_);
        switch (command) {
          case Command::Continue:
            mode_ = Mode::Run;
            break;
          case Command::Pause:
          case Command::StepOver:
          case Command::StepBack:
          case Command::ReverseContinue:
            // Reverse from a watch stop degrades to a forward step (watch
            // stops only exist on the forward path).
            mode_ = Mode::Step;
            break;
          case Command::Jump:
            // Handled by the session layer via set_time before resuming.
            mode_ = Mode::Step;
            return;
          case Command::Detach:
            mode_ = Mode::Run;
            return;
        }
      }
    }
  }

  Mode mode;
  bool reverse_entry;
  {
    common::LockGuard lock(state_mutex_);
    mode = mode_;
    reverse_entry = reverse_entry_;
    reverse_entry_ = false;
  }

  // Run mode with no inserted breakpoints can only have been reached for
  // watchpoints or subscriptions — both already handled. Skip the batch
  // scan outright: subscribed-only edges cost one batched fetch, nothing
  // more.
  if (mode == Mode::Run && !any_inserted_.load(std::memory_order_acquire)) {
    return;
  }

  bool reverse = mode == Mode::ReverseStep || mode == Mode::ReverseContinue;
  if (reverse && !reverse_entry) {
    // A reverse command always enters a cycle through time travel; if we
    // land here (e.g. rewind unsupported), degrade to forward stepping.
    reverse = false;
    common::LockGuard lock(state_mutex_);
    mode_ = mode = Mode::Step;
  }

  int64_t index = reverse ? static_cast<int64_t>(batches_.size()) - 1 : 0;
  std::vector<size_t> hits;
  while (index >= 0 && index < static_cast<int64_t>(batches_.size())) {
    mode = mode_.load(std::memory_order_acquire);
    const bool respect_inserted =
        mode == Mode::Run || mode == Mode::ReverseContinue;
    hits.clear();
    evaluate_batch(batches_[static_cast<size_t>(index)], respect_inserted, hits);
    if (hits.empty()) {
      index += reverse ? -1 : 1;
      continue;
    }

    StopEvent stop = make_stop_event(time, hits);
    // Inserted-breakpoint hits evaluated their condition arms: the session
    // layer may route the stop by matched condition. Step stops broadcast.
    stop.condition_routed = respect_inserted;
    const Command command = deliver_stop(std::move(stop));
    common::LockGuard lock(state_mutex_);
    switch (command) {
      case Command::Continue:
        mode_ = Mode::Run;
        reverse = false;
        ++index;
        break;
      case Command::Pause:
      case Command::StepOver:
        mode_ = Mode::Step;
        reverse = false;
        ++index;
        break;
      case Command::StepBack:
        mode_ = Mode::ReverseStep;
        reverse = true;
        --index;
        break;
      case Command::ReverseContinue:
        mode_ = Mode::ReverseContinue;
        reverse = true;
        --index;
        break;
      case Command::Jump:
        // Handled by the session layer via set_time before resuming.
        mode_ = Mode::Step;
        return;
      case Command::Detach:
        for (auto& bp : breakpoints_) {
          bp.inserted = false;
          bp.uncond_refs = 0;
          bp.conditions.clear();
        }
        any_inserted_.store(false, std::memory_order_release);
        rebuild_plan_locked();
        mode_ = Mode::Run;
        return;
    }
  }

  if (!reverse) return;  // forward scan done; wait for the next edge

  // Reverse scan exhausted this cycle: hop to the previous cycle if the
  // backend supports time travel (Fig. 2 "*Reverse time").
  if (rewind_one_cycle(time)) {
    common::LockGuard lock(state_mutex_);
    reverse_entry_ = true;
    return;
  }
  // Beginning of recorded history: report an empty stop so the debugger
  // knows reverse execution bottomed out, then resume forward stepping.
  const Command command = deliver_stop(StopEvent{time, {}, {}});
  common::LockGuard lock(state_mutex_);
  mode_ = command == Command::Continue ? Mode::Run : Mode::Step;
}

bool Runtime::rewind_one_cycle(uint64_t time) {
  if (!interface_->supports_time_travel()) return false;
  if (time < 3) return false;
  // The clock grid has a rising edge every 2 time units; landing 3 units
  // back puts the cursor strictly before the previous rising edge for the
  // replay backend and on the previous cycle for the native backend.
  return interface_->set_time(time - 3);
}

void Runtime::evaluate_batch(const Batch& batch, bool respect_inserted,
                             std::vector<size_t>& hits) {
  common::LockGuard lock(state_mutex_);
  HGDB_TRACE_SPAN_VAR(eval_span, "runtime", "evaluate_batch");
  eval_span.set_arg(batch.members.size());
  const auto t0 = options_.collect_stats
                      ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
  const bool compiled = options_.compiled_eval;
  if (compiled) ensure_edge_values_locked();

  // Fig. 2 step 2, one member after another on the calling thread: a
  // compiled condition costs ~130 ns, far below what waking a worker
  // thread costs (README "Sequential batch evaluation").
  EvalCounts counts;
  for (const size_t member : batch.members) {
    Breakpoint& bp = breakpoints_[member];
    const bool fired =
        compiled ? evaluate_member_compiled_locked(bp, respect_inserted, counts)
                 : evaluate_member_interpreted_locked(bp, respect_inserted,
                                                      counts);
    if (fired) hits.push_back(member);
  }
  stats_.batches_evaluated->add(1);
  stats_.conditions_evaluated->add(counts.evaluated);
  stats_.dirty_skips->add(counts.skipped);
  if (counts.skipped != 0) {
    HGDB_TRACE_INSTANT("runtime", "dirty_skips", counts.skipped);
  }
  if (options_.collect_stats) {
    const uint64_t elapsed = elapsed_ns(t0);
    stats_.eval_ns->add(elapsed);
    stats_.batch_eval_ns->record(elapsed);
  }
}

bool Runtime::evaluate_member_compiled_locked(Breakpoint& bp,
                                              bool respect_inserted,
                                              EvalCounts& counts) {
  if (respect_inserted && !bp.inserted) return false;
  const bool need_cond = respect_inserted && !bp.conditions.empty();
  const bool has_work = bp.compiled_enable.has_value() || need_cond;
  if (bp.eval_serial == 0 || deps_serial(bp.dep_slots) > bp.eval_serial) {
    // Inputs changed: every cached verdict is stale.
    bp.cached = 0;
    for (auto& arm : bp.conditions) arm.cached = 0;
  }
  bool did_eval = false;
  if ((bp.cached & kCacheHasEnable) == 0) {
    // A faulting predicate (-1) behaves like the interpreted path's
    // caught exception: the member does not hit.
    const bool enable_true =
        !bp.compiled_enable || eval_predicate(*bp.compiled_enable, plan_) == 1;
    bp.cached |= kCacheHasEnable;
    if (enable_true) bp.cached |= kCacheEnableTrue;
    did_eval = bp.compiled_enable.has_value();
  }
  const bool enable_true = (bp.cached & kCacheEnableTrue) != 0;
  bool hit = enable_true;
  if (enable_true && need_cond) {
    // Every arm is evaluated (no early exit): the matched set routes the
    // stop to exactly the sessions whose own condition fired.
    bp.matched.clear();
    bool any = bp.uncond_refs > 0;
    for (auto& arm : bp.conditions) {
      if ((arm.cached & kArmHasVerdict) == 0) {
        const bool value =
            arm.compiled && eval_predicate(*arm.compiled, plan_) == 1;
        arm.cached = kArmHasVerdict;
        if (value) arm.cached |= kArmTrue;
        did_eval = true;
      }
      if ((arm.cached & kArmTrue) != 0) {
        any = true;
        bp.matched.push_back(arm.text);
      }
    }
    hit = any;
  }
  bp.eval_serial = plan_.serial;
  if (did_eval) {
    ++counts.evaluated;
  } else if (has_work) {
    ++counts.skipped;
  }
  // Step-mode hits bypass conditions: never leave a stale matched set
  // behind for make_frame to pick up.
  if (!need_cond) bp.matched.clear();
  return hit;
}

bool Runtime::evaluate_member_interpreted_locked(Breakpoint& bp,
                                                 bool respect_inserted,
                                                 EvalCounts& counts) {
  if (respect_inserted && !bp.inserted) return false;
  const bool need_cond = respect_inserted && !bp.conditions.empty();
  if (bp.enable || need_cond) ++counts.evaluated;
  const auto resolver = breakpoint_resolver(bp);
  if (!need_cond) bp.matched.clear();
  try {
    if (bp.enable && !bp.enable->evaluate_bool(resolver)) return false;
    if (!need_cond) return true;
    bp.matched.clear();
    bool any = bp.uncond_refs > 0;
    for (const auto& arm : bp.conditions) {
      bool value = false;
      try {
        value = arm.expr && arm.expr->evaluate_bool(resolver);
      } catch (const std::exception&) {
        // This arm faults; other sessions' arms still decide.
      }
      if (value) {
        any = true;
        bp.matched.push_back(arm.text);
      }
    }
    return any;
  } catch (const std::exception&) {
    // Unresolvable symbols (optimized away, trace without the signal):
    // treat as not-hit, consistent with how debuggers degrade.
    return false;
  }
}

// ---------------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------------

StopEvent Runtime::make_stop_event(uint64_t time,
                                   const std::vector<size_t>& hits) {
  StopEvent event;
  event.time = time;
  event.frames.reserve(hits.size());
  for (size_t member : hits) {
    event.frames.push_back(make_frame(breakpoints_[member]));
  }
  stats_.stops->add(1);
  return event;
}

Frame Runtime::make_frame(const Breakpoint& bp) {
  Frame frame;
  frame.breakpoint_id = bp.row.id;
  frame.instance_id = bp.row.instance_id;
  frame.instance_name = bp.instance_name;
  frame.filename = bp.row.filename;
  frame.line = bp.row.line_num;
  frame.column = bp.row.column_num;
  // Which user conditions fired at this hit (set by evaluate_batch just
  // before the stop): the session layer routes the stop to the sessions
  // holding these arms.
  if (!bp.conditions.empty()) frame.matched_conditions = bp.matched;

  // Locals: the scope variables recorded by SSA for this statement,
  // re-aggregated into nested objects on dotted names.
  for (const auto& variable : table_->scope_variables(bp.row.id)) {
    std::string text;
    if (!variable.is_rtl) {
      text = variable.value;
    } else if (auto value = interface_->get_value(to_design_name(
                   bp.instance_name + "." + variable.value))) {
      text = render(*value);
    } else {
      text = "<unavailable>";
    }
    rpc::insert_nested(frame.locals, variable.name, common::Json(text));
  }
  // Generator variables of the owning instance (paper Fig. 4 A).
  for (const auto& variable :
       table_->generator_variables(bp.row.instance_id)) {
    std::string text;
    if (!variable.is_rtl) {
      text = variable.value;
    } else if (auto value = interface_->get_value(to_design_name(
                   bp.instance_name + "." + variable.value))) {
      text = render(*value);
    } else {
      text = "<unavailable>";
    }
    rpc::insert_nested(frame.generator, variable.name, common::Json(text));
  }
  return frame;
}

Frame Runtime::build_frame(int64_t breakpoint_id) {
  auto it = by_id_.find(breakpoint_id);
  if (it == by_id_.end()) {
    throw std::invalid_argument("unknown breakpoint id " +
                                std::to_string(breakpoint_id));
  }
  return make_frame(breakpoints_[it->second]);
}

// ---------------------------------------------------------------------------
// stop delivery
// ---------------------------------------------------------------------------

Runtime::Command Runtime::deliver_stop(StopEvent event) {
  StopHandler handler;
  {
    common::LockGuard lock(handler_mutex_);
    handler = stop_handler_;
  }
  Command command = Command::Continue;  // nobody is listening
  bool delivered = false;
  if (handler) {
    command = handler(event);
    delivered = true;
  } else {
    session::SessionManager* service = nullptr;
    {
      common::LockGuard lock(service_mutex_);
      service = service_.get();
    }
    if (service) {
      command = service->deliver_stop(std::move(event));
      delivered = true;
    }
  }
  if (delivered) {
    // The debugger may have forced signals or travelled in time while
    // stopped; the pre-fetched edge values can no longer be trusted.
    common::LockGuard lock(state_mutex_);
    values_stale_ = true;
  }
  return command;
}

// ---------------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------------

std::optional<BitVector> Runtime::evaluate(const std::string& expression,
                                           std::optional<int64_t> breakpoint_id,
                                           const std::string& instance_name) {
  try {
    const Expression parsed = Expression::parse(expression);
    // Serialized with the scheduler: compiled one-off evaluation resolves
    // names through the backend's handle table, which the simulation
    // thread reads concurrently. Never held while blocked on a stop
    // (deliver_stop runs lock-free), so client evaluates during a stop
    // cannot deadlock.
    common::LockGuard lock(state_mutex_);
    const Breakpoint* scope_bp = nullptr;
    int64_t instance_id = 0;
    std::string scope_instance;
    if (breakpoint_id) {
      auto it = by_id_.find(*breakpoint_id);
      if (it == by_id_.end()) return std::nullopt;
      scope_bp = &breakpoints_[it->second];
      instance_id = scope_bp->row.instance_id;
      scope_instance = scope_bp->instance_name;
    } else {
      const auto instance = resolve_instance(instance_name);
      if (!instance) return std::nullopt;
      instance_id = instance->first;
      scope_instance = instance->second;
    }
    if (options_.compiled_eval) {
      // One-off `evaluate`/`evaluate-batch` requests ride the same
      // compiled pipeline the scheduler runs, so the protocol exercises
      // exactly the code the hot loop trusts.
      return evaluate_compiled(parsed, scope_bp, instance_id, scope_instance);
    }
    const Expression::Resolver resolver =
        scope_bp != nullptr ? breakpoint_resolver(*scope_bp)
                            : instance_resolver(instance_id, scope_instance);
    return parsed.evaluate(resolver);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<BitVector> Runtime::read_instance_rtl(
    const std::string& instance_name, const std::string& rtl_path) {
  if (auto value = interface_->get_value(
          to_design_name(instance_name + "." + rtl_path))) {
    return value;
  }
  return interface_->get_value(rtl_path);
}

bool Runtime::set_signal_value(const std::string& hier_name,
                               const BitVector& value) {
  auto try_name = [&](const std::string& name) {
    // Match the target's width when it is known, so "42" forces cleanly
    // into an 8-bit register.
    if (auto current = interface_->get_value(name)) {
      return interface_->set_value(name, value.resize(current->width()));
    }
    return interface_->set_value(name, value);
  };
  bool forced = try_name(hier_name);
  if (!forced) {
    const std::string mapped = to_design_name(hier_name);
    forced = mapped != hier_name && try_name(mapped);
  }
  if (forced) {
    // Invalidate the edge's pre-fetched values: the forced signal may feed
    // an armed condition.
    common::LockGuard lock(state_mutex_);
    values_stale_ = true;
  }
  return forced;
}

Runtime::Stats Runtime::stats() const {
  Stats out;
  out.clock_edges = stats_.clock_edges->value();
  out.fast_path_exits = stats_.fast_path_exits->value();
  out.batches_evaluated = stats_.batches_evaluated->value();
  out.conditions_evaluated = stats_.conditions_evaluated->value();
  out.watchpoints_evaluated = stats_.watchpoints_evaluated->value();
  out.stops = stats_.stops->value();
  out.eval_ns = stats_.eval_ns->value();
  out.dirty_skips = stats_.dirty_skips->value();
  out.batch_fetches = stats_.batch_fetches->value();
  out.batch_signals = stats_.batch_signals->value();
  out.programs_compiled = stats_.programs_compiled->value();
  out.program_cache_hits = stats_.program_cache_hits->value();
  return out;
}

// ---------------------------------------------------------------------------
// RPC service (delegated to the session layer)
// ---------------------------------------------------------------------------

session::SessionManager* Runtime::ensure_service() {
  common::LockGuard lock(service_mutex_);
  if (!service_) service_ = std::make_unique<session::SessionManager>(*this);
  return service_.get();
}

void Runtime::serve(std::unique_ptr<rpc::Channel> channel) {
  ensure_service()->add_client(std::move(channel));
}

uint16_t Runtime::serve_tcp(uint16_t port) {
  return ensure_service()->listen_tcp(port);
}

uint16_t Runtime::serve_dap(uint16_t port) {
  return ensure_service()->listen_dap(port);
}

void Runtime::stop_service() {
  session::SessionManager* service = nullptr;
  {
    common::LockGuard lock(service_mutex_);
    service = service_.get();
  }
  if (service) service->shutdown();
}

session::SessionManager* Runtime::session_manager() {
  common::LockGuard lock(service_mutex_);
  return service_.get();
}

}  // namespace hgdb::runtime
