#ifndef HGDB_RUNTIME_RUNTIME_H
#define HGDB_RUNTIME_RUNTIME_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/checked_mutex.h"
#include "obs/metrics.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"
#include "runtime/expression.h"
#include "symbols/symbol_table.h"
#include "vpi/hierarchy.h"
#include "vpi/sim_interface.h"

namespace hgdb::session {
class SessionManager;
}  // namespace hgdb::session

namespace hgdb::runtime {

struct RuntimeOptions {
  /// Ignored: batches are always evaluated on the simulation thread.
  /// Kept only because the perfbench load generator, which is versioned
  /// with the benchmark, still sets and reports it.
  size_t eval_threads = 0;
  /// Accept limit for the session layer: debugger clients (native or DAP)
  /// beyond this count are rejected with a typed `too-many-sessions`
  /// error. 0 = unlimited.
  size_t max_sessions = 0;
  /// Registry the runtime's counters and latency histograms live in.
  /// nullptr = the runtime creates a private registry, so side-by-side
  /// runtimes (tests, bench A/B cells) never mix counts. The CLI passes
  /// &obs::MetricsRegistry::global() to unify runtime, session and
  /// waveform metrics on one exposition page.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-client outbound event-queue bound (frames) for binary-events
  /// clients. When a subscriber stops reading, its queue fills to this
  /// bound and further events are *dropped* (counted in
  /// `rpc.writer.events_dropped`) — the simulation thread never blocks on
  /// a slow socket. Responses bypass the bound (request-paced).
  size_t event_queue_frames = 1024;
  /// Companion byte bound for the same queue (whichever trips first).
  size_t event_queue_bytes = 8u << 20;
  /// Disconnect a binary-events client on queue overflow instead of
  /// thinning its event stream.
  bool disconnect_slow_clients = false;
};

/// The hgdb debugger runtime (the paper's central component, Fig. 1).
///
/// Sits between a simulator (via the unified vpi::SimulatorInterface) and a
/// symbol table (via symbols::SymbolTable), emulating source breakpoints
/// at clock edges with the Fig. 2 scheduling loop:
///
///   @(posedge clk): fetch the next batch of breakpoints sharing a source
///   location -> evaluate enable + user conditions -> if any
///   hit, reconstruct stack frames and notify the debugger -> wait for a
///   command -> repeat; exit the loop when no batch is left.
///
/// The fast path — no breakpoints or watchpoints inserted — returns
/// immediately, which is why the measured simulation overhead stays under
/// 5% (Fig. 5).
///
/// Two front-end attachment modes:
///  - direct: set_stop_handler() receives stop events synchronously and
///    returns the next command (tests, scripted debugging);
///  - RPC: serve()/serve_tcp() attach debugger clients through the
///    session::SessionManager, which speaks the v2 debug protocol over
///    any rpc::Channel and hosts N concurrent clients against this one
///    runtime.
class Runtime {
 public:
  using Command = rpc::Command;
  using StopHandler = std::function<Command(const rpc::StopEvent&)>;

  Runtime(vpi::SimulatorInterface& interface, const symbols::SymbolTable& table,
          RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- lifecycle ---------------------------------------------------------------
  /// Precomputes the breakpoint ordering (Fig. 2), parses enable
  /// conditions, builds the hierarchy mapping, and registers the clock
  /// callback with the simulator.
  void attach();
  /// Unregisters the callback.
  void detach();
  [[nodiscard]] bool attached() const { return callback_handle_.has_value(); }

  // -- breakpoints ---------------------------------------------------------------
  /// Inserts every symbol breakpoint at filename:line (all instances — the
  /// paper's concurrent "threads"). `condition` is an optional user
  /// expression evaluated in the breakpoint scope. Returns the inserted
  /// breakpoint ids (empty if the location has no breakpoint).
  ///
  /// Conditions are *refcounted per (location, condition) arm* rather than
  /// last-insert-wins: each call adds one reference (empty condition = an
  /// unconditional arm), the breakpoint fires when any armed condition
  /// matches (or an unconditional arm exists), and each hit frame records
  /// which condition texts matched so the session layer can route the stop
  /// to exactly the sessions whose own condition fired.
  std::vector<int64_t> add_breakpoint(const std::string& filename, uint32_t line,
                                      const std::string& condition = "");
  /// Drops one reference from the (location, condition) arm added by
  /// add_breakpoint. Returns how many breakpoints became fully un-armed
  /// (their last reference died).
  size_t release_breakpoint(const std::string& filename, uint32_t line,
                            const std::string& condition = "");
  /// Force-removes every arm at a location regardless of refcounts
  /// (line 0 = whole file). Returns the number removed.
  size_t remove_breakpoint(const std::string& filename, uint32_t line);
  void clear_breakpoints();
  [[nodiscard]] size_t inserted_count() const;

  /// One currently-inserted breakpoint (`breakpoint-list` / `info`).
  struct InsertedBreakpoint {
    int64_t id = 0;
    std::string filename;
    uint32_t line = 0;
    std::string instance_name;
  };
  [[nodiscard]] std::vector<InsertedBreakpoint> inserted_breakpoints() const;

  // -- watchpoints -------------------------------------------------------------
  /// Arms a signal watchpoint: `expression` is re-evaluated on the batch
  /// path at every rising edge (in `instance_name`'s scope; empty = top)
  /// and a stop fires whenever its value changes. Returns the watch id.
  /// Throws std::invalid_argument on a malformed expression and
  /// std::out_of_range on an unknown instance.
  int64_t add_watchpoint(const std::string& expression,
                         const std::string& instance_name = "");
  bool remove_watchpoint(int64_t id);
  [[nodiscard]] size_t watchpoint_count() const;

  // -- value-change subscriptions ----------------------------------------------
  /// One signal's new value reported by a subscription: the name as the
  /// subscriber wrote it, plus the post-edge value.
  struct SignalChange {
    std::string name;
    common::BitVector value;
  };
  /// Called on the simulation thread once per rising edge and subscription
  /// with the signals that changed since the subscription's last report
  /// (change-serial driven — an edge where nothing changed emits nothing).
  using ChangeListener = std::function<void(
      int64_t subscription_id, uint64_t time,
      const std::vector<SignalChange>& changes)>;
  void set_change_listener(ChangeListener listener);
  /// Subscribes to value changes of `names` (resolved in `instance_name`'s
  /// scope; empty = top). The signals join the per-edge batched-fetch plan
  /// — no extra per-edge fetch round — and change detection rides the
  /// plan's change serials. The first edge after subscribing reports the
  /// then-current values as an initial snapshot. Returns the subscription
  /// id. Throws std::out_of_range on an unknown name or instance.
  int64_t add_signal_subscription(const std::vector<std::string>& names,
                                  const std::string& instance_name = "");
  bool remove_signal_subscription(int64_t id);
  [[nodiscard]] size_t subscription_count() const;

  // -- direct-mode control ---------------------------------------------------------
  void set_stop_handler(StopHandler handler);
  /// Requests a stop at the next statement boundary (protocol `pause`).
  void request_pause() { pause_pending_.store(true); }

  // -- RPC service -------------------------------------------------------------------
  /// Attaches one debugger client on `channel`. May be called repeatedly:
  /// every call adds a concurrent session (the session layer broadcasts
  /// stop events to all of them and tracks per-session ownership).
  void serve(std::unique_ptr<rpc::Channel> channel);
  /// Listens on loopback TCP (0 = ephemeral) and accepts any number of
  /// clients; returns the bound port.
  uint16_t serve_tcp(uint16_t port = 0);
  /// Listens for Debug Adapter Protocol clients (VSCode) on loopback TCP
  /// (0 = ephemeral); returns the bound port. DAP sessions share the same
  /// DebugService core as native-protocol clients.
  uint16_t serve_dap(uint16_t port = 0);
  /// Disconnects every client and stops the accept loop.
  void stop_service();
  /// The session layer, if serve()/serve_tcp() started it (else nullptr).
  [[nodiscard]] session::SessionManager* session_manager();

  // -- evaluation --------------------------------------------------------------------
  /// Evaluates an expression in a breakpoint's scope (locals, then
  /// generator variables, then raw RTL names) or, when `breakpoint_id` is
  /// nullopt, against `instance_name` (empty = top).
  [[nodiscard]] std::optional<common::BitVector> evaluate(
      const std::string& expression, std::optional<int64_t> breakpoint_id,
      const std::string& instance_name = "");
  /// Reads an instance-relative RTL path through the hierarchy mapping
  /// (variable browsing); nullopt when unresolvable.
  [[nodiscard]] std::optional<common::BitVector> read_instance_rtl(
      const std::string& instance_name, const std::string& rtl_path);
  /// Forces a signal value (protocol `set-value`); tries the name verbatim
  /// first, then mapped into the design hierarchy. False when the backend
  /// does not support set-value or the signal is unknown.
  bool set_signal_value(const std::string& hier_name,
                        const common::BitVector& value);

  // -- introspection -----------------------------------------------------------------
  struct Stats {
    uint64_t clock_edges = 0;       ///< callbacks received
    uint64_t fast_path_exits = 0;   ///< edges with no work (Fig. 2 early exit)
    /// Breakpoint batches condition-checked. The continue modes visit only
    /// batches with an inserted member; step modes visit every batch.
    uint64_t batches_evaluated = 0;
    /// Breakpoint members whose expressions actually ran (members skipped
    /// because they are not inserted, or reused from the dirty-set cache,
    /// do not count).
    uint64_t conditions_evaluated = 0;
    uint64_t watchpoints_evaluated = 0;
    uint64_t stops = 0;             ///< stop events delivered
    /// Nanoseconds spent evaluating conditions/watchpoints (batch bodies).
    uint64_t eval_ns = 0;
    /// Members/watchpoints skipped because none of their input signals
    /// changed since their cached result.
    uint64_t dirty_skips = 0;
    /// Batched signal-fetch rounds issued to the backend.
    uint64_t batch_fetches = 0;
    /// Signals read through the batched entry point, total.
    uint64_t batch_signals = 0;
    /// Expression programs actually lowered by compile().
    uint64_t programs_compiled = 0;
    /// Arms that reused a shared program from the normalized-AST cache
    /// instead of recompiling (CSE across instances/sessions).
    uint64_t program_cache_hits = 0;
  };
  [[nodiscard]] Stats stats() const;
  /// The registry backing stats(): all `runtime.*` counters plus the
  /// `runtime.batch_eval_ns` latency histogram. The session layer adds its
  /// `session.*` metrics here too, so one snapshot covers the stack.
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] const vpi::HierarchyMapper* hierarchy_mapper() const {
    return mapper_ ? &*mapper_ : nullptr;
  }
  [[nodiscard]] vpi::SimulatorInterface& sim_interface() { return *interface_; }
  [[nodiscard]] const symbols::SymbolTable& symbol_table() const {
    return *table_;
  }
  /// Frames for an explicitly chosen breakpoint id at the current sim
  /// state (used by tests and the CLI's `frame` command).
  [[nodiscard]] rpc::Frame build_frame(int64_t breakpoint_id);

 private:
  /// How one expression symbol reads its value in steady state: either a
  /// constant resolved from the symbol table at arm time, or a slot in the
  /// per-edge fetched value plan. Neither set = unresolvable.
  struct SlotBinding {
    int32_t plan_slot = -1;
    bool is_constant = false;
    common::BitVector constant;
  };

  /// A compiled expression armed against the signal plan: symbols()[i]
  /// reads through bindings[i]. The *program* is shared: N instances
  /// arming the same condition text hold one CompiledExpression (CSE via
  /// the normalized-AST program cache) with per-instance slot maps
  /// (`bindings`). `ptrs` and `scratch` are per-predicate evaluation
  /// state, written only under state_mutex_.
  struct CompiledPredicate {
    std::shared_ptr<const CompiledExpression> expr;
    std::vector<SlotBinding> bindings;
    bool poisoned = false;  ///< some symbol unresolvable: evaluation fails
    std::vector<const common::BitVector*> ptrs;
    CompiledExpression::Scratch scratch;
  };

  /// One refcounted user-condition arm on a breakpoint. Different sessions
  /// can hold different conditions on the same source location; each arm
  /// keeps its own parsed/compiled expression and change-driven verdict
  /// cache, and a hit records which arms matched (stop routing).
  struct CondArm {
    std::string text;
    int refs = 0;
    std::optional<Expression> expr;
    std::optional<CompiledPredicate> compiled;
    uint8_t cached = 0;  ///< kArmHasVerdict | kArmTrue
  };

  /// One variable of a precompiled stop frame: a symbol-table constant
  /// kept as text, or an RTL value read through a backend handle resolved
  /// once (nullopt = the signal is unknown, rendered "<unavailable>").
  struct FrameVariable {
    std::string name;
    std::string text;  ///< the constant's text (non-RTL only)
    bool is_rtl = false;
    std::optional<uint64_t> handle;
  };
  /// A stop frame's variables in symbol-table order (the order the frame
  /// renders them in).
  using FramePlan = std::vector<FrameVariable>;

  /// One schedulable breakpoint (a symbol-table row + parsed expressions).
  struct Breakpoint {
    symbols::BreakpointRow row;
    std::optional<Expression> enable;  ///< nullopt = always enabled
    std::string instance_name;
    int uncond_refs = 0;          ///< unconditional arms (no user condition)
    std::vector<CondArm> conditions;
    bool inserted = false;        ///< any arm (uncond or conditional) held

    // Compiled state (rebuilt by rebuild_plan_locked).
    std::optional<CompiledPredicate> compiled_enable;
    std::vector<uint32_t> dep_slots;  ///< plan slots feeding any expr
    // Change-driven cache: results computed at plan serial eval_serial
    // stay valid while no dep slot changed since.
    uint64_t eval_serial = 0;  ///< 0 = no cached result
    uint8_t cached = 0;        ///< kCacheHasEnable | kCacheEnableTrue
    /// Condition texts that matched at the last hit (scratch; written by
    /// evaluate_batch_locked, read by make_frames_locked).
    std::vector<std::string> matched;

    /// Stop-frame plans, resolved once: when the breakpoint is first
    /// armed, or at its first stop if a step reaches it unarmed. Table
    /// rows and handles never change after attach(), so the plans
    /// survive plan rebuilds. `generator_frame` is shared by every
    /// breakpoint of the instance.
    std::shared_ptr<const FramePlan> locals_frame;
    std::shared_ptr<const FramePlan> generator_frame;
  };

  static constexpr uint8_t kCacheHasEnable = 1;
  static constexpr uint8_t kCacheEnableTrue = 2;
  static constexpr uint8_t kArmHasVerdict = 1;
  static constexpr uint8_t kArmTrue = 2;

  /// The per-edge batched-fetch plan: the union of design signals
  /// referenced by armed breakpoints and watchpoints, each resolved to a
  /// backend handle once at arm time and fetched once per edge.
  struct EvalPlan {
    std::vector<std::string> names;    ///< design names (debug/tests)
    std::vector<uint64_t> handles;
    std::vector<common::BitVector> values;
    std::vector<uint8_t> present;
    std::vector<uint64_t> change_serial;  ///< fetch serial of last change
    // Reused fetch buffers (compare-and-commit against `values`).
    std::vector<common::BitVector> incoming;
    std::vector<uint8_t> incoming_present;
    /// Zero-copy fetch buffer: pointers into the backend's value store
    /// when it supports get_value_views (unchanged signals are compared in
    /// place, copied never).
    std::vector<const common::BitVector*> views;
    std::map<std::string, uint32_t> index;  ///< design name -> slot
    uint64_t serial = 0;  ///< bumped on every committed fetch
  };

  /// Breakpoints sharing one source location (evaluated as a batch).
  struct Batch {
    std::string filename;
    uint32_t line = 0;
    uint32_t column = 0;
    std::vector<size_t> members;  ///< indexes into breakpoints_
  };

  /// An armed watchpoint: parsed expression + the last observed value.
  struct Watchpoint {
    int64_t id = 0;
    std::string text;
    Expression expr;
    int64_t instance_id = 0;
    std::string instance_name;
    std::optional<common::BitVector> last;

    // Compiled state (rebuilt by rebuild_plan_locked).
    std::optional<CompiledPredicate> compiled{};
    std::vector<uint32_t> dep_slots{};
    uint64_t eval_serial = 0;
  };

  /// An armed value-change subscription: requested names resolved to plan
  /// slots at subscribe time (re-resolved whenever the plan rebuilds), with
  /// the last reported fetch serial for change-driven emission.
  struct Subscription {
    int64_t id = 0;
    std::vector<std::string> names;  ///< as the subscriber wrote them
    int64_t instance_id = 0;
    std::string instance_name;
    std::vector<int32_t> slots;  ///< plan slot per name; -1 = constant
    uint64_t last_serial = 0;    ///< plan serial of the last report
    /// Last value reported per name; a plan rebuild (someone arming a
    /// breakpoint) resets the serials, and this keeps that from emitting
    /// spurious "changes" for signals whose value did not move. nullopt =
    /// not reported yet (the initial snapshot).
    std::vector<std::optional<common::BitVector>> last_values;
    /// Arm-time value per name for symbols that fold to constants
    /// (slot -1): emitted once as the initial snapshot, then silent.
    std::vector<std::optional<common::BitVector>> constants;
  };

  enum class Mode : uint8_t {
    Run,              ///< stop on inserted hits only
    Step,             ///< stop at the next enabled statement
    ReverseStep,      ///< stop at the previous enabled statement
    ReverseContinue,  ///< run backwards to the previous inserted hit
  };

  void on_clock_edge(vpi::ClockEdge edge, uint64_t time);
  /// Emits value-change events for every armed subscription whose plan
  /// slots changed since its last report (rides the same batched fetch and
  /// change serials as the breakpoint pipeline).
  void emit_subscription_events(uint64_t time);
  /// The batch a scan standing at `index` evaluates next. The step modes
  /// (`respect_inserted` false) visit every batch, so that is `index`
  /// itself; the continue modes visit only armed batches, so it is the
  /// nearest one at or past `index` in the scan direction. -1 or
  /// batches_.size() ends the scan.
  [[nodiscard]] int64_t next_batch_locked(int64_t index, bool reverse,
                                          bool respect_inserted) const
      HGDB_REQUIRES(state_mutex_);
  /// Evaluates one batch; fills `hits` with member indexes that fired.
  void evaluate_batch_locked(const Batch& batch, bool respect_inserted,
                             std::vector<size_t>& hits)
      HGDB_REQUIRES(state_mutex_);
  /// Per-batch evaluation counts, accumulated in member order.
  struct EvalCounts {
    uint64_t evaluated = 0;  ///< members whose conditions ran
    uint64_t skipped = 0;    ///< members answered from the change cache
  };
  /// One batch member through the compiled plan and its change-driven
  /// cache: a member none of whose input signals changed since its last
  /// evaluation reuses the cached verdicts. True if it fires.
  bool evaluate_member_locked(Breakpoint& bp, bool respect_inserted,
                              EvalCounts& counts) HGDB_REQUIRES(state_mutex_);
  /// Evaluates every armed watchpoint (batch path); appends change hits.
  void collect_watch_hits(std::vector<rpc::WatchHit>& hits);
  rpc::StopEvent make_stop_event(uint64_t time, const std::vector<size_t>& hits);
  /// Resolves `bp`'s stop-frame plans unless already resolved: the only
  /// symbol-table queries a stop can make.
  void resolve_frame_locked(Breakpoint& bp) HGDB_REQUIRES(state_mutex_);
  /// Appends the handles `bp`'s resolved stop frames read (duplicates
  /// included).
  static void append_frame_handles(const Breakpoint& bp,
                                   std::vector<uint64_t>& handles);
  /// Frames of `members` at the current backend time. Reads the union of
  /// their plans' handles in one get_value_views() (or get_values())
  /// call, and renders each instance's generator variables once.
  std::vector<rpc::Frame> make_frames_locked(const std::vector<size_t>& members)
      HGDB_REQUIRES(state_mutex_);
  /// Blocks until the debugger answers the stop event; returns the command.
  Command deliver_stop(rpc::StopEvent event);
  /// Requests one cycle of reverse time travel; true on success.
  bool rewind_one_cycle(uint64_t time);

  // -- compiled evaluation pipeline -------------------------------------------
  /// Arm-time symbol resolution. `name` is looked up, first match wins,
  /// as a frame local of `scope_bp` (breakpoint scope only), a generator
  /// variable of the instance, an instance-relative RTL name, and last an
  /// absolute hierarchical name. Non-RTL table variables fold to
  /// constants; RTL names become plan slots. Returns nullopt when no step
  /// matches. `scope_bp` nullptr = instance scope.
  [[nodiscard]] std::optional<SlotBinding> resolve_binding(
      const Breakpoint* scope_bp, int64_t instance_id,
      const std::string& instance_name, const std::string& name,
      EvalPlan* plan) HGDB_REQUIRES(state_mutex_);
  /// Program lookup for bind_predicate: one shared CompiledExpression per
  /// normalized AST (compiling on first sight). `persist` = false reuses a
  /// cached program but never inserts — one-off protocol evaluations must
  /// not grow the cache without bound.
  std::shared_ptr<const CompiledExpression> compile_shared(
      const Expression& expr, bool persist) HGDB_REQUIRES(state_mutex_);
  /// Compiles `expr` and resolves every symbol against `plan` (growing
  /// it); appends the referenced plan slots to `deps`. When
  /// `require_resolved`, throws std::out_of_range naming the first
  /// unresolvable symbol (arm-time typed error); otherwise the predicate
  /// is returned poisoned: it evaluates as unavailable and never fires,
  /// which is how a symbol-table enable over an optimized-away signal
  /// behaves.
  CompiledPredicate bind_predicate(const Expression& expr,
                                   const Breakpoint* scope_bp,
                                   int64_t instance_id,
                                   const std::string& instance_name,
                                   EvalPlan* plan, std::vector<uint32_t>* deps,
                                   bool require_resolved,
                                   bool persist_program = true)
      HGDB_REQUIRES(state_mutex_);
  /// Rebuilds the whole plan (all enables + inserted conditions +
  /// watchpoints), resolves the inserted breakpoints' stop frames, lists
  /// the armed batches, and resets the change-driven caches.
  void rebuild_plan_locked() HGDB_REQUIRES(state_mutex_);
  /// Declares the armed read set (the plan plus the inserted breakpoints'
  /// frames) to the backend's retain_views().
  void retain_read_set_locked() HGDB_REQUIRES(state_mutex_);
  /// Fetches the plan's signals for this edge if not already fresh,
  /// committing changed values and bumping their change serial.
  void ensure_edge_values_locked() HGDB_REQUIRES(state_mutex_);
  /// Evaluates a predicate against a plan's current values: -1
  /// unavailable, 0 false, 1 true (non-const: uses per-predicate scratch).
  static int eval_predicate(CompiledPredicate& predicate, const EvalPlan& plan);
  /// Full value of a predicate (watchpoints); nullptr when unavailable.
  static const common::BitVector* eval_predicate_value(
      CompiledPredicate& predicate, const EvalPlan& plan);
  /// Latest change serial across a dependency set.
  [[nodiscard]] uint64_t deps_serial(const std::vector<uint32_t>& deps) const
      HGDB_REQUIRES(state_mutex_);
  /// One-off compiled evaluation used by evaluate() and the watchpoint
  /// arm-time baseline: binds against a throwaway plan and fetches its
  /// values immediately. nullopt when unresolvable or faulting.
  [[nodiscard]] std::optional<common::BitVector> evaluate_compiled(
      const Expression& parsed, const Breakpoint* scope_bp,
      int64_t instance_id, const std::string& instance_name)
      HGDB_REQUIRES(state_mutex_);
  /// Resolves an instance scope: empty name = the top instance (the
  /// shortest hierarchical name). nullopt for an unknown name.
  [[nodiscard]] std::optional<std::pair<int64_t, std::string>>
  resolve_instance(const std::string& name) const;
  [[nodiscard]] std::string to_design_name(const std::string& symbol_name) const;
  session::SessionManager* ensure_service();

  vpi::SimulatorInterface* interface_;
  const symbols::SymbolTable* table_;
  RuntimeOptions options_;

  // Immutable after attach().
  std::vector<Breakpoint> breakpoints_;
  std::map<int64_t, size_t> by_id_;
  std::vector<Batch> batches_;
  std::map<int64_t, std::string> instance_names_;
  std::optional<vpi::HierarchyMapper> mapper_;
  std::optional<uint64_t> callback_handle_;

  // Scheduler state (sim thread + service threads).
  mutable common::StateMutex state_mutex_{"runtime::state"};
  std::atomic<bool> any_inserted_{false};
  std::atomic<bool> any_watch_{false};
  std::atomic<bool> any_subs_{false};
  std::atomic<bool> pause_pending_{false};
  std::atomic<Mode> mode_{Mode::Run};
  /// entered this cycle travelling backwards
  bool reverse_entry_ HGDB_GUARDED_BY(state_mutex_) = false;
  std::vector<Watchpoint> watchpoints_ HGDB_GUARDED_BY(state_mutex_);
  int64_t next_watch_id_ HGDB_GUARDED_BY(state_mutex_) = 1;
  std::vector<Subscription> subscriptions_ HGDB_GUARDED_BY(state_mutex_);
  int64_t next_subscription_id_ HGDB_GUARDED_BY(state_mutex_) = 1;

  // Value-change delivery (invoked outside state_mutex_ so a listener may
  // call back into the runtime).
  common::ListenerMutex listener_mutex_{"runtime::listener"};
  ChangeListener change_listener_ HGDB_GUARDED_BY(listener_mutex_);

  // Compiled-evaluation state.
  EvalPlan plan_ HGDB_GUARDED_BY(state_mutex_);
  /// Common-subexpression sharing: one compiled program per normalized
  /// AST, shared by every arm of that condition (per-instance state lives
  /// in the predicates, not the program). Keyed on Expression::cache_key()
  /// so textual variations of one expression unify. Persistent across plan
  /// rebuilds — programs depend only on the AST, never on bindings.
  std::map<std::string, std::shared_ptr<const CompiledExpression>>
      program_cache_ HGDB_GUARDED_BY(state_mutex_);
  /// Generator-variable frame plans by instance id (see
  /// Breakpoint::generator_frame).
  std::map<int64_t, std::shared_ptr<const FramePlan>> generator_frames_
      HGDB_GUARDED_BY(state_mutex_);
  /// The plan changed while armed: the next fetch re-declares the read
  /// set (retain_read_set_locked).
  bool read_set_stale_ HGDB_GUARDED_BY(state_mutex_) = false;
  /// Ascending indexes into batches_ of every batch with an inserted
  /// member (rebuilt by rebuild_plan_locked, which every change to
  /// Breakpoint::inserted calls): the continue modes scan only these.
  std::vector<size_t> armed_batches_ HGDB_GUARDED_BY(state_mutex_);
  /// Values already fetched for the current edge; cleared at edge entry.
  bool edge_values_fresh_ HGDB_GUARDED_BY(state_mutex_) = false;
  /// A stop was delivered or a mutator ran since the last fetch: the next
  /// ensure_edge_values_locked() must re-fetch (a debugger may have forced
  /// signals or travelled in time meanwhile).
  bool values_stale_ HGDB_GUARDED_BY(state_mutex_) = true;

  // Direct-mode stop delivery.
  common::ListenerMutex handler_mutex_{"runtime::handler"};
  StopHandler stop_handler_ HGDB_GUARDED_BY(handler_mutex_);

  // Multi-client session layer (created lazily by serve()/serve_tcp()).
  common::ServiceMutex service_mutex_{"runtime::service"};
  std::unique_ptr<session::SessionManager> service_
      HGDB_GUARDED_BY(service_mutex_);

  // Monotonic counters, written from the sim thread on the hot path. They
  // live in the obs::MetricsRegistry (relaxed atomics, never locks — the
  // fast path must stay allocation- and lock-free to keep Fig. 5's <5%
  // overhead) and are resolved once here at construction so the per-edge
  // cost is exactly what AtomicStats used to be: one relaxed fetch_add.
  struct RuntimeCounters {
    obs::Counter* clock_edges = nullptr;
    obs::Counter* fast_path_exits = nullptr;
    obs::Counter* batches_evaluated = nullptr;
    obs::Counter* conditions_evaluated = nullptr;
    obs::Counter* watchpoints_evaluated = nullptr;
    obs::Counter* stops = nullptr;
    obs::Counter* eval_ns = nullptr;
    obs::Counter* dirty_skips = nullptr;
    obs::Counter* batch_fetches = nullptr;
    obs::Counter* batch_signals = nullptr;
    obs::Counter* programs_compiled = nullptr;
    obs::Counter* program_cache_hits = nullptr;
    /// Per-batch evaluation latency (the same intervals eval_ns sums).
    obs::Histogram* batch_eval_ns = nullptr;
  };
  std::unique_ptr<obs::MetricsRegistry> metrics_owned_;
  obs::MetricsRegistry* metrics_ = nullptr;
  RuntimeCounters stats_;
};

}  // namespace hgdb::runtime

#endif  // HGDB_RUNTIME_RUNTIME_H
