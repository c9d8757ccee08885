// replay_session: the same debugger on a pre-recorded .wvx v4 dump.
//
// The dump is far larger than the 64-block BlockCache, so travel pays for
// block reads and decodes, replay seeks and the per-edge scan. One replay
// thread drives ReplayBackend::run_forward(); the load generator is one v2
// client with JSON events (the DebugClient::connect default) that issues a
// seeded script of continue, reverse-continue, step-back and jump, each
// followed by an evaluate_batch of the stop's locals.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_workloads.h"
#include "debugger/client.h"
#include "design.h"
#include "probes.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "trace/replay.h"
#include "vpi/replay_backend.h"
#include "waveform/indexed_waveform.h"

namespace perfbench {
namespace {

using namespace hgdb;

/// Dump length in cycles (the "size" of the cache key).
constexpr uint64_t kDumpCycles = 24000;
/// Hot-location modulus: a continue scans a few dozen edges. An assumed
/// stop rate, chosen so travel cost is measurable, not taken from
/// recorded debugging sessions.
constexpr uint64_t kHotModulus = 307;
constexpr auto kDeadline = std::chrono::milliseconds(5000);
constexpr int kSetupReps = 15;

std::string dump_stem(const RunConfig& config) {
  return config.cache_dir + "/replay_" + kDesign + "_c" +
         std::to_string(kDumpCycles) + "_m" + std::to_string(kHotModulus) +
         "_s" + std::to_string(config.seed);
}

void write_stops(const std::string& path, const std::vector<StopRecord>& stops) {
  std::ofstream out(path + ".tmp");
  for (const auto& stop : stops) {
    out << stop.time << '\t' << stop.location << '\t' << stop.signature << '\t'
        << stop.values << '\n';
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  std::filesystem::rename(path + ".tmp", path);
}

std::vector<StopRecord> read_stops(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing generated input " + path);
  std::vector<StopRecord> stops;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    StopRecord record;
    std::string time;
    std::getline(fields, time, '\t');
    std::getline(fields, record.location, '\t');
    std::getline(fields, record.signature, '\t');
    std::getline(fields, record.values, '\t');
    record.time = std::stoull(time);
    stops.push_back(std::move(record));
  }
  return stops;
}

size_t edge_index(const std::vector<uint64_t>& edges, uint64_t time) {
  auto it = std::upper_bound(edges.begin(), edges.end(), time);
  return it == edges.begin() ? 0 : static_cast<size_t>(it - edges.begin()) - 1;
}

/// Direct-mode reader of the same dump (own cache) that lists the step
/// stops -- every enabled statement -- at any edge, in the order the
/// runtime visits them.
class StepReference {
 public:
  StepReference(const std::string& dump, const symbols::SymbolTable& table)
      : backend_(trace::ReplayEngine(
            std::make_shared<waveform::IndexedWaveform>(dump))),
        reference_(backend_, table, {}, runtime::Runtime::Command::StepOver) {}

  /// Step stops at edge index `cycle` (cached).
  const std::vector<StopRecord>& at(size_t cycle) {
    auto it = cache_.find(cycle);
    if (it != cache_.end()) return it->second;
    auto& engine = backend_.engine();
    if (cycle == 0) {
      engine.set_time(0);
    } else {
      engine.seek_cycle(cycle - 1);
    }
    reference_.runtime().request_pause();
    backend_.step_forward();
    return cache_[cycle] = reference_.take();
  }

  /// Step stops at the edge of `time`.
  const std::vector<StopRecord>& at_time(uint64_t time) {
    return at(edge_index(edges(), time));
  }

  [[nodiscard]] const std::vector<uint64_t>& edges() {
    return backend_.engine().edges();
  }

 private:
  vpi::ReplayBackend backend_;
  DirectReference reference_;
  std::map<size_t, std::vector<StopRecord>> cache_;
};

/// "a before b" in the order the runtime visits stops: by time, then by
/// where each stop's location falls among the step stops the runtime
/// itself reports at that edge.
class StopOrder {
 public:
  explicit StopOrder(StepReference& steps) : steps_(steps) {}
  bool operator()(const StopRecord& a, const StopRecord& b) const {
    if (a.time != b.time) return a.time < b.time;
    return rank(a) < rank(b);
  }

 private:
  [[nodiscard]] size_t rank(const StopRecord& stop) const {
    const auto& at = steps_.at_time(stop.time);
    for (size_t i = 0; i < at.size(); ++i) {
      if (at[i].location == stop.location) return i;
    }
    return at.size();
  }

  StepReference& steps_;
};

enum class Op : uint8_t { Continue, ReverseContinue, StepBack, Jump };
const char* op_name(Op op) {
  switch (op) {
    case Op::Continue: return "continue";
    case Op::ReverseContinue: return "reverse_continue";
    case Op::StepBack: return "step_back";
    case Op::Jump: return "jump";
  }
  return "?";
}

/// One debugger session over the dump: compile, open, edge grid, attach,
/// connect (JSON events), arm.
struct ReplaySession {
  ReplaySession(const RunConfig& config, bool timed,
                std::atomic<uint64_t>& stops_seen, SetupTimes& times) {
    const uint64_t t0 = now_ns();
    auto compiled = compile_design();
    const uint64_t t1 = now_ns();
    table = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    const uint64_t t2 = now_ns();
    waveform = std::make_shared<waveform::IndexedWaveform>(dump_stem(config) + ".wvx");
    const uint64_t t3 = now_ns();
    backend = std::make_unique<vpi::ReplayBackend>(trace::ReplayEngine(waveform));
    const uint64_t t4 = now_ns();
    vpi::SimulatorInterface* face = backend.get();
    if (timed) {
      timing = std::make_unique<TimedInterface>(*backend, stops_seen);
      face = timing.get();
    }
    // Travel should be dominated by block reads, seeks and the per-edge
    // scan. At the default pool size every edge of a scan would also pay
    // five pooled batch dispatches -- live_session's finding, measured
    // there -- so the replay session evaluates on one thread.
    runtime = std::make_unique<runtime::Runtime>(*face, *table, one_eval_thread());
    runtime->attach();
    const uint16_t port = runtime->serve_tcp(0);
    auto channel = std::make_unique<DeadlineChannel>(
        rpc::tcp_connect("127.0.0.1", port), kDeadline);
    deadline_channel = channel.get();
    client = std::make_unique<debugger::DebugClient>(std::move(channel));
    if (!client->connect("perfbench")) {
      throw std::runtime_error("replay client handshake failed: " +
                               client->last_error());
    }
    plan = make_arm_plan(*table, config.seed, kHotModulus);
    for (const auto& arm : plan) {
      if (client->set_breakpoint(arm.filename, arm.line, arm.condition).empty()) {
        throw std::runtime_error("arming failed: " + client->last_error());
      }
    }
    const uint64_t t5 = now_ns();
    times.total_ns = static_cast<double>(t5 - t0);
    times.parts_ns["frontend.compile_ms"] = static_cast<double>(t1 - t0);
    times.parts_ns["symbols.load_ms"] = static_cast<double>(t2 - t1);
    times.parts_ns["waveform.open_ms"] = static_cast<double>(t3 - t2);
    times.parts_ns["trace.edge_grid_ms"] = static_cast<double>(t4 - t3);
    times.parts_ns["debugger.connect_arm_ms"] = static_cast<double>(t5 - t4);
  }

  ~ReplaySession() {
    // Detach releases every breakpoint, so the replay thread runs to the
    // end of the dump without parking again. If the transport is gone,
    // shutting the service down wakes a parked handshake instead.
    bool detached = false;
    try {
      detached = client->detach();
    } catch (const std::exception&) {
    }
    if (!detached) runtime->stop_service();
    if (replay_thread.joinable()) replay_thread.join();
    runtime->stop_service();
  }

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  void start() {
    replay_thread = std::thread([this] { backend->run_forward(); });
  }

  std::unique_ptr<symbols::MemorySymbolTable> table;
  std::shared_ptr<waveform::IndexedWaveform> waveform;
  std::unique_ptr<vpi::ReplayBackend> backend;
  std::unique_ptr<TimedInterface> timing;
  std::unique_ptr<runtime::Runtime> runtime;
  DeadlineChannel* deadline_channel = nullptr;
  std::unique_ptr<debugger::DebugClient> client;
  std::vector<Arm> plan;
  std::thread replay_thread;  // declared last: joined before the rest dies
};

/// Walks the same edges as a travel on a bare engine (own index and
/// cache), reading the armed locations' signals: the cost of the history
/// itself, the denominator of the replay slowdown.
class BareWalk {
 public:
  BareWalk(const std::string& dump, const symbols::SymbolTable& table,
           const std::vector<Arm>& plan)
      : engine_(std::make_shared<waveform::IndexedWaveform>(dump)) {
    std::vector<std::string> names;
    for (const auto& arm : plan) {
      for (const auto& row : table.breakpoints_at(arm.filename, arm.line)) {
        const auto instance = table.instance(row.instance_id);
        if (!instance) continue;
        for (const auto& variable : table.scope_variables(row.id)) {
          if (variable.is_rtl) names.push_back(instance->name + "." + variable.value);
        }
      }
    }
    for (const auto& name : names) {
      if (auto index = engine_.signal_index(name)) signals_.push_back(*index);
    }
    std::sort(signals_.begin(), signals_.end());
    signals_.erase(std::unique(signals_.begin(), signals_.end()), signals_.end());
  }

  /// ns to visit edge indexes [from, to] (either direction) reading
  /// every signal at each.
  uint64_t walk(size_t from, size_t to) {
    const uint64_t start = now_ns();
    const int step = from <= to ? 1 : -1;
    for (size_t cycle = from;; cycle += step) {
      engine_.seek_cycle(cycle);
      for (size_t signal : signals_) sink_ ^= engine_.value_at(signal).to_uint64();
      if (cycle == to) break;
    }
    return now_ns() - start;
  }

  [[nodiscard]] size_t signal_count() const { return signals_.size(); }

 private:
  trace::ReplayEngine engine_;
  std::vector<size_t> signals_;
  uint64_t sink_ = 0;
};

struct OpResult {
  Op op = Op::Continue;
  StopRecord from;
  uint64_t jump_target = 0;
  StopRecord stop;
};

struct Phase {
  Latency latency;
  std::vector<double> slowdowns;
  std::map<Op, std::vector<double>> command_us;  // raw, per op kind
  std::map<Op, std::vector<double>> travel_us;   // scaled, per op kind
  std::vector<double> notify_us, evaluate_us;    // raw
  std::vector<OpResult> results;
  uint64_t travels = 0;
  uint64_t block_misses = 0;
  uint64_t block_hits = 0;
  uint64_t edges = 0;
  Calibration calibration;
};

void run_phase(ReplaySession& session, const RunConfig& config, double seconds,
               const std::vector<StopRecord>& forward, SpanLog& spans,
               Report& report, Phase& phase, std::atomic<uint64_t>& stops_seen,
               uint64_t script_seed) {
  BareWalk bare(dump_stem(config) + ".wvx", *session.table, session.plan);
  const auto& edges = session.backend->engine().edges();
  auto& client = *session.client;
  Rng rng(script_seed);

  session.start();
  std::optional<rpc::StopEvent> first = client.wait_stop(kDeadline);
  stops_seen.fetch_add(1);
  if (!first) {
    report.fail("replay: no first stop within the deadline");
    return;
  }
  StopRecord position = record_stop(*first, "");

  phase.calibration.sample();
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t op_id = 0;
  while (now_ns() < deadline) {
    // The mix is an assumption (no recorded debugging sessions to draw
    // it from); each kind's travel p50 is reported on its own as well.
    const uint64_t pick = rng.range(0, 99);
    Op op = pick < 40 ? Op::Continue
            : pick < 65 ? Op::ReverseContinue
            : pick < 80 ? Op::StepBack
                        : Op::Jump;
    // Never run off either end of the dump: an op that might have nothing
    // to reach becomes a jump.
    if (op == Op::Continue && position.time >= forward.back().time) op = Op::Jump;
    if (op == Op::ReverseContinue && position.time <= forward.front().time) op = Op::Jump;
    if (op == Op::StepBack && edge_index(edges, position.time) < 2) op = Op::Jump;
    const size_t jump_cycle = rng.range(2, edges.size() - 2);
    const uint64_t jump_target = edges[jump_cycle] - 1;

    const auto misses_before = session.waveform->cache_stats();
    const uint64_t edges_before =
        session.timing ? session.timing->times().edges : 0;
    ++op_id;
    ++report.attempted;
    const uint64_t t0 = now_ns();
    bool sent = false;
    try {
      switch (op) {
        case Op::Continue: sent = client.resume(); break;
        case Op::ReverseContinue: sent = client.reverse_resume(); break;
        case Op::StepBack: sent = client.step_back(); break;
        case Op::Jump: sent = client.jump(jump_target); break;
      }
    } catch (const std::exception& error) {
      report.fail(std::string("replay ") + op_name(op) + ": " + error.what());
      break;
    }
    const uint64_t t_sent = now_ns();
    if (!sent) {
      report.fail(std::string("replay ") + op_name(op) + " refused: " +
                  client.last_error());
      break;
    }
    std::optional<rpc::StopEvent> stop;
    try {
      stop = client.wait_stop(kDeadline);
    } catch (const std::exception& error) {
      report.fail(std::string("replay wait_stop: ") + error.what());
      break;
    }
    if (!stop) {
      report.fail(std::string("replay ") + op_name(op) + ": no stop within the deadline");
      break;
    }
    const uint64_t t_notify = now_ns();
    stops_seen.fetch_add(1, std::memory_order_acq_rel);
    std::vector<debugger::EvalResult> results;
    try {
      results = client.evaluate_batch(
          frame_local_names(*stop),
          stop->frames.empty()
              ? std::nullopt
              : std::optional<int64_t>(stop->frames.front().breakpoint_id));
    } catch (const std::exception& error) {
      report.fail(std::string("replay evaluate_batch: ") + error.what());
      break;
    }
    const uint64_t t_done = now_ns();
    OpResult result{op, position, jump_target,
                    record_stop(*stop, rendered_values(results))};

    const auto misses_after = session.waveform->cache_stats();
    phase.block_misses += misses_after.misses - misses_before.misses;
    phase.block_hits += misses_after.hits - misses_before.hits;
    if (session.timing) phase.edges += session.timing->times().edges - edges_before;
    ++phase.travels;

    spans.add("debugger", op_name(op), t0, t_sent, op_id, 1);
    spans.add("session", "stop_notify", t_sent, t_notify, op_id, 1);
    spans.add("debugger", "evaluate_batch", t_notify, t_done, op_id, 1);
    spans.add("bench", "travel", t0, t_done, op_id, 1);

    // Untimed between operations: the bare walk over the same edges and
    // a calibration sample.
    const double factor = phase.calibration.factor();
    const double raw_us = static_cast<double>(t_done - t0) / 1e3;
    phase.latency.raw_us.push_back(raw_us);
    phase.latency.scaled_us.push_back(raw_us / factor);
    phase.travel_us[op].push_back(raw_us / factor);
    phase.command_us[op].push_back(static_cast<double>(t_sent - t0) / 1e3);
    phase.notify_us.push_back(static_cast<double>(t_notify - t_sent) / 1e3);
    phase.evaluate_us.push_back(static_cast<double>(t_done - t_notify) / 1e3);
    if (op == Op::Continue || op == Op::ReverseContinue) {
      const uint64_t w0 = now_ns();
      const uint64_t walk_ns = bare.walk(edge_index(edges, position.time),
                                         edge_index(edges, result.stop.time));
      spans.add("bench", "bare_walk", w0, now_ns(), op_id, 1);
      if (walk_ns > 0) {
        phase.slowdowns.push_back(static_cast<double>(t_done - t0) /
                                  static_cast<double>(walk_ns));
      }
    }
    const uint64_t c0 = now_ns();
    phase.calibration.sample(1);
    spans.add("bench", "calibrate", c0, now_ns(), op_id, 1);
    position = result.stop;
    phase.results.push_back(std::move(result));
  }
  if (session.deadline_channel->missed_deadline()) {
    report.fail("replay: a request missed its deadline");
  }
}

/// Checks every travel against the dump's forward stop list (continue,
/// reverse-continue) or the direct-mode step stops (step-back, jump).
void check_results(const RunConfig& config, const symbols::SymbolTable& table,
                   const std::vector<StopRecord>& forward,
                   const std::vector<OpResult>& results, Report& report) {
  StepReference steps(dump_stem(config) + ".wvx", table);
  const StopOrder before(steps);
  const auto& edges = steps.edges();
  for (const auto& result : results) {
    std::optional<StopRecord> want;
    switch (result.op) {
      case Op::Continue: {
        auto it = std::upper_bound(forward.begin(), forward.end(), result.from, before);
        if (it != forward.end()) want = *it;
        break;
      }
      case Op::ReverseContinue: {
        auto it = std::lower_bound(forward.begin(), forward.end(), result.from, before);
        if (it != forward.begin()) want = *std::prev(it);
        break;
      }
      case Op::StepBack: {
        size_t cycle = edge_index(edges, result.from.time);
        for (;;) {
          const auto& at = steps.at(cycle);
          for (auto it = at.rbegin(); it != at.rend(); ++it) {
            if (before(*it, result.from)) {
              want = *it;
              break;
            }
          }
          if (want || cycle == 0) break;
          --cycle;
        }
        break;
      }
      case Op::Jump: {
        const size_t cycle = edge_index(edges, result.jump_target) + 1;
        if (cycle < edges.size()) {
          const auto& at = steps.at(cycle);
          if (!at.empty()) want = at.front();
        }
        break;
      }
    }
    if (!want) {
      report.fail(std::string("replay ") + op_name(result.op) +
                  " has no expected stop from t=" + std::to_string(result.from.time));
    } else if (!(*want == result.stop)) {
      report.fail(std::string("replay ") + op_name(result.op) + " from t=" +
                  std::to_string(result.from.time) + " reached t=" +
                  std::to_string(result.stop.time) + " " + result.stop.signature +
                  " " + result.stop.values + ", want t=" +
                  std::to_string(want->time) + " " + want->signature + " " +
                  want->values);
    }
  }
}

}  // namespace

void generate_replay_inputs(const RunConfig& config) {
  const std::string stem = dump_stem(config);
  if (std::filesystem::exists(stem + ".stops")) return;
  auto compiled = compile_design();
  {
    sim::Simulator simulator(compiled.netlist);
    simulator.run(warmup_cycles(config.seed));
    sim::VcdWriter writer(simulator, stem + ".wvx");
    writer.attach();
    simulator.run(kDumpCycles);
    writer.finish();
  }
  // The forward stop list: a direct-mode run of the armed plan over the
  // whole dump.
  symbols::MemorySymbolTable table(compiled.symbols);
  vpi::ReplayBackend backend{trace::ReplayEngine(
      std::make_shared<waveform::IndexedWaveform>(stem + ".wvx"))};
  DirectReference reference(backend, table,
                            make_arm_plan(table, config.seed, kHotModulus),
                            runtime::Runtime::Command::Continue);
  backend.run_forward();
  const std::vector<StopRecord> stops = reference.take();
  if (stops.size() < 2) throw std::runtime_error("replay dump has too few stops");
  write_stops(stem + ".stops", stops);
}

void run_replay_session(const RunConfig& config, Report& report, SpanLog& spans) {
  const std::vector<StopRecord> forward = read_stops(dump_stem(config) + ".stops");
  std::atomic<uint64_t> stops_seen{0};

  std::unique_ptr<ReplaySession> session;
  measure_setup(kSetupReps, [&] {
    session.reset();
    SetupTimes times;
    session = std::make_unique<ReplaySession>(config, false, stops_seen, times);
    return times;
  }, report);

  Phase phase;
  SpanLog no_spans;
  const double untraced_seconds = config.trace ? config.seconds / 2 : config.seconds;
  run_phase(*session, config, untraced_seconds, forward, no_spans, report, phase,
            stops_seen, config.seed ^ 0x5c5c);
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const uint64_t total_blocks = session->waveform->total_blocks();
  const size_t cache_blocks = session->waveform->cache_capacity();
  session.reset();

  constexpr int kTail = 90;
  report.set_latency(phase.latency, kTail);
  for (const auto& [op, travel_us] : phase.travel_us) {
    report.set_layer(std::string("travel.") + op_name(op) + "_p50_us", median(travel_us),
                     "us", "n=" + std::to_string(travel_us.size()) + ", untraced");
  }
  char note[128];
  std::snprintf(note, sizeof note, "median of %zu continue/reverse-continue travels",
                phase.slowdowns.size());
  report.set_e2e("slowdown", median(phase.slowdowns), "ratio", note);

  {
    symbols::MemorySymbolTable table(compile_design().symbols);
    check_results(config, table, forward, phase.results, report);
  }
  std::map<std::string, uint64_t> op_counts;
  for (const auto& result : phase.results) ++op_counts[op_name(result.op)];
  common_json ops = common_json::object();
  for (const auto& [name, count] : op_counts) ops[name] = common_json(count);
  report.context["design"] = common_json(kDesign);
  report.context["dump_cycles"] = common_json(kDumpCycles);
  report.context["dump_blocks"] = common_json(total_blocks);
  report.context["cache_blocks"] = common_json(static_cast<uint64_t>(cache_blocks));
  report.context["forward_stops"] = common_json(static_cast<uint64_t>(forward.size()));
  report.context["ops"] = std::move(ops);
  report.context["eval_threads_option"] = common_json(static_cast<uint64_t>(1));
  report.context["calib_factor"] = common_json(phase.calibration.overall_factor());
  report.context["calib_refused"] = common_json(phase.calibration.refused());

  if (!config.trace) return;

  Phase traced;
  SetupTimes times;
  auto timed_session = std::make_unique<ReplaySession>(config, true, stops_seen, times);
  spans.enable(true);
  run_phase(*timed_session, config, config.seconds / 2, forward, spans, report,
            traced, stops_seen, config.seed ^ 0x7d7d);
  spans.enable(false);
  const InterfaceTimes t = timed_session->timing->times();
  timed_session.reset();

  const double factor = traced.calibration.overall_factor();
  const double travels = static_cast<double>(std::max<uint64_t>(1, traced.travels));
  auto per_edge_us = [](uint64_t ns, uint64_t edges) {
    return edges == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(edges);
  };
  report.set_layer("vpi.replay_fetch_us_per_edge", per_edge_us(t.fetch_ns, t.edges) / factor, "us");
  report.set_layer("vpi.set_time_us",
                   per_edge_us(t.set_time_ns, t.set_time_calls) / factor, "us");
  report.set_layer("runtime.edges_per_travel", static_cast<double>(t.edges) / travels, "count");
  const double lookups = static_cast<double>(traced.block_hits + traced.block_misses);
  report.set_layer("waveform.cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(traced.block_hits) / lookups : 0, "ratio");
  report.set_layer("waveform.block_misses_per_travel",
                   static_cast<double>(traced.block_misses) / travels, "count");
  auto command_us = [&](Op op) { return median(traced.command_us[op]) / factor; };
  report.set_layer("debugger.resume_us", command_us(Op::Continue), "us");
  report.set_layer("debugger.reverse_resume_us", command_us(Op::ReverseContinue), "us");
  report.set_layer("debugger.step_back_us", command_us(Op::StepBack), "us");
  report.set_layer("debugger.jump_us", command_us(Op::Jump), "us");
  report.set_layer("session.stop_notify_us", median(traced.notify_us) / factor, "us");
  report.set_layer("debugger.evaluate_batch_us", median(traced.evaluate_us) / factor, "us");
  const double untraced_p50 = median(phase.latency.scaled_us);
  const double traced_p50 = median(traced.latency.scaled_us);
  report.set_layer("bench.trace_overhead_pct",
                   untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0,
                   "%", "traced vs untraced travel p50");
  report.set_layer("bench.calib_factor", factor, "ratio");
  symbols::MemorySymbolTable table(compile_design().symbols);
  check_results(config, table, forward, traced.results, report);
}

}  // namespace perfbench
