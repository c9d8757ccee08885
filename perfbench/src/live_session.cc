// live_session: the paper's interactive loop on a running simulation.
//
//   sim edge -> batched fetch -> compiled eval -> batch dispatch -> stop
//   handshake -> binary event -> socket -> DebugClient
//
// One driving thread ticks the simulator; the load generator (this
// thread) is one v2 client with binary events over loopback TCP that
// answers every stop with an evaluate_batch of the frame's locals and a
// continue. The driving thread alternates slices of the attached session
// with slices of an identical bare Simulator, so the slowdown is a ratio
// of adjacent measurements and host drift cancels.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "debugger/client.h"
#include "design.h"
#include "obs/trace.h"
#include "probes.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "sim/simulator.h"
#include "vpi/native_backend.h"
#include "bench_workloads.h"

namespace perfbench {
namespace {

using namespace hgdb;

/// Hot-location modulus: about one stop per ~170 cycles, so the
/// per-edge cost dominates the slowdown and every stop finds the
/// debugger's threads idle since the last one. An assumed stop rate,
/// chosen for that, not taken from recorded debugging sessions.
constexpr uint64_t kHotModulus = 1201;
constexpr auto kDeadline = std::chrono::milliseconds(5000);
constexpr uint64_t kDeadlineNs = 5'000'000'000ull;
constexpr uint64_t kAttachedSliceNs = 60'000'000;
constexpr uint64_t kBareSliceNs = 30'000'000;
/// Fixed cycle window (traced run) over which the exact counts are taken.
constexpr uint64_t kCountWindowCycles = 2000;
constexpr int kSetupReps = 15;

/// One debugger-attached simulation: design, runtime, TCP client.
struct LiveSession {
  LiveSession(uint64_t seed, bool timed, std::atomic<uint64_t>& stops_seen,
              SetupTimes& times) {
    const uint64_t t0 = now_ns();
    auto compiled = compile_design();
    const uint64_t t1 = now_ns();
    table = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    const uint64_t t2 = now_ns();
    netlist = compiled.netlist;
    simulator = std::make_unique<sim::Simulator>(std::move(compiled.netlist));
    backend = std::make_unique<vpi::NativeBackend>(*simulator);
    // The seeded starting state is input preparation, not set-up.
    const uint64_t warm0 = now_ns();
    simulator->run(warmup_cycles(seed));
    const uint64_t warm_ns = now_ns() - warm0;
    vpi::SimulatorInterface* face = backend.get();
    if (timed) {
      timing = std::make_unique<TimedInterface>(*backend, stops_seen);
      face = timing.get();
    }
    runtime = std::make_unique<runtime::Runtime>(*face, *table);
    const size_t threads_before = thread_count();
    runtime->attach();
    pool_threads = thread_count() - threads_before + 1;
    const uint64_t t3 = now_ns();
    const uint16_t port = runtime->serve_tcp(0);
    auto channel = std::make_unique<DeadlineChannel>(
        rpc::tcp_connect("127.0.0.1", port), kDeadline);
    deadline_channel = channel.get();
    client = std::make_unique<debugger::DebugClient>(std::move(channel));
    if (!client->connect("perfbench", /*binary_events=*/true) ||
        !client->binary_events()) {
      throw std::runtime_error("live client handshake failed: " +
                               client->last_error());
    }
    plan = make_arm_plan(*table, seed, kHotModulus);
    for (const auto& arm : plan) {
      if (client->set_breakpoint(arm.filename, arm.line, arm.condition).empty()) {
        throw std::runtime_error("arming " + arm.filename + ":" +
                                 std::to_string(arm.line) + " failed: " +
                                 client->last_error());
      }
    }
    const uint64_t t4 = now_ns();
    times.total_ns = static_cast<double>(t4 - t0 - warm_ns);
    times.parts_ns["frontend.compile_ms"] = static_cast<double>(t1 - t0);
    times.parts_ns["symbols.load_ms"] = static_cast<double>(t2 - t1);
    times.parts_ns["debugger.connect_arm_ms"] = static_cast<double>(t4 - t3);
  }

  ~LiveSession() {
    try {
      client->disconnect();
    } catch (const std::exception&) {
      // Transport already gone; stop_service below still frees the sim.
    }
    runtime->stop_service();
  }

  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  netlist::Netlist netlist;
  std::unique_ptr<symbols::MemorySymbolTable> table;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<vpi::NativeBackend> backend;
  std::unique_ptr<TimedInterface> timing;
  std::unique_ptr<runtime::Runtime> runtime;
  DeadlineChannel* deadline_channel = nullptr;
  std::unique_ptr<debugger::DebugClient> client;
  std::vector<Arm> plan;
  size_t pool_threads = 1;  ///< eval pool size, counted from thread creation
};

struct Slice {
  uint64_t attached_ns = 0;
  uint64_t attached_cycles = 0;
  uint64_t bare_ns = 0;
  uint64_t bare_cycles = 0;
};

/// Everything one measured phase produces.
struct Phase {
  Latency stop_latency;
  std::vector<double> notify_us, evaluate_us, resume_us;  // raw
  std::vector<double> slowdowns;
  std::vector<Slice> slices;
  std::vector<StopRecord> stops;
  uint64_t end_cycle = 0;
  uint64_t count_window_pooled = 0;
  uint64_t count_window_stops = 0;
  double count_window_dirty_ratio = 0;
  Calibration calibration;
  bool aborted = false;
};

/// Drives `session` for `seconds`: the driving thread alternates attached
/// and bare slices; this thread answers stops. Before the driving thread
/// starts, and after each stop while the simulation is parked, this thread
/// samples the calibration kernel; that time is taken out of the attached
/// slice.
void run_phase(LiveSession& session, uint64_t seed, double seconds,
               bool count_window, SpanLog& spans, Report& report, Phase& phase,
               std::atomic<uint64_t>& stops_seen) {
  sim::Simulator bare(session.netlist);
  bare.run(warmup_cycles(seed));

  std::atomic<uint64_t> tick_start{0};
  std::atomic<int64_t> slice_index{-1};
  std::atomic<bool> done{false};
  std::atomic<bool> abort{false};
  std::atomic<uint64_t> calibration_ns{0};
  SpanLog sim_spans;
  sim_spans.enable(spans.enabled());
  Calibration& calibration = phase.calibration;
  calibration.sample();

  std::thread sim_thread([&] {
    auto& sim = *session.simulator;
    auto tick = [&] {
      tick_start.store(now_ns(), std::memory_order_release);
      sim.tick();
    };
    if (count_window) {
      // Exact per-seed counts over a fixed cycle window, read from the
      // runtime's own evaluate_batch spans (arg = batch member count).
      auto& recorder = obs::TraceRecorder::global();
      const auto before = session.runtime->stats();
      recorder.clear();
      recorder.start();
      const size_t cutoff = runtime::ThreadPool::kDefaultSerialCutoff;
      for (uint64_t i = 0; i < kCountWindowCycles && !abort.load(); ++i) {
        tick();
        if (i % 100 == 99 || i + 1 == kCountWindowCycles) {
          for (const auto& event : recorder.snapshot()) {
            if (std::string_view(event.name) == "evaluate_batch" &&
                event.has_arg && event.arg > cutoff) {
              ++phase.count_window_pooled;
            }
          }
          recorder.clear();
        }
      }
      recorder.stop();
      const auto after = session.runtime->stats();
      phase.count_window_stops = after.stops - before.stops;
      const double skips = static_cast<double>(after.dirty_skips - before.dirty_skips);
      const double evals = static_cast<double>(after.conditions_evaluated -
                                               before.conditions_evaluated);
      phase.count_window_dirty_ratio = skips + evals > 0 ? skips / (skips + evals) : 0;
    }
    const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
    while (!abort.load() && now_ns() < deadline) {
      Slice slice;
      slice_index.store(static_cast<int64_t>(phase.slices.size()),
                        std::memory_order_release);
      uint64_t start = now_ns();
      uint64_t now = start;
      const uint64_t c0 = sim.cycle();
      const uint64_t paused0 = calibration_ns.load(std::memory_order_acquire);
      while (!abort.load() && now - start < kAttachedSliceNs) {
        tick();
        now = now_ns();
      }
      slice.attached_ns =
          now - start - (calibration_ns.load(std::memory_order_acquire) - paused0);
      slice.attached_cycles = sim.cycle() - c0;
      sim_spans.add("sim", "attached_slice", start, now,
                       1'000'000 + phase.slices.size(), 2);
      start = now;
      const uint64_t b0 = bare.cycle();
      while (now - start < kBareSliceNs) {
        bare.tick();
        now = now_ns();
      }
      slice.bare_ns = now - start;
      slice.bare_cycles = bare.cycle() - b0;
      sim_spans.add("sim", "bare_slice", start, now,
                       1'000'000 + phase.slices.size(), 2);
      phase.slices.push_back(slice);
    }
    phase.end_cycle = sim.cycle();
    done.store(true, std::memory_order_release);
  });

  auto& client = *session.client;
  uint64_t resume_sent = 0;
  uint64_t op_id = 0;
  while (true) {
    std::optional<rpc::StopEvent> stop;
    try {
      stop = client.wait_stop(std::chrono::milliseconds(20));
    } catch (const std::exception& error) {
      report.fail(std::string("wait_stop: ") + error.what());
      break;
    }
    if (!stop) {
      if (done.load(std::memory_order_acquire)) break;
      const uint64_t started = tick_start.load(std::memory_order_acquire);
      if (started != 0 && now_ns() - started > kDeadlineNs &&
          now_ns() - resume_sent > kDeadlineNs) {
        report.fail("live: no stop or tick completion within the deadline");
        break;
      }
      continue;
    }
    const uint64_t t_notify = now_ns();
    stops_seen.fetch_add(1, std::memory_order_acq_rel);
    const int64_t slice = slice_index.load(std::memory_order_acquire);
    const uint64_t hit_start =
        std::max(tick_start.load(std::memory_order_acquire), resume_sent);
    ++op_id;
    ++report.attempted;
    const auto names = frame_local_names(*stop);
    std::vector<debugger::EvalResult> results;
    try {
      results = client.evaluate_batch(
          names, stop->frames.empty()
                     ? std::nullopt
                     : std::optional<int64_t>(stop->frames.front().breakpoint_id));
    } catch (const std::exception& error) {
      report.fail(std::string("evaluate_batch: ") + error.what());
      break;
    }
    const uint64_t t_done = now_ns();
    phase.stops.push_back(record_stop(*stop, rendered_values(results)));
    spans.add("session", "stop_notify", hit_start, t_notify, op_id, 1);
    spans.add("debugger", "evaluate_batch", t_notify, t_done, op_id, 1);
    spans.add("bench", "stop", hit_start, t_done, op_id, 1);
    const uint64_t c0 = now_ns();
    calibration.sample(1);
    const uint64_t c1 = now_ns();
    calibration_ns.fetch_add(c1 - c0, std::memory_order_acq_rel);
    spans.add("bench", "calibrate", c0, c1, op_id, 1);
    if (slice >= 0) {
      const double us = static_cast<double>(t_done - hit_start) / 1e3;
      phase.stop_latency.raw_us.push_back(us);
      phase.stop_latency.scaled_us.push_back(us / calibration.factor());
      phase.notify_us.push_back(static_cast<double>(t_notify - hit_start) / 1e3);
      phase.evaluate_us.push_back(static_cast<double>(t_done - t_notify) / 1e3);
    }
    resume_sent = now_ns();
    bool resumed = false;
    try {
      resumed = client.resume();
    } catch (const std::exception& error) {
      report.fail(std::string("resume: ") + error.what());
      break;
    }
    const uint64_t t_resumed = now_ns();
    spans.add("debugger", "resume", resume_sent, t_resumed, op_id, 1);
    if (!resumed) {
      report.fail("resume refused: " + client.last_error());
      break;
    }
    if (slice >= 0) {
      phase.resume_us.push_back(static_cast<double>(t_resumed - resume_sent) / 1e3);
    }
  }
  if (!done.load()) {
    // Free the driving thread: detach the client so stops stop parking
    // it, then shut the service down (wakes a parked handshake).
    phase.aborted = true;
    abort.store(true);
    try {
      client.detach();
    } catch (const std::exception&) {
    }
    session.runtime->stop_service();
  }
  sim_thread.join();
  if (session.deadline_channel->missed_deadline()) {
    report.fail("live: a request missed its deadline");
  }

  for (const auto& slice : phase.slices) {
    if (slice.attached_cycles == 0 || slice.bare_cycles == 0) continue;
    const double attached = static_cast<double>(slice.attached_ns) /
                            static_cast<double>(slice.attached_cycles);
    const double bare = static_cast<double>(slice.bare_ns) /
                        static_cast<double>(slice.bare_cycles);
    phase.slowdowns.push_back(attached / bare);
  }
  spans.append(sim_spans);
}

/// Direct-mode reference (untimed): the stops the same plan must produce
/// from the same start to `end_cycle`.
std::vector<StopRecord> reference_stops(uint64_t seed,
                                        const std::vector<Arm>& plan,
                                        uint64_t end_cycle) {
  auto compiled = compile_design();
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(std::move(compiled.netlist));
  simulator.run(warmup_cycles(seed));
  vpi::NativeBackend backend(simulator);
  DirectReference reference(backend, table, plan,
                            runtime::Runtime::Command::Continue);
  while (simulator.cycle() < end_cycle) simulator.tick();
  return reference.take();
}

void check_stops(const std::vector<StopRecord>& measured,
                 const std::vector<StopRecord>& reference, Report& report) {
  const size_t n = std::max(measured.size(), reference.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= measured.size()) {
      report.fail("live: missing stop at t=" + std::to_string(reference[i].time));
      ++report.attempted;  // a stop the session should have delivered
      continue;
    }
    if (i >= reference.size()) {
      report.fail("live: extra stop at t=" + std::to_string(measured[i].time));
      continue;
    }
    if (!(measured[i] == reference[i])) {
      report.fail("live: stop " + std::to_string(i) + " differs: got t=" +
                  std::to_string(measured[i].time) + " " + measured[i].signature +
                  " " + measured[i].values + " want t=" +
                  std::to_string(reference[i].time) + " " +
                  reference[i].signature + " " + reference[i].values);
    }
  }
}

}  // namespace

void run_live_session(const RunConfig& config, Report& report, SpanLog& spans) {
  std::atomic<uint64_t> stops_seen{0};

  // -- set-up, repeated; the median is setup_s ---------------------------------
  std::unique_ptr<LiveSession> session;
  measure_setup(kSetupReps, [&] {
    session.reset();
    SetupTimes times;
    session = std::make_unique<LiveSession>(config.seed, false, stops_seen, times);
    return times;
  }, report);
  const std::vector<Arm> plan = session->plan;

  // -- measured phase (tracing off) ---------------------------------------------
  Phase phase;
  const double untraced_seconds = config.trace ? config.seconds / 2 : config.seconds;
  SpanLog no_spans;
  run_phase(*session, config.seed, untraced_seconds, false, no_spans, report,
            phase, stops_seen);
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const auto stats = session->runtime->stats();
  const size_t eval_threads = session->runtime->options().eval_threads;
  const size_t pool_threads = session->pool_threads;
  session.reset();

  constexpr int kTail = 90;
  report.set_latency(phase.stop_latency, kTail);
  char note[128];
  std::snprintf(note, sizeof note, "median of %zu slice pairs",
                phase.slowdowns.size());
  report.set_e2e("slowdown", median(phase.slowdowns), "ratio", note);

  // -- output checks ---------------------------------------------------------------
  if (!phase.aborted) {
    check_stops(phase.stops, reference_stops(config.seed, plan, phase.end_cycle),
                report);
  }

  std::vector<double> bare_rate;
  for (const auto& slice : phase.slices) {
    bare_rate.push_back(static_cast<double>(slice.bare_cycles) /
                        (static_cast<double>(slice.bare_ns) / 1e9));
  }
  report.context["design"] = common_json(kDesign);
  report.context["eval_threads_option"] = common_json(static_cast<uint64_t>(eval_threads));
  report.context["eval_pool_threads"] = common_json(static_cast<uint64_t>(pool_threads));
  report.context["armed_locations"] = common_json(static_cast<uint64_t>(plan.size()));
  report.context["attached_cycles"] = common_json(phase.end_cycle);
  report.context["stops"] = common_json(static_cast<uint64_t>(phase.stops.size()));
  report.context["runtime_batches_evaluated"] = common_json(stats.batches_evaluated);
  report.context["calib_factor"] = common_json(phase.calibration.overall_factor());
  report.context["calib_refused"] = common_json(phase.calibration.refused());

  if (!config.trace) return;

  // -- traced phase: per-layer numbers ----------------------------------------------
  Phase traced;
  SetupTimes times;
  auto timed_session =
      std::make_unique<LiveSession>(config.seed, true, stops_seen, times);
  spans.enable(true);
  run_phase(*timed_session, config.seed, config.seconds / 2, true, spans, report,
            traced, stops_seen);
  spans.enable(false);
  const InterfaceTimes t = timed_session->timing->times();
  timed_session.reset();

  const double factor = traced.calibration.overall_factor();
  auto per_edge_us = [](uint64_t ns, uint64_t edges) {
    return edges == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(edges);
  };
  report.set_layer("sim.bare_cycles_per_s", median(bare_rate), "1/s", "raw");
  report.set_layer("vpi.fetch_us_per_edge", per_edge_us(t.fetch_ns, t.edges) / factor, "us");
  report.set_layer("runtime.edge_self_us",
                   per_edge_us(t.self_ns_no_stop, t.edges_no_stop) / factor, "us");
  report.set_layer("debugger.resume_us", median(traced.resume_us) / factor, "us");
  report.set_layer("runtime.pooled_batches",
                   static_cast<double>(traced.count_window_pooled), "count",
                   std::to_string(kCountWindowCycles) + "-cycle window");
  report.set_layer("runtime.dirty_skip_ratio", traced.count_window_dirty_ratio, "ratio");
  report.set_layer("runtime.stops_per_kcycle",
                   static_cast<double>(traced.count_window_stops) * 1000.0 /
                       static_cast<double>(kCountWindowCycles),
                   "1/kcycle");
  report.set_layer("session.stop_notify_us", median(traced.notify_us) / factor, "us");
  report.set_layer("debugger.evaluate_batch_us", median(traced.evaluate_us) / factor, "us");
  const double untraced_p50 = median(phase.stop_latency.scaled_us);
  const double traced_p50 = median(traced.stop_latency.scaled_us);
  report.set_layer("bench.trace_overhead_pct",
                   untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0,
                   "%", "traced vs untraced stop p50");
  report.set_layer("bench.calib_factor", factor, "ratio");
  report.context["waveform_block_loads"] = common_json(static_cast<uint64_t>(
      obs::MetricsRegistry::global().counter("waveform.block_cache.hits").value() +
      obs::MetricsRegistry::global().counter("waveform.block_cache.misses").value()));
  if (!traced.aborted) {
    check_stops(traced.stops, reference_stops(config.seed, plan, traced.end_cycle),
                report);
  }

  // -- unpinned phase: the slowdown with the pool's workers woken on other
  // CPUs, as a multi-core deployment runs it. Per layer, because on a
  // shared VM it swings too far between runs to carry a bound. -----------------
  Phase unpinned;
  {
    Unpinned anywhere;
    SetupTimes unused;
    auto free_session =
        std::make_unique<LiveSession>(config.seed, false, stops_seen, unused);
    run_phase(*free_session, config.seed, config.seconds / 4, false, no_spans, report,
              unpinned, stops_seen);
  }
  std::snprintf(note, sizeof note, "not pinned, median of %zu slice pairs",
                unpinned.slowdowns.size());
  report.set_layer("runtime.unpinned_slowdown", median(unpinned.slowdowns), "ratio", note);
  if (!unpinned.aborted) {
    check_stops(unpinned.stops, reference_stops(config.seed, plan, unpinned.end_cycle),
                report);
  }
}

}  // namespace perfbench
