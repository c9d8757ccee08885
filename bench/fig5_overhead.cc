// EXP-1 — Figure 5: "Benchmark performance for RocketChip under various
// testing conditions. Whether it is in baseline (optimized) or debug
// (unoptimized) mode, at no point does hgdb overhead exceed 5% of runtime."
//
// Two experiments, one machine-readable report (BENCH_fig5.json):
//
// 1. The paper's four-configuration table. For each of the ten workloads
//    this harness measures wall-clock simulation time and prints them
//    normalized to baseline, exactly like the figure's bars:
//      baseline            optimized compile, no hgdb attached
//      baseline + hgdb     optimized compile, hgdb attached (no breakpoints)
//      debug               DontTouch compile, no hgdb
//      debug + hgdb        DontTouch compile, hgdb attached
//    Expected shape: the two +hgdb columns sit within ~5% of their bases.
//    Cycle counts are auto-calibrated per workload so each measurement
//    runs for HGDB_BENCH_TARGET_MS of wall clock (default 300).
//
// 2. The condition-evaluation hot loop: the same armed-breakpoint scenario
//    run through the interpreted tree-walk reference
//    (RuntimeOptions::compiled_eval = false) and the compiled pipeline
//    (slot-resolved symbols + batched fetch + change-driven skip), in the
//    same process. Reported as conditions/second and ns/edge from the
//    runtime's eval_ns counter; "hot" arms conditions over signals that
//    change every cycle (pure engine speed), "quiet" over constants (the
//    dirty-set skip path).
//
// Environment: HGDB_BENCH_TARGET_MS (default 300), HGDB_BENCH_REPS (3),
// HGDB_BENCH_EVAL_CYCLES (20000), HGDB_BENCH_JSON (BENCH_fig5.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"
#include "workloads/workloads.h"

namespace {

using namespace hgdb;
using common::Json;

uint64_t env_or(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

/// One prepared configuration: compiled design + (optional) attached hgdb.
struct Cell {
  explicit Cell(const workloads::WorkloadInfo& info, bool debug_mode,
                bool with_hgdb) {
    frontend::CompileOptions options;
    options.debug_mode = debug_mode;
    auto compiled = frontend::compile(info.build(), options);
    table = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    simulator = std::make_unique<sim::Simulator>(std::move(compiled.netlist));
    backend = std::make_unique<vpi::NativeBackend>(*simulator);
    runtime = std::make_unique<runtime::Runtime>(*backend, *table);
    if (with_hgdb) runtime->attach();
  }

  /// Seconds for `cycles` further cycles (the workloads free-run, so
  /// repeated measurement reuses the same simulator).
  double measure(uint64_t cycles) {
    const auto start = std::chrono::steady_clock::now();
    simulator->run(cycles);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  std::unique_ptr<symbols::MemorySymbolTable> table;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<vpi::NativeBackend> backend;
  std::unique_ptr<runtime::Runtime> runtime;
};

/// Calibrates a per-workload cycle count hitting the wall-clock target.
uint64_t calibrate(const workloads::WorkloadInfo& info, double target_seconds) {
  frontend::CompileOptions options;
  auto compiled = frontend::compile(info.build(), options);
  sim::Simulator simulator(compiled.netlist);
  simulator.run(64);  // warm up
  const auto start = std::chrono::steady_clock::now();
  simulator.run(256);
  const double per_cycle =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      256.0;
  return std::max<uint64_t>(512, static_cast<uint64_t>(target_seconds / per_cycle));
}

// ---------------------------------------------------------------------------
// Experiment 2: condition-evaluation hot loop, interpreted vs compiled
// ---------------------------------------------------------------------------

/// A bank of workers with a conditional-breakpoint batch of `workers`
/// members at bench.cc:3. acc changes every cycle; bias never does.
std::string bench_circuit(size_t workers) {
  std::string text =
      "circuit BenchTop\n"
      "  module Worker\n"
      "    input clock : Clock\n"
      "    input bias : UInt<16>\n"
      "    output out : UInt<16>\n"
      "    reg acc : UInt<16> clock clock\n"
      "    connect acc = add(acc, bias) @[bench.cc 3 1]\n"
      "    connect out = acc @[bench.cc 4 1]\n"
      "  end\n"
      "  module BenchTop\n"
      "    input clock : Clock\n"
      "    output out : UInt<16>\n";
  for (size_t i = 0; i < workers; ++i) {
    const std::string w = "w" + std::to_string(i);
    text += "    inst " + w + " of Worker\n";
  }
  for (size_t i = 0; i < workers; ++i) {
    const std::string w = "w" + std::to_string(i);
    text += "    connect " + w + ".clock = clock\n";
    text += "    connect " + w + ".bias = UInt<16>(" +
            std::to_string(i * 3 + 1) + ")\n";
  }
  std::string sum = "w0.out";
  for (size_t i = 1; i < workers; ++i) {
    sum = "add(" + sum + ", w" + std::to_string(i) + ".out)";
  }
  text += "    connect out = " + sum + "\n  end\nend\n";
  return text;
}

struct EvalRun {
  double conditions_per_sec = 0;
  double ns_per_edge = 0;
  uint64_t conditions_evaluated = 0;
  uint64_t dirty_skips = 0;
  uint64_t batch_fetches = 0;
};

/// Runs `cycles` with a conditional breakpoint armed on every worker and
/// reports throughput from the runtime's own eval-time counter.
EvalRun run_eval(bool compiled_eval, const std::string& condition,
                 uint64_t cycles, size_t workers) {
  frontend::CompileOptions copt;
  copt.debug_mode = true;
  auto compiled = frontend::compile(
      ir::parse_circuit(bench_circuit(workers)), copt);
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(compiled.netlist);
  vpi::NativeBackend backend(simulator);
  runtime::RuntimeOptions options;
  options.compiled_eval = compiled_eval;
  runtime::Runtime runtime(backend, table, options);
  runtime.attach();
  if (runtime.add_breakpoint("bench.cc", 3, condition).size() != workers) {
    std::fprintf(stderr, "bench: failed to arm %zu conditions\n", workers);
    std::exit(1);
  }
  simulator.run(cycles);
  const auto stats = runtime.stats();
  EvalRun out;
  out.conditions_evaluated = stats.conditions_evaluated;
  out.dirty_skips = stats.dirty_skips;
  out.batch_fetches = stats.batch_fetches;
  const double eval_seconds = static_cast<double>(stats.eval_ns) / 1e9;
  // A dirty-skip still produces a verdict for its member, so both count
  // as completed condition checks.
  const double verdicts =
      static_cast<double>(stats.conditions_evaluated + stats.dirty_skips);
  out.conditions_per_sec = eval_seconds > 0 ? verdicts / eval_seconds : 0;
  out.ns_per_edge = stats.clock_edges != 0
                        ? static_cast<double>(stats.eval_ns) /
                              static_cast<double>(stats.clock_edges)
                        : 0;
  return out;
}

Json eval_json(const EvalRun& run) {
  Json out = Json::object();
  out["conditions_per_sec"] = Json(run.conditions_per_sec);
  out["ns_per_edge"] = Json(run.ns_per_edge);
  out["conditions_evaluated"] = Json(run.conditions_evaluated);
  out["dirty_skips"] = Json(run.dirty_skips);
  out["batch_fetches"] = Json(run.batch_fetches);
  return out;
}

}  // namespace

int main() {
  const double target_seconds =
      static_cast<double>(env_or("HGDB_BENCH_TARGET_MS", 300)) / 1000.0;
  const int reps = static_cast<int>(env_or("HGDB_BENCH_REPS", 3));
  const uint64_t eval_cycles = env_or("HGDB_BENCH_EVAL_CYCLES", 20000);
  const char* json_path_env = std::getenv("HGDB_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_fig5.json";
  constexpr size_t kWorkers = 8;

  Json report = Json::object();
  report["bench"] = Json(std::string("fig5_overhead"));
  Json config = Json::object();
  config["target_ms"] = Json(target_seconds * 1000.0);
  config["reps"] = Json(static_cast<int64_t>(reps));
  config["eval_cycles"] = Json(eval_cycles);
  config["eval_workers"] = Json(static_cast<int64_t>(kWorkers));
  report["config"] = std::move(config);

  // -- experiment 2 first: fast, and the headline number -----------------------
  std::printf(
      "condition-evaluation hot loop (%llu cycles, %zu conditional "
      "breakpoints)\n",
      static_cast<unsigned long long>(eval_cycles), kWorkers);
  std::printf("%-22s %18s %12s %12s %12s\n", "scenario", "conditions/s",
              "ns/edge", "evaluated", "dirty-skips");

  // Hot: inputs change every cycle — measures raw engine speed.
  const std::string hot_condition = "acc % 13 == 42 && acc * 3 > bias + 100";
  // Quiet: inputs are constants — measures the change-driven skip path.
  const std::string quiet_condition = "bias % 7 == 3 && bias * 5 > 1000";

  Json condition_eval = Json::object();
  double hot_speedup = 0;
  for (const auto& [label, condition] :
       {std::pair<std::string, std::string>{"hot", hot_condition},
        {"quiet", quiet_condition}}) {
    const EvalRun interpreted = run_eval(false, condition, eval_cycles, kWorkers);
    const EvalRun compiled = run_eval(true, condition, eval_cycles, kWorkers);
    const double speedup =
        interpreted.conditions_per_sec > 0
            ? compiled.conditions_per_sec / interpreted.conditions_per_sec
            : 0;
    if (label == "hot") hot_speedup = speedup;
    std::printf("%-22s %18.0f %12.1f %12llu %12llu\n",
                (label + " interpreted").c_str(),
                interpreted.conditions_per_sec, interpreted.ns_per_edge,
                static_cast<unsigned long long>(interpreted.conditions_evaluated),
                static_cast<unsigned long long>(interpreted.dirty_skips));
    std::printf("%-22s %18.0f %12.1f %12llu %12llu  (%.1fx)\n",
                (label + " compiled").c_str(), compiled.conditions_per_sec,
                compiled.ns_per_edge,
                static_cast<unsigned long long>(compiled.conditions_evaluated),
                static_cast<unsigned long long>(compiled.dirty_skips), speedup);
    Json scenario = Json::object();
    scenario["interpreted"] = eval_json(interpreted);
    scenario["compiled"] = eval_json(compiled);
    scenario["speedup"] = Json(speedup);
    condition_eval[label] = std::move(scenario);
  }
  report["condition_eval"] = std::move(condition_eval);

  // -- experiment 1: the Fig. 5 table ------------------------------------------
  std::printf(
      "\nEXP-1 / Figure 5: simulation time normalized to baseline "
      "(~%.0f ms per cell, best of %d)\n",
      target_seconds * 1000, reps);
  std::printf("%-10s %10s %15s %10s %13s %11s %11s\n", "workload", "baseline",
              "baseline+hgdb", "debug", "debug+hgdb", "ovh(base)%", "ovh(dbg)%");

  Json fig5 = Json::array();
  double worst_base_overhead = 0;
  double worst_debug_overhead = 0;
  for (const auto& info : workloads::fig5_workloads()) {
    const uint64_t cycles = calibrate(info, target_seconds);
    // Interleave the four configurations within each repetition and form
    // the normalized ratios from measurements adjacent in time, then take
    // the median ratio across repetitions: pairing cancels slow drifts in
    // machine load that independent min-of-N cannot.
    Cell cells[4] = {Cell(info, false, false), Cell(info, false, true),
                     Cell(info, true, false), Cell(info, true, true)};
    std::vector<double> ratio_base_hgdb, ratio_debug, ratio_debug_hgdb;
    for (int rep = 0; rep < reps; ++rep) {
      const double t0 = cells[0].measure(cycles);
      const double t1 = cells[1].measure(cycles);
      const double t2 = cells[2].measure(cycles);
      const double t3 = cells[3].measure(cycles);
      ratio_base_hgdb.push_back(t1 / t0);
      ratio_debug.push_back(t2 / t0);
      ratio_debug_hgdb.push_back(t3 / t2);  // debug overhead paired with t2
    }
    auto median = [](std::vector<double>& values) {
      std::sort(values.begin(), values.end());
      return values[values.size() / 2];
    };
    const double base = 1.0;
    const double base_hgdb = median(ratio_base_hgdb);
    const double debug = median(ratio_debug);
    const double debug_hgdb = debug * median(ratio_debug_hgdb);
    const double base_overhead = (base_hgdb / base - 1.0) * 100.0;
    const double debug_overhead = (debug_hgdb / debug - 1.0) * 100.0;
    worst_base_overhead = std::max(worst_base_overhead, base_overhead);
    worst_debug_overhead = std::max(worst_debug_overhead, debug_overhead);
    std::printf("%-10s %10.3f %15.3f %10.3f %13.3f %10.2f%% %10.2f%%\n",
                info.name.c_str(), 1.0, base_hgdb / base, debug / base,
                debug_hgdb / base, base_overhead, debug_overhead);
    Json row = Json::object();
    row["workload"] = Json(info.name);
    row["baseline"] = Json(1.0);
    row["baseline_hgdb"] = Json(base_hgdb);
    row["debug"] = Json(debug);
    row["debug_hgdb"] = Json(debug_hgdb);
    row["overhead_base_pct"] = Json(base_overhead);
    row["overhead_debug_pct"] = Json(debug_overhead);
    fig5.push_back(std::move(row));
  }
  report["fig5"] = std::move(fig5);
  report["max_overhead_base_pct"] = Json(worst_base_overhead);
  report["max_overhead_debug_pct"] = Json(worst_debug_overhead);
  report["hot_speedup"] = Json(hot_speedup);

  std::printf(
      "\nmax hgdb overhead: %.2f%% (baseline), %.2f%% (debug) -- paper claims "
      "< 5%% in both modes\n",
      worst_base_overhead, worst_debug_overhead);
  std::printf("compiled hot-loop speedup over interpreted: %.1fx\n",
              hot_speedup);

  std::ofstream out(json_path);
  out << report.dump() << "\n";
  out.close();
  if (!out.good()) {
    std::fprintf(stderr, "error: failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
