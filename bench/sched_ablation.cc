// EXP-4 — Fig. 2 design ablation: the loop-based breakpoint scheduler
//  (a) exits immediately when no breakpoint is inserted (the fast path that
//      keeps Fig. 5's overhead under 5%), and
//  (b) evaluates a batch of same-line breakpoints one after another on the
//      simulation thread; the batch-size sweep shows how that cost grows
//      with the number of concurrent instances ("threads") on one line;
//  (c) in continue mode visits only the lines with an inserted breakpoint,
//      so one armed line costs the same however many lines the table has.
//
// Uses a synthetic simulator interface so only scheduler cost is measured.
#include <benchmark/benchmark.h>

#include "runtime/runtime.h"
#include "symbols/symbol_table.h"
#include "vpi/sim_interface.h"

namespace {

using namespace hgdb;

/// Simulator stub: constant-value signals, manual edge injection.
class StubBackend final : public vpi::SimulatorInterface {
 public:
  std::optional<common::BitVector> get_value(const std::string&) override {
    return common::BitVector(16, value_++ & 0xffff);
  }
  std::vector<std::string> signal_names() const override { return {}; }
  std::vector<std::string> clock_names() const override { return {"clock"}; }
  uint64_t add_clock_callback(ClockCallback callback) override {
    callbacks_.push_back(std::move(callback));
    return callbacks_.size();
  }
  void remove_clock_callback(uint64_t) override { callbacks_.clear(); }
  [[nodiscard]] uint64_t get_time() const override { return time_; }

  void edge() {
    time_ += 2;
    for (auto& callback : callbacks_) callback(vpi::ClockEdge::Rising, time_);
  }

 private:
  std::vector<ClockCallback> callbacks_;
  uint64_t time_ = 1;
  uint32_t value_ = 0;
};

/// Symbol table with `lines` source lines x `threads` breakpoints per line,
/// each carrying a small enable condition.
symbols::SymbolTableData synthetic_table(size_t lines, size_t threads) {
  symbols::SymbolTableData data;
  data.instances.push_back({1, "Top"});
  int64_t bp_id = 1;
  for (size_t line = 1; line <= lines; ++line) {
    for (size_t thread = 0; thread < threads; ++thread) {
      data.breakpoints.push_back(symbols::BreakpointRow{
          bp_id++, 1, "gen.cc", static_cast<uint32_t>(line), 0,
          "sig" + std::to_string(thread) + " % 2 == 0",
          static_cast<uint32_t>(thread)});
    }
  }
  return data;
}

/// Fast path: breakpoints exist in the table, none inserted.
void BM_FastPathEdge(benchmark::State& state) {
  StubBackend backend;
  symbols::MemorySymbolTable table(
      synthetic_table(static_cast<size_t>(state.range(0)), 4));
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  for (auto _ : state) backend.edge();
  state.counters["table_bps"] =
      static_cast<double>(table.data().breakpoints.size());
}
BENCHMARK(BM_FastPathEdge)->Arg(1)->Arg(64)->Arg(1024)->MinTime(0.05);

/// One inserted line with N concurrent "threads", evaluated per edge.
void BM_BatchEvaluation(benchmark::State& state) {
  const size_t threads_per_line = static_cast<size_t>(state.range(0));
  StubBackend backend;
  symbols::MemorySymbolTable table(synthetic_table(1, threads_per_line));
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  runtime.set_stop_handler(
      [](const rpc::StopEvent&) { return runtime::Runtime::Command::Continue; });
  runtime.add_breakpoint("gen.cc", 1);
  for (auto _ : state) backend.edge();
  state.counters["conditions"] = benchmark::Counter(
      static_cast<double>(runtime.stats().conditions_evaluated),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchEvaluation)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->ArgName("bps")
    ->MinTime(0.05);

/// Scan cost with many inserted lines (worst case: every line inserted,
/// none hit — conditions all false).
void BM_FullScanNoHits(benchmark::State& state) {
  const size_t lines = static_cast<size_t>(state.range(0));
  StubBackend backend;
  // Enable conditions reference sig0; StubBackend alternates values, so
  // roughly half the edges miss entirely after condition evaluation.
  symbols::SymbolTableData data;
  data.instances.push_back({1, "Top"});
  for (size_t line = 1; line <= lines; ++line) {
    data.breakpoints.push_back(symbols::BreakpointRow{
        static_cast<int64_t>(line), 1, "gen.cc", static_cast<uint32_t>(line),
        0, "sig0 > 70000", 0});  // never true: 16-bit values
  }
  symbols::MemorySymbolTable table(std::move(data));
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  for (size_t line = 1; line <= lines; ++line) {
    runtime.add_breakpoint("gen.cc", static_cast<uint32_t>(line));
  }
  for (auto _ : state) backend.edge();
}
BENCHMARK(BM_FullScanNoHits)->Arg(16)->Arg(128)->Arg(1024)->MinTime(0.05);

/// Continue-mode scan with one inserted line out of N, never hitting: the
/// scan visits only the armed batch, so the per-edge cost should not grow
/// with N.
void BM_SparseArmedScan(benchmark::State& state) {
  const size_t lines = static_cast<size_t>(state.range(0));
  StubBackend backend;
  symbols::SymbolTableData data;
  data.instances.push_back({1, "Top"});
  for (size_t line = 1; line <= lines; ++line) {
    data.breakpoints.push_back(symbols::BreakpointRow{
        static_cast<int64_t>(line), 1, "gen.cc", static_cast<uint32_t>(line),
        0, "sig0 > 70000", 0});  // never true: 16-bit values
  }
  symbols::MemorySymbolTable table(std::move(data));
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  runtime.add_breakpoint("gen.cc", static_cast<uint32_t>(lines / 2));
  for (auto _ : state) backend.edge();
  state.counters["batches_per_edge"] =
      static_cast<double>(runtime.stats().batches_evaluated) /
      static_cast<double>(runtime.stats().clock_edges);
}
BENCHMARK(BM_SparseArmedScan)->Arg(16)->Arg(128)->Arg(1024)->MinTime(0.05);

}  // namespace

BENCHMARK_MAIN();
