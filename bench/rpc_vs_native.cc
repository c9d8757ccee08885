// EXP-5 — Fig. 1 design ablation: why hgdb uses *native* calls for the
// timing-sensitive simulator interface but allows RPC for debugger and
// symbol-table interactions.
//
// Measures, per operation:
//   - native simulator get_value (the per-breakpoint hot path)
//   - in-memory symbol-table queries
//   - SQLite symbol-table queries
//   - a full debugger evaluation round-trip over an in-process Unix
//     socketpair (rpc::make_channel_pair)
//   - the same round-trip over loopback TCP
//
// Expected shape: native value reads are orders of magnitude cheaper than
// any RPC round-trip — running them through RPC at every clock edge would
// dwarf the <5% budget, while per-interaction RPC (user typing commands)
// is irrelevant.
#include <benchmark/benchmark.h>

#include <thread>

#include "debugger/client.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "symbols/sqlite_store.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace {

using namespace hgdb;

constexpr const char* kDesign = R"(circuit Demo
  module Demo
    input clock : Clock
    output out : UInt<8>
    reg cycle_reg : UInt<8> clock clock
    connect cycle_reg = add(cycle_reg, UInt<8>(1)) @[demo.cc 5 1]
    wire t : UInt<8> @[demo.cc 6 1]
    connect t = add(cycle_reg, UInt<8>(7)) @[demo.cc 7 1]
    connect out = t @[demo.cc 8 1]
  end
end
)";

frontend::CompileResult& compiled() {
  static frontend::CompileResult result = [] {
    frontend::CompileOptions options;
    options.debug_mode = true;
    return frontend::compile(ir::parse_circuit(kDesign), options);
  }();
  return result;
}

void BM_NativeGetValue(benchmark::State& state) {
  sim::Simulator simulator(compiled().netlist);
  vpi::NativeBackend backend(simulator);
  simulator.run(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.get_value("Demo.cycle_reg"));
  }
}
BENCHMARK(BM_NativeGetValue);

void BM_MemorySymbolLookup(benchmark::State& state) {
  symbols::MemorySymbolTable table(compiled().symbols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.breakpoints_at("demo.cc", 7));
  }
}
BENCHMARK(BM_MemorySymbolLookup);

void BM_SqliteSymbolLookup(benchmark::State& state) {
  const std::string path = "/tmp/hgdb_bench_symbols.db";
  symbols::SqliteSymbolTable::save(compiled().symbols, path);
  symbols::SqliteSymbolTable table(path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.breakpoints_at("demo.cc", 7));
  }
}
BENCHMARK(BM_SqliteSymbolLookup);

void BM_RpcEvaluateInProcess(benchmark::State& state) {
  sim::Simulator simulator(compiled().netlist);
  vpi::NativeBackend backend(simulator);
  symbols::MemorySymbolTable table(compiled().symbols);
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  simulator.run(2);
  auto [client_side, server_side] = rpc::make_channel_pair();
  runtime.serve(std::move(server_side));
  debugger::DebugClient client(std::move(client_side));
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.evaluate("cycle_reg + 1", std::nullopt));
  }
  runtime.stop_service();
}
BENCHMARK(BM_RpcEvaluateInProcess);

void BM_RpcEvaluateOverTcp(benchmark::State& state) {
  sim::Simulator simulator(compiled().netlist);
  vpi::NativeBackend backend(simulator);
  symbols::MemorySymbolTable table(compiled().symbols);
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  simulator.run(2);

  rpc::TcpServer server;
  std::unique_ptr<rpc::Channel> server_side;
  std::thread acceptor([&] { server_side = server.accept(); });
  auto client_channel = rpc::tcp_connect("127.0.0.1", server.port());
  acceptor.join();
  runtime.serve(std::move(server_side));
  debugger::DebugClient client(std::move(client_channel));

  for (auto _ : state) {
    benchmark::DoNotOptimize(client.evaluate("cycle_reg + 1", std::nullopt));
  }
  runtime.stop_service();
}
BENCHMARK(BM_RpcEvaluateOverTcp);

}  // namespace

BENCHMARK_MAIN();
