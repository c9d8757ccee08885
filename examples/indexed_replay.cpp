// Production-scale offline debugging: dump the .wvx waveform index
// straight from the simulator (no VCD text round-trip), then debug the
// *index* with the same hgdb runtime — identical breakpoints and time
// travel as examples/trace_replay, but the trace never materializes in
// RAM: residency is bounded by the LRU block cache regardless of dump
// size, and reads go through an mmap'd region when the platform allows.
//
// Run: build/examples/indexed_replay
#include <cstdio>
#include <iostream>

#include "frontend/compile.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "symbols/symbol_table.h"
#include "trace/replay.h"
#include "vpi/replay_backend.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "workloads/workloads.h"

using namespace hgdb;
using Command = runtime::Runtime::Command;

int main() {
  const std::string wvx_path = "/tmp/hgdb_indexed_replay.wvx";

  // -- 1. "Overnight regression": simulate and dump; no debugger attached.
  //       A .wvx path makes the VcdWriter stream the v3 index directly
  //       (varint/delta blocks, alias dedup) — the only pass over the
  //       trace; every later debug session opens in O(header + directory).
  frontend::CompileOptions options;
  options.debug_mode = true;
  auto compiled = frontend::compile(workloads::workload("towers").build(),
                                    options);
  {
    sim::Simulator simulator(compiled.netlist);
    sim::VcdWriter writer(simulator, wvx_path);
    writer.attach();
    simulator.run(400);
    writer.finish();
  }

  // -- 2. Attach hgdb to the index through a small LRU cache (8 blocks).
  auto source = std::make_shared<waveform::IndexedWaveform>(
      wvx_path, /*cache_blocks=*/8);
  std::cout << "index: format v" << source->version() << " ("
            << source->codec_name() << " codec), " << source->signal_count()
            << " signals, "
            << source->total_blocks() << " blocks on disk, cache capacity "
            << source->cache_capacity() << " blocks\n";

  vpi::ReplayBackend backend{trace::ReplayEngine(source)};
  symbols::MemorySymbolTable table(compiled.symbols);
  runtime::Runtime runtime(backend, table);
  runtime.attach();

  // -- 4. Same conditional-breakpoint session as the in-memory example.
  const auto first_bp = table.all_breakpoints().front();
  auto ids = runtime.add_breakpoint(first_bp.filename, first_bp.line_num,
                                    "moves > 50");
  std::cout << "conditional breakpoint 'moves > 50' at " << first_bp.filename
            << ":" << first_bp.line_num << " (" << ids.size()
            << " inserted)\n";

  int stops = 0;
  uint64_t first_hit_time = 0;
  runtime.set_stop_handler([&](const rpc::StopEvent& event) {
    if (++stops == 1) first_hit_time = event.time;
    return Command::Continue;
  });
  backend.run_forward();
  std::cout << "hits across the trace: " << stops << " (first @ time "
            << first_hit_time << ")\n";

  // -- 5. Random time travel stays cheap: each jump is a directory binary
  //       search plus at most one block load.
  backend.set_time(first_hit_time);
  std::cout << "jumped back to time " << first_hit_time << ": moves = "
            << runtime.evaluate("moves", std::nullopt)->to_string() << "\n";

  const auto stats = source->cache_stats();
  std::cout << "cache after the whole session: " << stats.hits << " hits, "
            << stats.misses << " misses, peak resident " << stats.peak_resident
            << "/" << source->cache_capacity() << " blocks\n";

  std::remove(wvx_path.c_str());
  return 0;
}
