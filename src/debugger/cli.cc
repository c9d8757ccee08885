// hgdb-cli: the gdb-inspired interactive debugger from the paper's
// Sec. 3.5, driving one of the Fig. 5 workloads under the native RTL
// simulator. The debugger talks to the runtime over the same RPC protocol
// an IDE would use; the simulation runs on a background thread like a
// live simulator process.
//
// Usage: hgdb-cli <workload> [--optimized] [--cycles N]
//                 [--replay vcd|wvx|<dump-path>] [--dap [port]]
//                 [--binary-events]
//        hgdb-cli wvx-verify <file.wvx>
//        hgdb-cli wvx-convert <in.vcd> <out.wvx> [--no-checksums]
//                 [--block-cap N] [--shard-by scope|none]
//   workload: multiply | mm | mt-matmul | vvadd | qsort | dhrystone |
//             median | towers | spmv | mt-vvadd | fpu
//
// --dap additionally serves the Debug Adapter Protocol on loopback TCP
// (0/omitted = ephemeral; the bound port is printed), so VSCode can
// attach to the same simulation the REPL is debugging.
//
// The REPL speaks debug protocol v2 natively: it negotiates capabilities
// at connect time (so reverse/jump availability is known up front) and
// exposes the v2 request families (watchpoints, hierarchy browsing,
// batched evaluation, stats).
//
// `wvx-verify` checks a waveform index (any format version), reporting
// the version, block codec and alias table, verifying per-block checksums
// and naming the first corrupt block with a typed fault class.
// `wvx-convert` converts a VCD dump to a v4 index offline (per-signal
// codec auto-selection, one stream per alias group); older versions are
// read-only.
// --shard-by scope splits the output into per-scope shard files behind a
// manifest; the conversion runs on the calling thread and shard content
// depends only on the dump.
//
// With --replay the workload is first simulated to a trace dump, then the
// same REPL attaches to the *trace* through the replay backend (paper
// Sec. 3.3): identical commands, free time travel, no live simulator.
// "vcd" debugs the dump through the in-memory trace::VcdTrace; "wvx"
// dumps the waveform index *directly* from the simulator (no VCD text
// round-trip) and debugs through waveform::IndexedWaveform with
// LRU-bounded residency, reading blocks with pread. An existing .vcd/.wvx
// path (single-file or shard manifest — they are opened the same way)
// skips the simulation and replays that dump directly.
//
// An unknown flag or a second workload name is rejected (exit 2).
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "debugger/client.h"
#include "frontend/compile.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "symbols/symbol_table.h"
#include "trace/vcd_reader.h"
#include "vpi/native_backend.h"
#include "vpi/replay_backend.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "waveform/sharded_writer.h"
#include "waveform/wvx_verify.h"
#include "workloads/workloads.h"

namespace {

using namespace hgdb;

void print_json(const common::Json& value, int indent) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (value.is_object()) {
    for (const auto& [key, child] : value.as_object()) {
      if (child.is_object()) {
        std::cout << pad << key << ":\n";
        print_json(child, indent + 1);
      } else {
        std::cout << pad << key << " = " << (child.is_string()
                                                 ? child.as_string()
                                                 : child.dump())
                  << "\n";
      }
    }
  } else {
    std::cout << pad << value.dump() << "\n";
  }
}

void print_stop(const rpc::StopEvent& stop) {
  std::cout << "stopped at time " << stop.time << ", " << stop.frames.size()
            << " thread(s)\n";
  for (size_t i = 0; i < stop.frames.size(); ++i) {
    const auto& frame = stop.frames[i];
    std::cout << "  [" << i << "] " << frame.instance_name << " at "
              << frame.filename << ":" << frame.line << " (bp "
              << frame.breakpoint_id << ")\n";
    if (!frame.locals.as_object().empty()) {
      std::cout << "    locals:\n";
      print_json(frame.locals, 3);
    }
  }
  for (const auto& hit : stop.watch_hits) {
    std::cout << "  watch " << hit.id << ": " << hit.expression << " changed "
              << hit.old_value << " -> " << hit.new_value << "\n";
  }
}

void print_capabilities(const debugger::DebugClient& client) {
  if (!client.capabilities()) return;
  const auto& caps = *client.capabilities();
  std::cout << "connected (protocol v" << caps.protocol_version << ", "
            << caps.backend << " backend; time travel "
            << (caps.time_travel ? "yes" : "no") << ", set-value "
            << (caps.set_value ? "yes" : "no") << ")\n";
}

/// The gdb-style command loop, shared by live and replay sessions.
/// `on_first_run`, when set, fires before the first c/s/rs/rc/wait command —
/// replay sessions use it to hold the trace until breakpoints are in place.
void run_repl(debugger::DebugClient& client, const std::atomic<bool>& done,
              const std::string& finished_message,
              std::function<void()> on_first_run = {}) {
  std::optional<rpc::StopEvent> current_stop;
  std::string line;
  while (std::cout << "(hgdb) " << std::flush, std::getline(std::cin, line)) {
    std::istringstream input(line);
    std::string command;
    input >> command;
    if (command.empty()) continue;
    try {
      if (command == "help") {
        std::cout << "b <file>:<line> [cond]  set breakpoint\n"
                     "d <file>:<line>         delete breakpoint\n"
                     "l <file>                list breakpoint lines\n"
                     "c / s / rs / rc         continue / step / reverse-step /"
                     " reverse-continue\n"
                     "j <time>                jump to absolute time"
                     " (needs time travel)\n"
                     "wait                    wait for the next stop\n"
                     "p <expr>                evaluate in current frame\n"
                     "pp <e1> ; <e2> ; ...    batched evaluation\n"
                     "watch <expr>            stop when the value changes\n"
                     "unwatch <id>            remove a watchpoint\n"
                     "sub [N] [@T] <sig>...   stream value changes (every Nth"
                     " event; @T = min sim-time between events)\n"
                     "unsub <id>              cancel a subscription\n"
                     "vwait                   wait for the next value event\n"
                     "instances               list design instances\n"
                     "vars <instance>         list an instance's variables\n"
                     "frames                  show last stop\n"
                     "info / files / stats    runtime info / source files /"
                     " counters\n"
                     "metrics                 Prometheus exposition of the"
                     " runtime's registry\n"
                     "trace start|stop|dump <file>  control the span recorder"
                     " / write Perfetto JSON\n"
                     "caps                    negotiated capabilities\n"
                     "q                       quit\n";
      } else if (command == "b" || command == "d") {
        std::string location;
        input >> location;
        const size_t colon = location.rfind(':');
        if (colon == std::string::npos) {
          std::cout << "expected <file>:<line>\n";
          continue;
        }
        const std::string file = location.substr(0, colon);
        const uint32_t line_number =
            static_cast<uint32_t>(std::stoul(location.substr(colon + 1)));
        if (command == "b") {
          std::string condition;
          std::getline(input, condition);
          auto ids = client.set_breakpoint(file, line_number, condition);
          if (ids.empty()) {
            std::cout << "error: " << client.last_error() << "\n";
          } else {
            std::cout << "inserted " << ids.size() << " breakpoint(s)\n";
          }
        } else {
          std::cout << "removed " << client.remove_breakpoint(file, line_number)
                    << " breakpoint(s)\n";
        }
      } else if (command == "l") {
        std::string file;
        input >> file;
        auto list = client.list_locations(file);
        for (const auto& entry : list.as_array()) {
          std::cout << "  " << entry.get_string("filename") << ":"
                    << entry.get_int("line") << " [" << entry.get_string("instance")
                    << "]\n";
        }
      } else if (command == "c" || command == "s" || command == "rs" ||
                 command == "rc" || command == "wait") {
        if (on_first_run) {
          on_first_run();
          on_first_run = nullptr;
        }
        bool ok = true;
        if (command == "c") ok = client.resume();
        if (command == "s") ok = client.step_over();
        if (command == "rs") ok = client.step_back();
        if (command == "rc") ok = client.reverse_resume();
        if (!ok && command != "wait") {
          // Not stopped yet (e.g. first 'c' after setting breakpoints).
          std::cout << "(simulation running)\n";
        }
        current_stop = client.wait_stop(std::chrono::milliseconds(2000));
        if (current_stop) {
          print_stop(*current_stop);
        } else if (done.load()) {
          std::cout << finished_message << "\n";
        } else {
          std::cout << "(no stop within 2s; still running)\n";
        }
      } else if (command == "p") {
        std::string expression;
        std::getline(input, expression);
        std::optional<int64_t> scope;
        if (current_stop && !current_stop->frames.empty()) {
          scope = current_stop->frames[0].breakpoint_id;
        }
        auto result = client.evaluate(expression, scope);
        if (result) {
          std::cout << "= " << *result << "\n";
        } else {
          std::cout << "error: " << client.last_error() << "\n";
        }
      } else if (command == "pp") {
        std::string rest;
        std::getline(input, rest);
        std::vector<std::string> expressions;
        std::istringstream splitter(rest);
        std::string expression;
        while (std::getline(splitter, expression, ';')) {
          const auto begin = expression.find_first_not_of(" \t");
          if (begin == std::string::npos) continue;
          const auto end = expression.find_last_not_of(" \t");
          expressions.push_back(expression.substr(begin, end - begin + 1));
        }
        std::optional<int64_t> scope;
        if (current_stop && !current_stop->frames.empty()) {
          scope = current_stop->frames[0].breakpoint_id;
        }
        for (const auto& result : client.evaluate_batch(expressions, scope)) {
          std::cout << "  " << result.expression << " = "
                    << (result.ok ? result.value : "<" + result.reason + ">")
                    << "\n";
        }
      } else if (command == "watch") {
        std::string expression;
        std::getline(input, expression);
        if (auto id = client.watch(expression)) {
          std::cout << "watchpoint " << *id << " armed\n";
        } else {
          std::cout << "error: " << client.last_error() << "\n";
        }
      } else if (command == "unwatch") {
        int64_t id = 0;
        input >> id;
        if (client.unwatch(id)) {
          std::cout << "watchpoint " << id << " removed\n";
        } else {
          std::cout << "error: " << client.last_error() << "\n";
        }
      } else if (command == "sub") {
        uint32_t decimation = 1;
        uint64_t min_interval = 0;
        std::vector<std::string> signals;
        std::string word;
        bool first = true;
        while (input >> word) {
          if (first && !word.empty() && word.size() <= 9 &&
              word.find_first_not_of("0123456789") == std::string::npos) {
            decimation = static_cast<uint32_t>(std::stoul(word));
          } else if (signals.empty() && word.size() > 1 && word[0] == '@' &&
                     word.find_first_not_of("0123456789", 1) ==
                         std::string::npos) {
            min_interval = std::stoull(word.substr(1));
          } else {
            signals.push_back(word);
          }
          first = false;
        }
        if (signals.empty()) {
          std::cout << "usage: sub [N] [@T] <signal> [signal...]\n";
        } else if (auto id =
                       client.subscribe(signals, decimation, "", min_interval)) {
          std::cout << "subscription " << *id << " armed (1 of every "
                    << decimation << " events";
          if (min_interval != 0) {
            std::cout << ", >= " << min_interval << " sim-time apart";
          }
          std::cout << ")\n";
        } else {
          std::cout << "error: " << client.last_error() << "\n";
        }
      } else if (command == "unsub") {
        int64_t id = 0;
        input >> id;
        if (client.unsubscribe(id)) {
          std::cout << "subscription " << id << " removed\n";
        } else {
          std::cout << "error: " << client.last_error() << "\n";
        }
      } else if (command == "vwait") {
        auto event = client.wait_values(std::chrono::milliseconds(2000));
        if (event) {
          std::cout << "values @" << event->time << " (sub "
                    << event->subscription << "):\n";
          for (const auto& change : event->changes) {
            std::cout << "  " << change.signal << " = " << change.value
                      << " (" << change.width << "b)\n";
          }
        } else if (done.load()) {
          std::cout << finished_message << "\n";
        } else {
          std::cout << "(no value event within 2s)\n";
        }
      } else if (command == "j") {
        uint64_t time = 0;
        input >> time;
        if (client.jump(time)) {
          std::cout << "jumped to time " << time << "\n";
        } else {
          std::cout << "error: " << client.last_error() << "\n";
        }
      } else if (command == "instances") {
        // Keep the Json alive for the loop (as_array() returns a member
        // reference; iterating a temporary's member dangles).
        const auto instances = client.list_instances();
        for (const auto& entry : instances.as_array()) {
          std::cout << "  [" << entry.get_int("id") << "] "
                    << entry.get_string("name") << "\n";
        }
      } else if (command == "vars") {
        std::string instance;
        input >> instance;
        const auto variables = client.list_variables(instance);
        if (client.last_error_code() != rpc::ErrorCode::None) {
          std::cout << "error: " << client.last_error() << "\n";
        } else if (variables.size() == 0) {
          std::cout << "(no variables)\n";
        } else {
          for (const auto& entry : variables.as_array()) {
            std::cout << "  " << entry.get_string("name") << " = "
                      << entry.get_string("value") << "\n";
          }
        }
      } else if (command == "stats") {
        print_json(client.stats(), 1);
      } else if (command == "metrics") {
        const std::string text = client.metrics();
        if (text.empty()) {
          std::cout << "error: " << client.last_error() << "\n";
        } else {
          std::cout << text;
        }
      } else if (command == "trace") {
        std::string action;
        input >> action;
        if (action == "start" || action == "stop" || action == "clear" ||
            action == "status") {
          const auto status = client.trace_control(action);
          if (client.last_error_code() != rpc::ErrorCode::None) {
            std::cout << "error: " << client.last_error() << "\n";
          } else {
            print_json(status, 1);
          }
        } else if (action == "dump") {
          std::string path;
          input >> path;
          if (path.empty()) {
            std::cout << "usage: trace dump <file>\n";
            continue;
          }
          const std::string json = client.trace_dump();
          if (json.empty()) {
            std::cout << "error: " << client.last_error() << "\n";
            continue;
          }
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          if (!out) {
            std::cout << "cannot open " << path << "\n";
            continue;
          }
          out << json;
          std::cout << "wrote " << json.size() << " bytes to " << path
                    << " (load in ui.perfetto.dev or chrome://tracing)\n";
        } else {
          std::cout << "usage: trace start|stop|clear|status|dump <file>\n";
        }
      } else if (command == "caps") {
        print_capabilities(client);
      } else if (command == "frames") {
        if (current_stop) print_stop(*current_stop);
      } else if (command == "info") {
        print_json(client.info(), 1);
      } else if (command == "files") {
        auto info = client.info();
        for (const auto& file : info["files"].as_array()) {
          std::cout << "  " << file.as_string() << "\n";
        }
      } else if (command == "q" || command == "quit") {
        break;
      } else {
        std::cout << "unknown command '" << command << "' (try 'help')\n";
      }
    } catch (const std::exception& error) {
      std::cout << "error: " << error.what() << "\n";
    }
  }
}

/// Builds and compiles the named workload (shared by live and replay).
frontend::CompileResult compile_workload(const std::string& name,
                                         bool debug_mode) {
  std::unique_ptr<ir::Circuit> circuit;
  if (name == "fpu") {
    circuit = workloads::build_fpu_compare(/*with_bug=*/true);
  } else {
    circuit = workloads::workload(name).build();
  }
  frontend::CompileOptions options;
  options.debug_mode = debug_mode;
  return frontend::compile(std::move(circuit), options);
}

/// Deletes the replay dump files however the session ends.
struct TempFileRemover {
  std::vector<std::string> paths;
  ~TempFileRemover() {
    for (const auto& path : paths) std::remove(path.c_str());
  }
};

/// Starts the DAP listener when requested and announces the port.
void maybe_serve_dap(runtime::Runtime& runtime,
                     std::optional<uint16_t> dap_port) {
  if (!dap_port) return;
  const uint16_t port = runtime.serve_dap(*dap_port);
  std::cout << "DAP listener on 127.0.0.1:" << port
            << " (VSCode: attach with \"debugServer\": " << port << ")\n";
}

/// Offline session: simulate once while dumping a trace, then debug the
/// trace with the unified interface — the paper's replay flow end to end.
/// "wvx" dumps the waveform index directly from the simulator (no VCD
/// text is ever written); "vcd" keeps the text dump + in-memory parse. An
/// existing dump path (.vcd, .wvx single file or .wvx shard manifest)
/// skips the simulation and replays that dump as-is.
int run_replay_cli(const std::string& name, bool debug_mode, uint64_t cycles,
                   const std::string& format, std::optional<uint16_t> dap_port,
                   bool binary_events) {
  auto compiled = compile_workload(name, debug_mode);

  const bool existing_dump = format != "vcd" && format != "wvx";
  const bool wvx =
      existing_dump ? waveform::is_wvx_path(format) : format == "wvx";
  std::string dump_path;
  TempFileRemover remover;
  if (existing_dump) {
    dump_path = format;  // the user's file; never simulated, never removed
  } else {
    // Per-process paths: concurrent sessions must not clobber each other.
    dump_path = "/tmp/hgdb_cli_replay." + std::to_string(::getpid()) +
                (wvx ? ".wvx" : ".vcd");
    remover.paths.push_back(dump_path);
    sim::Simulator simulator(compiled.netlist);
    sim::VcdWriter writer(simulator, dump_path);
    writer.attach();
    simulator.run(cycles);
    writer.finish();
  }

  std::shared_ptr<waveform::WaveformSource> source;
  if (wvx) {
    auto indexed = std::make_shared<waveform::IndexedWaveform>(dump_path);
    std::cout << (existing_dump ? "opened" : "dumped") << " "
              << indexed->signal_count() << " signals into "
              << indexed->total_blocks() << " blocks (" << dump_path
              << ", format v" << indexed->version() << ", "
              << indexed->codec_name() << " codec";
    if (indexed->sharded()) {
      std::cout << ", " << indexed->shard_count() << " shards";
    }
    std::cout << "); cache capacity "
              << indexed->cache_capacity() << " blocks\n";
    source = std::move(indexed);
  } else {
    source = std::make_shared<trace::VcdTrace>(trace::parse_vcd_file(dump_path));
  }
  if (existing_dump) {
    std::cout << "replaying dump '" << dump_path << "' through the "
              << (wvx ? "indexed" : "in-memory") << " waveform store\n";
  } else {
    std::cout << "replaying " << cycles << " dumped cycles of '" << name
              << "' through the " << (wvx ? "indexed" : "in-memory")
              << " waveform store\n";
  }

  vpi::ReplayBackend backend{trace::ReplayEngine(std::move(source))};
  symbols::MemorySymbolTable table(compiled.symbols);
  runtime::RuntimeOptions runtime_options;
  runtime_options.metrics = &obs::MetricsRegistry::global();
  runtime::Runtime runtime(backend, table, runtime_options);
  runtime.attach();
  maybe_serve_dap(runtime, dap_port);

  auto [client_channel, server_channel] = rpc::make_channel_pair();
  runtime.serve(std::move(server_channel));
  debugger::DebugClient client(std::move(client_channel));
  client.connect("hgdb-cli", binary_events);
  print_capabilities(client);

  std::atomic<bool> done{false};
  std::thread replay_thread;
  // Replay is deterministic and fast: hold it until breakpoints are set,
  // otherwise the whole dump replays before the first command lands.
  auto start_replay = [&] {
    replay_thread = std::thread([&] {
      backend.run_forward();
      done.store(true);
    });
  };

  std::cout << "type 'help' for commands; set breakpoints, then 'c' starts "
               "the replay\n";
  run_repl(client, done, "trace replay reached the end of the dump",
           start_replay);

  client.detach();
  if (replay_thread.joinable()) replay_thread.join();
  runtime.stop_service();
  return 0;
}

int run_cli(const std::string& name, bool debug_mode, uint64_t cycles,
            std::optional<uint16_t> dap_port, bool binary_events) {
  auto compiled = compile_workload(name, debug_mode);
  symbols::MemorySymbolTable table(compiled.symbols);
  std::cout << "compiled '" << name << "' (" << (debug_mode ? "debug" : "optimized")
            << "): " << compiled.netlist.signals().size() << " signals, "
            << table.data().breakpoints.size() << " breakpoints\n";

  sim::Simulator simulator(compiled.netlist);
  simulator.enable_checkpoints(true);
  vpi::NativeBackend backend(simulator);
  runtime::RuntimeOptions runtime_options;
  runtime_options.metrics = &obs::MetricsRegistry::global();
  runtime::Runtime runtime(backend, table, runtime_options);
  runtime.attach();
  maybe_serve_dap(runtime, dap_port);

  auto [client_channel, server_channel] = rpc::make_channel_pair();
  runtime.serve(std::move(server_channel));
  debugger::DebugClient client(std::move(client_channel));
  client.connect("hgdb-cli", binary_events);
  print_capabilities(client);

  std::atomic<bool> done{false};
  std::thread sim_thread([&] {
    while (simulator.cycle() < cycles) simulator.tick();
    done.store(true);
  });

  std::cout << "type 'help' for commands; simulation is running\n";
  run_repl(client, done,
           "simulation finished (" + std::to_string(cycles) + " cycles)");

  client.detach();
  sim_thread.join();
  runtime.stop_service();
  return 0;
}

}  // namespace

int run_wvx_convert(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: hgdb-cli wvx-convert <in.vcd> <out.wvx> "
                 "[--no-checksums] [--block-cap N] [--shard-by scope|none]\n";
    return 2;
  }
  const std::string vcd_path = argv[2];
  const std::string wvx_path = argv[3];
  waveform::ShardedConvertOptions options;
  options.shard_by_scope = false;  // single file unless --shard-by scope
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-checksums") {
      options.index.block_checksums = false;
    } else if (arg == "--block-cap" && i + 1 < argc) {
      // Parsed exactly: out-of-range text (say 4294967296) must be
      // rejected, not wrapped into range by a narrowing cast.
      const std::string_view text = argv[++i];
      uint32_t cap = 0;
      const auto [end, error] =
          std::from_chars(text.data(), text.data() + text.size(), cap);
      if (error != std::errc() || end != text.data() + text.size() ||
          cap == 0 || cap > waveform::kWvxMaxBlockEntries) {
        std::cerr << "fatal: --block-cap expects an entry count in 1.."
                  << waveform::kWvxMaxBlockEntries << ", not '" << text
                  << "'\n";
        return 2;
      }
      options.index.block_capacity = cap;
    } else if (arg == "--shard-by" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "scope") {
        options.shard_by_scope = true;
      } else if (mode == "none") {
        options.shard_by_scope = false;
      } else {
        std::cerr << "fatal: --shard-by expects 'scope' or 'none'\n";
        return 2;
      }
    } else {
      std::cerr << "fatal: unknown wvx-convert flag '" << arg << "'\n";
      return 2;
    }
  }
  const auto convert =
      waveform::convert_vcd_to_sharded_index(vcd_path, wvx_path, options);
  // verify_index opens the manifest transparently, so this one call
  // checks every shard.
  const auto result = waveform::verify_index(wvx_path);
  if (!result.ok) {
    std::cerr << "conversion produced a corrupt index:\n"
              << waveform::describe(result, wvx_path) << "\n";
    return 1;
  }
  std::cout << wvx_path << ": " << convert.signals << " signal(s), "
            << result.blocks << " block(s), format v" << result.version << ", "
            << result.codec << " codec";
  if (convert.shards != 0) {
    std::cout << ", " << convert.shards << " shard(s)";
  }
  if (result.aliases != 0) {
    std::cout << ", " << result.aliases << " alias(es) deduped";
  }
  std::cout << (result.checksummed ? ", checksummed" : "") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "wvx-verify") {
    if (argc < 3) {
      std::cerr << "usage: hgdb-cli wvx-verify <file.wvx>\n";
      return 2;
    }
    if (argc > 3) {
      std::cerr << "fatal: unexpected wvx-verify argument '" << argv[3]
                << "'\n";
      return 2;
    }
    const auto result = waveform::verify_index(argv[2]);
    std::cout << waveform::describe(result, argv[2]) << "\n";
    return result.ok ? 0 : 1;
  }
  if (argc >= 2 && std::string(argv[1]) == "wvx-convert") {
    try {
      return run_wvx_convert(argc, argv);
    } catch (const std::exception& error) {
      std::cerr << "fatal: " << error.what() << "\n";
      return 1;
    }
  }
  std::string name = "vvadd";
  bool name_set = false;
  bool debug_mode = true;
  std::optional<uint64_t> cycles;
  std::optional<uint16_t> dap_port;
  std::string replay_format;  // "", "vcd", "wvx", or a dump path
  bool binary_events = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--optimized") {
      debug_mode = false;
    } else if (arg == "--cycles" && i + 1 < argc) {
      cycles = std::stoull(argv[++i]);
    } else if (arg == "--dap") {
      // Optional port operand; omitted or 0 = ephemeral.
      dap_port = 0;
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[i + 1][0]))) {
        const unsigned long port = std::stoul(argv[++i]);
        if (port > 65535) {
          std::cerr << "fatal: --dap port " << port << " out of range\n";
          return 1;
        }
        dap_port = static_cast<uint16_t>(port);
      }
    } else if (arg == "--binary-events") {
      // Opt in to binary event framing: pushed stop/value events arrive
      // as length-prefixed frames instead of JSON.
      binary_events = true;
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_format = argv[++i];
      const bool is_dump_path =
          waveform::is_wvx_path(replay_format) ||
          (replay_format.size() > 4 &&
           replay_format.compare(replay_format.size() - 4, 4, ".vcd") == 0);
      if (replay_format != "vcd" && replay_format != "wvx" && !is_dump_path) {
        std::cerr << "fatal: --replay expects 'vcd', 'wvx', or an existing "
                     ".vcd/.wvx dump path\n";
        return 1;
      }
    } else if (arg.rfind('-', 0) == 0) {
      const bool missing_value = arg == "--cycles" || arg == "--replay";
      std::cerr << "fatal: "
                << (missing_value ? "missing value for" : "unknown")
                << " flag '" << arg << "'\n";
      return 2;
    } else if (name_set) {
      std::cerr << "fatal: more than one workload ('" << name << "', '"
                << arg << "')\n";
      return 2;
    } else {
      name = arg;
      name_set = true;
    }
  }
  try {
    if (!replay_format.empty()) {
      // Replay dumps the whole run up front, so default to a modest trace.
      return run_replay_cli(name, debug_mode, cycles.value_or(4096),
                            replay_format, dap_port, binary_events);
    }
    return run_cli(name, debug_mode, cycles.value_or(uint64_t{1} << 20),
                   dap_port, binary_events);
  } catch (const std::exception& error) {
    std::cerr << "fatal: " << error.what() << "\n";
    return 1;
  }
}
