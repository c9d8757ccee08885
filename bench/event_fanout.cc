// EXP-F — Event fan-out: what does one pushed stop event cost per
// subscriber? The paper's interactive-latency budget must survive many
// attached observers (IDE panes, waveform streamers, dashboards all ride
// the same event plane), and the JSON path pays a full per-client render:
// delivering one stop to 1000 subscribers serializes it 1000 times.
// Binary-events fan-out serializes once into a refcounted SharedFrame and
// every subscriber's deliver() is a filter check plus a frame header —
// per-client cost becomes a refcount bump.
//
// The harness registers N passive observers with a real DebugService (the
// exact production fan-out loop: snapshot under the client lock, deliver
// under the delivery lock) and times E broadcast stop events through
// DebugService::deliver_stop in two modes:
//   json     every sink renders serialize_event_v2(stop_event_payload(...))
//            — the wire bytes a legacy JSON client receives
//   binary   sinks frame the serialize-once body the service pre-encoded
//            — the wire bytes a binary-events client receives
// Per-event wall time is sampled for a p99 stop-to-delivery figure.
//
// Output: one JSON object on stdout (and to $HGDB_BENCH_JSON when set).
// "gates.binary_fanout_speedup" (binary events/sec over JSON events/sec)
// is tracked by tools/check_bench_regression.py against
// bench/baselines/BENCH_fanout.json; "ceilings.binary_stop_delivery_p99_ms"
// is an absolute upper bound on delivery latency at this subscriber count.
// Absolute events/sec are reported but not gated (they track hardware).
// Environment: HGDB_FANOUT_SUBS (default 1000),
//              HGDB_FANOUT_EVENTS (default 200),
//              HGDB_BENCH_REPS (default 3, best-of),
//              HGDB_BENCH_JSON (optional output path).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "rpc/event_frame.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"
#include "runtime/runtime.h"
#include "session/debug_service.h"
#include "session/session_manager.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace {

using namespace hgdb;
using Clock = std::chrono::steady_clock;

uint64_t env_or(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

constexpr const char* kDesign = R"(circuit Fan
  module Fan
    input clock : Clock
    output out : UInt<8>
    reg cycle_reg : UInt<8> clock clock
    connect cycle_reg = add(cycle_reg, UInt<8>(1)) @[fan.cc 5 1]
    wire t : UInt<8> @[fan.cc 6 1]
    connect t = add(cycle_reg, UInt<8>(7)) @[fan.cc 7 1]
    connect out = t @[fan.cc 8 1]
  end
end
)";

/// A realistic stop: two frames with reconstructed locals/generator state,
/// a matched condition, and a watch hit — the shape an IDE sees.
rpc::StopEvent make_stop(uint64_t time) {
  rpc::StopEvent stop;
  stop.time = time;
  for (int i = 0; i < 2; ++i) {
    rpc::Frame frame;
    frame.breakpoint_id = 40 + i;
    frame.instance_id = i;
    frame.instance_name = i == 0 ? "top.dut" : "top.dut.sub";
    frame.filename = "fan.cc";
    frame.line = 7;
    frame.column = 1;
    frame.locals = common::Json::parse(
        R"({"cycle_reg": "21", "t": "28", "state": {"fsm": "RUN", "count": "9"}})");
    frame.generator = common::Json::parse(R"({"kind": "wire", "width": "8"})");
    frame.matched_conditions = {"cycle_reg % 2 == 0"};
    stop.frames.push_back(std::move(frame));
  }
  rpc::WatchHit hit;
  hit.id = 3;
  hit.expression = "cycle_reg + 1";
  hit.old_value = "21";
  hit.new_value = "22";
  stop.watch_hits.push_back(hit);
  return stop;
}

/// One registered observer. In JSON mode deliver() re-renders the event
/// exactly as a legacy DebugSession does before writing; in binary mode it
/// frames the shared pre-encoded body exactly as a binary session enqueues
/// it. Byte totals feed a volatile sink so neither render can be elided.
struct BenchSink final : session::EventSink {
  bool binary = false;
  uint64_t bytes = 0;

  bool deliver(const session::ServiceEvent& event) override {
    if (event.kind != session::ServiceEvent::Kind::Stop) return true;
    if (binary) {
      rpc::SharedFrame body = event.binary_body
                                  ? event.binary_body
                                  : rpc::encode_stop_body(event.stop);
      const auto frame =
          rpc::make_event_frame(rpc::FrameKind::Stop, std::move(body));
      bytes += frame.size();
      return true;
    }
    const std::string text = rpc::serialize_event_v2(
        rpc::EventV2{"stop", rpc::stop_event_payload(event.stop)});
    bytes += text.size();
    return true;
  }
};

struct CellResult {
  double events_per_sec = 0;
  double p99_ms = 0;
  uint64_t bytes_per_event = 0;
};

CellResult run_cell(session::DebugService& service,
                    std::vector<std::unique_ptr<BenchSink>>& sinks,
                    uint64_t events, uint64_t reps) {
  CellResult best;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    for (auto& sink : sinks) sink->bytes = 0;
    std::vector<double> sample_ms;
    sample_ms.reserve(events);
    const auto start = Clock::now();
    for (uint64_t i = 0; i < events; ++i) {
      const auto t0 = Clock::now();
      service.deliver_stop(make_stop(i));
      sample_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::sort(sample_ms.begin(), sample_ms.end());
    const double p99 =
        sample_ms[static_cast<size_t>(
            static_cast<double>(sample_ms.size() - 1) * 0.99)];
    const double rate = static_cast<double>(events) / seconds;
    if (rate > best.events_per_sec) {
      best.events_per_sec = rate;
      best.p99_ms = p99;
      best.bytes_per_event = sinks.front()->bytes / events;
    }
  }
  // Defeat dead-code elimination of the renders across both cells.
  static volatile uint64_t checksum;
  for (auto& sink : sinks) checksum = checksum + sink->bytes;
  return best;
}

}  // namespace

int main() {
  const uint64_t subscribers = env_or("HGDB_FANOUT_SUBS", 1000);
  const uint64_t events = env_or("HGDB_FANOUT_EVENTS", 200);
  const uint64_t reps = env_or("HGDB_BENCH_REPS", 3);

  frontend::CompileOptions compile_options;
  compile_options.debug_mode = true;
  auto compiled =
      frontend::compile(ir::parse_circuit(kDesign), compile_options);
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(compiled.netlist);
  vpi::NativeBackend backend(simulator);
  runtime::Runtime runtime(backend, table, runtime::RuntimeOptions{});
  runtime.attach();
  runtime.serve_tcp(0);
  auto& service = runtime.session_manager()->service();

  std::vector<std::unique_ptr<BenchSink>> sinks;
  std::vector<session::ClientId> ids;
  sinks.reserve(subscribers);
  for (uint64_t i = 0; i < subscribers; ++i) {
    sinks.push_back(std::make_unique<BenchSink>());
    ids.push_back(service.register_client("bench-" + std::to_string(i),
                                          sinks.back().get()));
  }

  // Warm up both paths (allocator pools, lazy metrics resolution).
  service.deliver_stop(make_stop(0));
  for (size_t i = 0; i < sinks.size(); ++i) {
    sinks[i]->binary = true;
    service.set_client_binary(ids[i], true);
  }
  service.deliver_stop(make_stop(0));

  const CellResult binary = run_cell(service, sinks, events, reps);
  for (size_t i = 0; i < sinks.size(); ++i) {
    sinks[i]->binary = false;
    service.set_client_binary(ids[i], false);
  }
  const CellResult json = run_cell(service, sinks, events, reps);

  const double speedup = binary.events_per_sec / json.events_per_sec;

  char buffer[2048];
  const int written = std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"config\": {\"subscribers\": %llu, \"events\": %llu, "
      "\"reps\": %llu},\n"
      "  \"json\": {\"events_per_sec\": %.1f, \"p99_ms\": %.3f, "
      "\"bytes_per_event\": %llu},\n"
      "  \"binary\": {\"events_per_sec\": %.1f, \"p99_ms\": %.3f, "
      "\"bytes_per_event\": %llu},\n"
      "  \"gates\": {\"binary_fanout_speedup\": %.3f},\n"
      "  \"ceilings\": {\"binary_stop_delivery_p99_ms\": %.3f}\n"
      "}\n",
      static_cast<unsigned long long>(subscribers),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(reps), json.events_per_sec, json.p99_ms,
      static_cast<unsigned long long>(json.bytes_per_event),
      binary.events_per_sec, binary.p99_ms,
      static_cast<unsigned long long>(binary.bytes_per_event),
      speedup, binary.p99_ms);
  if (written < 0 || static_cast<size_t>(written) >= sizeof(buffer)) {
    std::fprintf(stderr, "report did not fit\n");
    return 1;
  }
  std::fputs(buffer, stdout);
  if (const char* path = std::getenv("HGDB_BENCH_JSON")) {
    std::ofstream out(path, std::ios::trunc);
    out << buffer;
  }

  for (const auto id : ids) service.unregister_client(id);
  runtime.stop_service();

  // Sanity floor rather than a perf gate: serialize-once must actually
  // beat per-client rendering — a speedup at or below 1 means the binary
  // path regressed into per-client work again.
  if (speedup <= 1.0) {
    std::fprintf(stderr, "binary fan-out no faster than JSON: %.3fx\n",
                 speedup);
    return 1;
  }
  return 0;
}
