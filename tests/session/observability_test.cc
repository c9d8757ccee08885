// The observability surface end to end over the v2 wire: the `metrics`
// command (Prometheus text + JSON snapshot from the unified registry),
// the extended `stats` latency quantiles, the `trace` recorder control
// with a Perfetto-JSON dump, and min-interval subscription throttling
// with its per-subscription drop counters.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/json.h"
#include "debugger/client.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "obs/trace.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace hgdb::session {
namespace {

using common::Json;
using debugger::DebugClient;

constexpr const char* kDesign = R"(circuit Obs
  module Obs
    input clock : Clock
    output out : UInt<8>
    reg cycle_reg : UInt<8> clock clock
    connect cycle_reg = add(cycle_reg, UInt<8>(1)) @[obs.cc 5 1]
    wire t : UInt<8> @[obs.cc 6 1]
    connect t = add(cycle_reg, UInt<8>(7)) @[obs.cc 7 1]
    connect out = t @[obs.cc 8 1]
  end
end
)";

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    frontend::CompileOptions compile_options;
    compile_options.debug_mode = true;
    auto compiled =
        frontend::compile(ir::parse_circuit(kDesign), compile_options);
    table_ = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    simulator_ = std::make_unique<sim::Simulator>(compiled.netlist);
    backend_ = std::make_unique<vpi::NativeBackend>(*simulator_);
    runtime_ = std::make_unique<runtime::Runtime>(*backend_, *table_);
    runtime_->attach();
    port_ = runtime_->serve_tcp(0);
  }

  void TearDown() override {
    if (sim_thread_.joinable()) sim_thread_.join();
    runtime_->stop_service();
  }

  std::unique_ptr<DebugClient> connect_client(const std::string& name) {
    auto client =
        std::make_unique<DebugClient>(rpc::tcp_connect("127.0.0.1", port_));
    client->connect(name);
    return client;
  }

  void run_async(uint64_t cycles) {
    sim_thread_ = std::thread([this, cycles] {
      while (simulator_->cycle() < cycles) simulator_->tick();
    });
  }

  std::unique_ptr<symbols::MemorySymbolTable> table_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<vpi::NativeBackend> backend_;
  std::unique_ptr<runtime::Runtime> runtime_;
  uint16_t port_ = 0;
  std::thread sim_thread_;
};

// -- `metrics` command ---------------------------------------------------------

TEST_F(ObservabilityTest, MetricsCommandServesPrometheusAndJson) {
  auto client = connect_client("metrics-reader");
  run_async(10);
  sim_thread_.join();

  // Prometheus page: typed series from every layer wired to the
  // runtime's registry — runtime counters, session counters, per-command
  // counts, latency histogram buckets.
  const std::string text = client->metrics();
  ASSERT_FALSE(text.empty()) << client->last_error();
  EXPECT_NE(text.find("# TYPE hgdb_runtime_clock_edges counter"),
            std::string::npos);
  EXPECT_NE(text.find("hgdb_session_requests"), std::string::npos);
  EXPECT_NE(text.find("hgdb_session_command_connect"), std::string::npos);
  EXPECT_NE(text.find("hgdb_runtime_batch_eval_ns_bucket"),
            std::string::npos);

  // Structured snapshot of the same registry: the clock ran 10 cycles.
  Json decoded = client->metrics_json();
  EXPECT_GE(decoded["counters"].get_int("runtime.clock_edges"), 10);
  EXPECT_GE(decoded["counters"].get_int("session.requests"), 1);

  client->disconnect();
}

TEST_F(ObservabilityTest, StatsReportsLatencyQuantilesFromTheRegistry) {
  auto client = connect_client("stats-reader");
  ASSERT_EQ(client->set_breakpoint("obs.cc", 7, "cycle_reg == 3").size(), 1u);
  run_async(6);
  auto stop = client->wait_stop(std::chrono::milliseconds(2000));
  ASSERT_TRUE(stop.has_value());
  client->resume();
  sim_thread_.join();

  Json stats = client->stats();
  // Condition evaluation ran, so the batch-eval histogram has samples and
  // its quantiles are power-of-two bucket upper bounds (2^k - 1 or 0).
  Json eval = stats["latency"]["runtime.batch_eval_ns"];
  EXPECT_GT(eval.get_int("count"), 0);
  const int64_t p99 = eval.get_int("p99");
  EXPECT_GE(p99, eval.get_int("p50"));
  EXPECT_TRUE(p99 == 0 || (p99 & (p99 + 1)) == 0) << p99;
  EXPECT_TRUE(stats["latency"].contains("session.stop_handshake_ns"));
  EXPECT_GE(stats.get_int("events_dropped"), 0);

  client->disconnect();
}

// -- `trace` command -----------------------------------------------------------

TEST_F(ObservabilityTest, TraceCommandRecordsSpansAndDumpsPerfettoJson) {
  auto client = connect_client("tracer");

  Json status = client->trace_control("status");
  ASSERT_TRUE(status.get_bool("spans_compiled"));
  EXPECT_FALSE(status.get_bool("enabled"));

  obs::TraceRecorder::global().clear();
  status = client->trace_control("start");
  EXPECT_TRUE(status.get_bool("enabled"));

  // Generate instrumented work while recording: breakpoint dispatch,
  // batched fetch, condition evaluation, the stop handshake.
  ASSERT_EQ(client->set_breakpoint("obs.cc", 7, "cycle_reg == 2").size(), 1u);
  run_async(5);
  auto stop = client->wait_stop(std::chrono::milliseconds(2000));
  ASSERT_TRUE(stop.has_value());
  client->resume();
  sim_thread_.join();

  status = client->trace_control("stop");
  EXPECT_FALSE(status.get_bool("enabled"));
  EXPECT_GT(status.get_int("recorded"), 0);

  const std::string dump = client->trace_dump();
  ASSERT_FALSE(dump.empty());
  Json decoded = Json::parse(dump);
  EXPECT_EQ(decoded.get_string("displayTimeUnit"), "ns");
  Json& events = decoded["traceEvents"];
  ASSERT_GT(events.size(), 0u);
  bool saw_runtime_span = false;
  bool saw_session_span = false;
  for (size_t i = 0; i < events.size(); ++i) {
    Json event = events.at(i);
    const std::string phase = event.get_string("ph");
    EXPECT_TRUE(phase == "X" || phase == "i") << phase;
    EXPECT_FALSE(event.get_string("name").empty());
    if (event.get_string("cat") == "runtime") saw_runtime_span = true;
    if (event.get_string("cat") == "session") saw_session_span = true;
  }
  EXPECT_TRUE(saw_runtime_span);
  EXPECT_TRUE(saw_session_span);

  // clear() empties the window for the next recording.
  status = client->trace_control("clear");
  Json cleared = Json::parse(client->trace_dump());
  EXPECT_EQ(cleared["traceEvents"].size(), 0u);

  client->disconnect();
}

// -- min-interval throttling ---------------------------------------------------

TEST_F(ObservabilityTest, MinIntervalThrottlesDeliveriesAndCountsDrops) {
  auto client = connect_client("throttled");
  // An interval far larger than the run: only the initial snapshot may
  // pass; every later change is dropped (not decimated — dropped).
  auto subscription = client->subscribe({"cycle_reg"}, 1, "", 1'000'000);
  ASSERT_TRUE(subscription.has_value());

  constexpr uint64_t kCycles = 20;
  run_async(kCycles);
  sim_thread_.join();

  size_t events = 0;
  while (client->wait_values(std::chrono::milliseconds(300))) ++events;
  EXPECT_EQ(events, 1u);  // the initial snapshot only

  Json stats = client->stats();
  const int64_t dropped = stats.get_int("events_dropped");
  EXPECT_GE(dropped, static_cast<int64_t>(kCycles) - 3);

  // The per-subscription drop counter lives in the registry while the
  // subscription is armed and is released with it.
  const std::string counter_name = "session.subscription." +
                                   std::to_string(*subscription) +
                                   ".events_dropped";
  Json metrics = client->metrics_json();
  EXPECT_GE(metrics["counters"].get_int(counter_name), dropped);
  ASSERT_TRUE(client->unsubscribe(*subscription));
  metrics = client->metrics_json();
  EXPECT_FALSE(metrics["counters"].contains(counter_name));

  client->disconnect();
}

TEST_F(ObservabilityTest, MinIntervalAdmitsEventsSpacedFarEnough) {
  auto client_throttled = connect_client("throttled");
  auto client_full = connect_client("full-rate");
  // cycle_reg changes once per cycle; requiring 4 sim-time units between
  // deliveries must thin the stream to roughly a quarter.
  auto sub_throttled = client_throttled->subscribe({"cycle_reg"}, 1, "", 4);
  auto sub_full = client_full->subscribe({"cycle_reg"});
  ASSERT_TRUE(sub_throttled.has_value());
  ASSERT_TRUE(sub_full.has_value());

  constexpr uint64_t kCycles = 40;
  run_async(kCycles);
  sim_thread_.join();

  size_t throttled = 0;
  uint64_t last_time = 0;
  bool first = true;
  while (auto event =
             client_throttled->wait_values(std::chrono::milliseconds(300))) {
    if (!first) {
      EXPECT_GE(event->time - last_time, 4u);
    }
    first = false;
    last_time = event->time;
    ++throttled;
  }
  size_t full = 0;
  while (client_full->wait_values(std::chrono::milliseconds(300))) ++full;

  EXPECT_GE(full, kCycles - 2);
  EXPECT_GT(throttled, 0u);
  EXPECT_LE(throttled, full / 2 + 2);  // visibly thinner than full rate

  client_throttled->disconnect();
  client_full->disconnect();
}

}  // namespace
}  // namespace hgdb::session
