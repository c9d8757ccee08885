// Binary event framing end-to-end: capability negotiation over `connect`,
// binary/JSON equivalence for pushed stop and value-change events,
// breakpoint-changed notifications between attached sessions, and the
// slow-client policy (a stalled subscriber never blocks the simulation
// thread; optionally it is disconnected).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/json.h"
#include "debugger/client.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "session/session_manager.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace hgdb::session {
namespace {

using common::Json;
using debugger::DebugClient;

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

class FanoutTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpWithOptions(runtime::RuntimeOptions{}); }

  void SetUpWithOptions(runtime::RuntimeOptions options) {
    frontend::CompileOptions compile_options;
    compile_options.debug_mode = true;
    auto compiled =
        frontend::compile(ir::parse_circuit(kDesign), compile_options);
    table_ = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    simulator_ = std::make_unique<sim::Simulator>(compiled.netlist);
    backend_ = std::make_unique<vpi::NativeBackend>(*simulator_);
    runtime_ = std::make_unique<runtime::Runtime>(*backend_, *table_, options);
    runtime_->attach();
    port_ = runtime_->serve_tcp(0);
  }

  void TearDown() override {
    if (sim_thread_.joinable()) sim_thread_.join();
    runtime_->stop_service();
  }

  std::unique_ptr<DebugClient> connect_client(const std::string& name,
                                              bool binary = false) {
    auto client =
        std::make_unique<DebugClient>(rpc::tcp_connect("127.0.0.1", port_));
    EXPECT_TRUE(client->connect(name, binary)) << client->last_error();
    EXPECT_EQ(client->binary_events(), binary);
    return client;
  }

  void run_async(uint64_t cycles) {
    sim_thread_ = std::thread([this, cycles] {
      while (simulator_->cycle() < cycles) simulator_->tick();
    });
  }

  /// A synthetic broadcast stop (not condition-routed, so every passive
  /// observer receives it) with enough body to exercise the codec.
  /// `padding` inflates the locals so a storm outgrows kernel socket
  /// buffers and actually reaches the bounded queue.
  static rpc::StopEvent make_stop(uint64_t time, size_t padding = 0) {
    rpc::StopEvent stop;
    stop.time = time;
    rpc::Frame frame;
    frame.breakpoint_id = 1;
    frame.instance_id = 2;
    frame.instance_name = "Fan";
    frame.filename = "fan.cc";
    frame.line = 7;
    frame.column = 1;
    frame.locals = Json::parse(R"({"cycle_reg": "5", "t": "12"})");
    if (padding != 0) frame.locals["pad"] = Json(std::string(padding, 'x'));
    frame.generator = Json::parse(R"({"kind": "wire"})");
    frame.matched_conditions = {"cycle_reg > 0"};
    stop.frames.push_back(std::move(frame));
    return stop;
  }

  std::unique_ptr<symbols::MemorySymbolTable> table_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<vpi::NativeBackend> backend_;
  std::unique_ptr<runtime::Runtime> runtime_;
  uint16_t port_ = 0;
  std::thread sim_thread_;
};

// -- capability negotiation ----------------------------------------------------

TEST_F(FanoutTest, ConnectNegotiatesBinaryEvents) {
  auto json_client = connect_client("plain");
  auto binary_client = connect_client("binary", /*binary=*/true);
  ASSERT_TRUE(binary_client->capabilities().has_value());
  EXPECT_TRUE(binary_client->capabilities()->binary_events);
  // The opt-out client is told the capability exists but stays on JSON.
  EXPECT_FALSE(json_client->binary_events());
  // Commands still round-trip as JSON v2 on the binary session.
  EXPECT_TRUE(binary_client->info().contains("breakpoints"));
}

// -- binary <-> JSON equivalence on the real wire ------------------------------

TEST_F(FanoutTest, BinaryAndJsonClientsReceiveTheSameStop) {
  auto json_client = connect_client("json-observer");
  auto binary_client = connect_client("binary-observer", /*binary=*/true);

  auto& service = runtime_->session_manager()->service();
  service.deliver_stop(make_stop(777));

  auto json_stop = json_client->wait_stop(std::chrono::milliseconds(2000));
  auto binary_stop = binary_client->wait_stop(std::chrono::milliseconds(2000));
  ASSERT_TRUE(json_stop.has_value());
  ASSERT_TRUE(binary_stop.has_value());

  EXPECT_EQ(binary_stop->time, json_stop->time);
  ASSERT_EQ(binary_stop->frames.size(), json_stop->frames.size());
  const auto& b = binary_stop->frames[0];
  const auto& j = json_stop->frames[0];
  EXPECT_EQ(b.breakpoint_id, j.breakpoint_id);
  EXPECT_EQ(b.instance_id, j.instance_id);
  EXPECT_EQ(b.instance_name, j.instance_name);
  EXPECT_EQ(b.filename, j.filename);
  EXPECT_EQ(b.line, j.line);
  EXPECT_EQ(b.column, j.column);
  EXPECT_EQ(b.locals.dump(), j.locals.dump());
  EXPECT_EQ(b.generator.dump(), j.generator.dump());
  EXPECT_EQ(b.matched_conditions, j.matched_conditions);
}

TEST_F(FanoutTest, BinaryAndJsonSubscribersSeeTheSameValueStream) {
  auto json_client = connect_client("json-subscriber");
  auto binary_client = connect_client("binary-subscriber", /*binary=*/true);
  ASSERT_TRUE(json_client->subscribe({"cycle_reg"}).has_value());
  ASSERT_TRUE(binary_client->subscribe({"cycle_reg"}).has_value());

  run_async(8);
  sim_thread_.join();

  std::vector<debugger::ValueEvent> json_events;
  while (auto event = json_client->wait_values(std::chrono::milliseconds(300))) {
    json_events.push_back(std::move(*event));
  }
  std::vector<debugger::ValueEvent> binary_events;
  while (auto event =
             binary_client->wait_values(std::chrono::milliseconds(300))) {
    binary_events.push_back(std::move(*event));
  }

  ASSERT_FALSE(json_events.empty());
  ASSERT_EQ(binary_events.size(), json_events.size());
  for (size_t i = 0; i < json_events.size(); ++i) {
    EXPECT_EQ(binary_events[i].time, json_events[i].time) << "event " << i;
    ASSERT_EQ(binary_events[i].changes.size(), json_events[i].changes.size());
    for (size_t c = 0; c < json_events[i].changes.size(); ++c) {
      EXPECT_EQ(binary_events[i].changes[c].signal,
                json_events[i].changes[c].signal);
      EXPECT_EQ(binary_events[i].changes[c].value,
                json_events[i].changes[c].value);
      EXPECT_EQ(binary_events[i].changes[c].width,
                json_events[i].changes[c].width);
    }
  }
}

// -- breakpoint-changed notifications ------------------------------------------

TEST_F(FanoutTest, ArmAndDisarmNotifyOtherSessionsButNotTheActor) {
  auto actor = connect_client("actor");
  auto binary_peer = connect_client("binary-peer", /*binary=*/true);
  auto json_peer = connect_client("json-peer");

  ASSERT_EQ(actor->set_breakpoint("fan.cc", 7, "cycle_reg == 3").size(), 1u);

  for (auto* peer : {binary_peer.get(), json_peer.get()}) {
    auto armed = peer->wait_breakpoint_change(std::chrono::milliseconds(2000));
    ASSERT_TRUE(armed.has_value());
    EXPECT_EQ(armed->action, "armed");
    EXPECT_EQ(armed->filename, "fan.cc");
    EXPECT_EQ(armed->line, 7u);
    EXPECT_EQ(armed->condition, "cycle_reg == 3");
  }
  // The editing session itself is not notified.
  EXPECT_FALSE(
      actor->wait_breakpoint_change(std::chrono::milliseconds(200)).has_value());

  ASSERT_EQ(actor->remove_breakpoint("fan.cc", 7), 1u);
  for (auto* peer : {binary_peer.get(), json_peer.get()}) {
    auto disarmed =
        peer->wait_breakpoint_change(std::chrono::milliseconds(2000));
    ASSERT_TRUE(disarmed.has_value());
    EXPECT_EQ(disarmed->action, "disarmed");
    EXPECT_EQ(disarmed->filename, "fan.cc");
    EXPECT_EQ(disarmed->line, 7u);
  }
}

// -- slow-client policy --------------------------------------------------------

class SlowClientTest : public FanoutTest {
 protected:
  void SetUp() override {
    runtime::RuntimeOptions options;
    options.event_queue_frames = 64;
    options.event_queue_bytes = 128 * 1024;
    SetUpWithOptions(options);
  }
};

TEST_F(SlowClientTest, StalledBinarySubscriberNeverBlocksTheStopPath) {
  auto healthy = connect_client("healthy", /*binary=*/true);
  // The stalled client completes the handshake, then never reads again —
  // its socket buffer and then its bounded queue fill up.
  auto stalled = connect_client("stalled", /*binary=*/true);

  std::atomic<int> healthy_received{0};
  std::thread drain([&] {
    while (healthy->wait_stop(std::chrono::milliseconds(1500))) {
      healthy_received.fetch_add(1);
    }
  });

  auto& service = runtime_->session_manager()->service();
  constexpr int kEvents = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    // 16 KB per event: the stalled client's socket buffer fills within the
    // first couple hundred events, then its bounded queue, then drops.
    service.deliver_stop(make_stop(static_cast<uint64_t>(i), 16 * 1024));
    // Paced so a *reading* client keeps up comfortably: drops below must
    // then come from the stalled client, not from outrunning everyone.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  drain.join();

  // Without the bounded async writer the storm would park on the stalled
  // client's full socket and never return; with it the whole storm is a
  // matter of enqueues. The generous bound only guards against a hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  // The stalled client overflowed and paid with dropped events...
  EXPECT_GT(
      runtime_->metrics().counter("rpc.writer.events_dropped").value(), 0u);
  // ...while staying attached (drop, not disconnect, is the default), and
  // the healthy client kept receiving events throughout.
  EXPECT_EQ(runtime_->session_manager()->session_count(), 2u);
  EXPECT_GT(healthy_received.load(), kEvents / 2);
}

TEST_F(SlowClientTest, StalledJsonSubscriberNeverBlocksTheStopPath) {
  // Same storm as the binary case, but both observers stay on the legacy
  // JSON wire: since the JSON event path rides the same async writer, a
  // stalled JSON client sheds events from its bounded queue instead of
  // parking the delivery thread on its full socket.
  auto healthy = connect_client("healthy-json");
  auto stalled = connect_client("stalled-json");

  std::atomic<int> healthy_received{0};
  std::thread drain([&] {
    while (healthy->wait_stop(std::chrono::milliseconds(1500))) {
      healthy_received.fetch_add(1);
    }
  });

  auto& service = runtime_->session_manager()->service();
  constexpr int kEvents = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    service.deliver_stop(make_stop(static_cast<uint64_t>(i), 16 * 1024));
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  drain.join();

  // Before the fix this storm blocked in ::send on the stalled client's
  // full socket buffer inside the delivery bracket; the generous bound
  // only guards against re-introducing that hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  EXPECT_GT(
      runtime_->metrics().counter("rpc.writer.events_dropped").value(), 0u);
  // Drop, not disconnect: both JSON clients stay attached, and the healthy
  // one kept receiving events throughout.
  EXPECT_EQ(runtime_->session_manager()->session_count(), 2u);
  EXPECT_GT(healthy_received.load(), kEvents / 2);
}

class DisconnectOnOverflowTest : public FanoutTest {
 protected:
  void SetUp() override {
    runtime::RuntimeOptions options;
    options.event_queue_frames = 16;
    options.event_queue_bytes = 32 * 1024;
    options.disconnect_slow_clients = true;
    SetUpWithOptions(options);
  }
};

TEST_F(DisconnectOnOverflowTest, OverflowDisconnectsWhenConfigured) {
  auto control = connect_client("control");
  auto stalled = connect_client("stalled", /*binary=*/true);
  ASSERT_EQ(runtime_->session_manager()->session_count(), 2u);

  // The JSON control client rides the same bounded writer queues as the
  // binary one, so with disconnect_on_overflow armed its queue must never
  // overflow either — this test wants the stalled client to be the one
  // that dies. The storm is paced by the control client: each stop must
  // reach it before the next one is sent, so its queue holds at most one
  // event while the stalled client's queue fills up.
  auto& service = runtime_->session_manager()->service();
  for (int i = 0; i < 4000; ++i) {
    service.deliver_stop(make_stop(static_cast<uint64_t>(i), 16 * 1024));
    ASSERT_TRUE(control->wait_stop(std::chrono::seconds(2)));
    if (runtime_->session_manager()->session_count() < 2) break;
  }
  // The overflow marks the session dead synchronously; its reader thread
  // then reaps it. The JSON control client is untouched.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (runtime_->session_manager()->session_count() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(runtime_->session_manager()->session_count(), 1u);
  EXPECT_GT(
      runtime_->metrics().counter("rpc.writer.events_dropped").value(), 0u);
  EXPECT_TRUE(control->info().contains("breakpoints"));
}

// -- observability -------------------------------------------------------------

TEST_F(FanoutTest, WriterMetricsAreExposedThroughTheMetricsCommand) {
  auto binary_client = connect_client("binary-metrics", /*binary=*/true);

  auto& service = runtime_->session_manager()->service();
  service.deliver_stop(make_stop(1));
  ASSERT_TRUE(binary_client->wait_stop(std::chrono::milliseconds(2000)));

  // The metrics command itself answers over the writer too (single-writer
  // invariant), so bytes_sent covers responses and events alike.
  Json metrics = binary_client->metrics_json();
  EXPECT_GT(metrics["counters"].get_int("session.native.bytes_sent"), 0);
  EXPECT_GT(metrics["histograms"]["rpc.writer.queue_depth"].get_int("count"),
            0);
  EXPECT_GE(metrics["counters"].get_int("session.breakpoint_changes"), 0);
}

}  // namespace
}  // namespace hgdb::session
