#include "session/session_manager.h"

#include <gtest/gtest.h>

#include <thread>

#include "debugger/client.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace hgdb::session {
namespace {

using debugger::DebugClient;
using rpc::ErrorCode;

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

/// Forwards everything to a wrapped backend but hides optional
/// capabilities — for checking that gated commands fail with typed errors.
class RestrictedBackend final : public vpi::SimulatorInterface {
 public:
  explicit RestrictedBackend(vpi::SimulatorInterface& inner) : inner_(&inner) {}

  std::optional<common::BitVector> get_value(const std::string& name) override {
    return inner_->get_value(name);
  }
  std::vector<std::string> signal_names() const override {
    return inner_->signal_names();
  }
  std::vector<std::string> clock_names() const override {
    return inner_->clock_names();
  }
  uint64_t add_clock_callback(ClockCallback callback) override {
    return inner_->add_clock_callback(std::move(callback));
  }
  void remove_clock_callback(uint64_t handle) override {
    inner_->remove_clock_callback(handle);
  }
  uint64_t get_time() const override { return inner_->get_time(); }
  bool supports_time_travel() const override { return false; }
  bool supports_set_value() const override { return false; }

 private:
  vpi::SimulatorInterface* inner_;
};

/// Two v2 clients attached over real TCP to one runtime: the session
/// layer broadcasts stops to both and tracks ownership independently.
class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    frontend::CompileOptions options;
    options.debug_mode = true;
    auto compiled = frontend::compile(ir::parse_circuit(kDesign), options);
    table_ = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    simulator_ = std::make_unique<sim::Simulator>(compiled.netlist);
    backend_ = std::make_unique<vpi::NativeBackend>(*simulator_);
    runtime_ = std::make_unique<runtime::Runtime>(*backend_, *table_);
    runtime_->attach();

    const uint16_t port = runtime_->serve_tcp(0);
    client_a_ = std::make_unique<DebugClient>(
        rpc::tcp_connect("127.0.0.1", port));
    client_b_ = std::make_unique<DebugClient>(
        rpc::tcp_connect("127.0.0.1", port));
    ASSERT_TRUE(client_a_->connect("client-a"));
    ASSERT_TRUE(client_b_->connect("client-b"));
  }

  void TearDown() override {
    if (sim_thread_.joinable()) sim_thread_.join();
    runtime_->stop_service();
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
  std::unique_ptr<DebugClient> client_a_;
  std::unique_ptr<DebugClient> client_b_;
  std::thread sim_thread_;
};

TEST_F(SessionTest, ConnectNegotiatesCapabilities) {
  ASSERT_TRUE(client_a_->capabilities().has_value());
  const auto& caps = *client_a_->capabilities();
  EXPECT_EQ(caps.backend, "live");
  EXPECT_FALSE(caps.time_travel);  // checkpoints not enabled
  EXPECT_TRUE(caps.set_value);
  EXPECT_TRUE(caps.multi_client);
  EXPECT_TRUE(caps.watchpoints);
}

TEST_F(SessionTest, IndependentBreakpointOwnership) {
  ASSERT_EQ(client_a_->set_breakpoint("demo.cc", 5).size(), 1u);
  ASSERT_EQ(client_b_->set_breakpoint("demo.cc", 7).size(), 1u);
  EXPECT_EQ(client_a_->info()["breakpoints"].size(), 2u);

  // B does not own A's location: removing it is a no-op.
  EXPECT_EQ(client_b_->remove_breakpoint("demo.cc", 5), 0u);
  EXPECT_EQ(client_a_->info()["breakpoints"].size(), 2u);

  // A removes its own location.
  EXPECT_EQ(client_a_->remove_breakpoint("demo.cc", 5), 1u);
  auto info = client_b_->info();
  ASSERT_EQ(info["breakpoints"].size(), 1u);
  EXPECT_EQ(info["breakpoints"].at(0).get_int("line"), 7);
}

TEST_F(SessionTest, SharedLocationSurvivesSingleOwnerRemoval) {
  ASSERT_EQ(client_a_->set_breakpoint("demo.cc", 7).size(), 1u);
  ASSERT_EQ(client_b_->set_breakpoint("demo.cc", 7).size(), 1u);
  // A releases its reference; B still holds the location.
  EXPECT_EQ(client_a_->remove_breakpoint("demo.cc", 7), 0u);
  EXPECT_EQ(client_a_->info()["breakpoints"].size(), 1u);
  // B's removal drops the last reference.
  EXPECT_EQ(client_b_->remove_breakpoint("demo.cc", 7), 1u);
  EXPECT_EQ(client_a_->info()["breakpoints"].size(), 0u);
}

TEST_F(SessionTest, BothClientsObserveTheStop) {
  ASSERT_EQ(client_a_->set_breakpoint("demo.cc", 7).size(), 1u);
  run_async(5);
  auto stop_a = client_a_->wait_stop(std::chrono::milliseconds(5000));
  auto stop_b = client_b_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop_a.has_value());
  ASSERT_TRUE(stop_b.has_value());
  EXPECT_EQ(stop_a->time, stop_b->time);
  ASSERT_EQ(stop_a->frames.size(), 1u);
  ASSERT_EQ(stop_b->frames.size(), 1u);
  EXPECT_EQ(stop_b->frames[0].line, 7u);
  client_a_->detach();
  client_b_->detach();
}

TEST_F(SessionTest, DetachOfOneClientKeepsTheOther) {
  ASSERT_EQ(client_a_->set_breakpoint("demo.cc", 5).size(), 1u);
  ASSERT_EQ(client_b_->set_breakpoint("demo.cc", 7).size(), 1u);
  run_async(6);

  // First stop: line 5 (A's breakpoint), broadcast to both.
  auto stop_a = client_a_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop_a.has_value());
  EXPECT_EQ(stop_a->frames[0].line, 5u);
  auto stop_b1 = client_b_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop_b1.has_value());

  // A detaches: its breakpoint dies, B's survives. B still owes an answer
  // for the stop (the sim is guaranteed to be waiting — a departing
  // client never steals a stop from an engaged one), so B resumes.
  ASSERT_TRUE(client_a_->detach());
  EXPECT_EQ(client_b_->info()["breakpoints"].size(), 1u);
  ASSERT_TRUE(client_b_->resume());

  // Next stop: line 7 (B's breakpoint) — only B is interested now.
  auto stop_b2 = client_b_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop_b2.has_value());
  EXPECT_EQ(stop_b2->frames[0].line, 7u);
  client_b_->detach();
}

TEST_F(SessionTest, DisconnectOfOneClientKeepsTheOther) {
  ASSERT_EQ(client_b_->set_breakpoint("demo.cc", 7).size(), 1u);
  ASSERT_TRUE(client_a_->disconnect());
  client_a_.reset();  // closes the socket

  run_async(4);
  auto stop = client_b_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->frames[0].line, 7u);
  client_b_->detach();
}

TEST_F(SessionTest, WatchpointFiresOnValueChange) {
  auto watch_id = client_a_->watch("cycle_reg");
  ASSERT_TRUE(watch_id.has_value());
  run_async(3);
  auto stop = client_a_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop.has_value());
  ASSERT_EQ(stop->watch_hits.size(), 1u);
  EXPECT_EQ(stop->watch_hits[0].id, *watch_id);
  EXPECT_EQ(stop->watch_hits[0].expression, "cycle_reg");
  EXPECT_NE(stop->watch_hits[0].old_value, stop->watch_hits[0].new_value);
  ASSERT_TRUE(client_a_->unwatch(*watch_id));
  ASSERT_TRUE(client_a_->resume());
}

TEST_F(SessionTest, UnwatchRequiresOwnership) {
  auto watch_id = client_a_->watch("cycle_reg");
  ASSERT_TRUE(watch_id.has_value());
  EXPECT_FALSE(client_b_->unwatch(*watch_id));
  EXPECT_EQ(client_b_->last_error_code(), ErrorCode::NoSuchEntity);
  EXPECT_TRUE(client_a_->unwatch(*watch_id));
}

TEST_F(SessionTest, BatchedEvaluation) {
  client_a_->set_breakpoint("demo.cc", 5);
  run_async(4);
  auto stop = client_a_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop.has_value());
  const int64_t bp_id = stop->frames[0].breakpoint_id;

  const auto results = client_a_->evaluate_batch(
      {"cycle_reg", "cycle_reg + 1", "no_such_signal"}, bp_id);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].value, "1");
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(results[1].value, "2");
  EXPECT_FALSE(results[2].ok);
  EXPECT_FALSE(results[2].reason.empty());
  client_a_->detach();
}

TEST_F(SessionTest, HierarchyBrowsing) {
  const auto instances = client_a_->list_instances();
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances.at(0).get_string("name"), "Demo");

  const auto variables = client_a_->list_variables("Demo");
  bool found_cycle_reg = false;
  for (const auto& variable : variables.as_array()) {
    if (variable.get_string("name") == "cycle_reg") found_cycle_reg = true;
  }
  EXPECT_TRUE(found_cycle_reg);

  EXPECT_FALSE(client_a_->list_variables("NoSuchInstance").size() > 0);
  EXPECT_EQ(client_a_->last_error_code(), ErrorCode::NoSuchEntity);
}

TEST_F(SessionTest, StatsReportSessionsAndCounters) {
  run_async(4);
  sim_thread_.join();
  const auto stats = client_a_->stats();
  EXPECT_EQ(stats.get_int("sessions"), 2);
  EXPECT_GE(stats.get_int("clock_edges"), 4);
  EXPECT_GE(stats.get_int("requests"), 1);
  // Compiled-evaluation pipeline counters are part of the v2 payload.
  EXPECT_TRUE(stats.contains("eval_ns"));
  EXPECT_TRUE(stats.contains("dirty_skips"));
  EXPECT_TRUE(stats.contains("batch_fetches"));
  EXPECT_TRUE(stats.contains("batch_signals"));
}

TEST_F(SessionTest, UnknownConditionSymbolIsTypedArmTimeError) {
  // The compiled engine resolves condition symbols when the breakpoint is
  // armed; an unknown name is a typed protocol error, not a breakpoint
  // that silently never fires.
  EXPECT_TRUE(
      client_a_->set_breakpoint("demo.cc", 7, "ghost_signal > 1").empty());
  EXPECT_EQ(client_a_->last_error_code(), ErrorCode::NoSuchEntity);
  // A resolvable condition still arms.
  EXPECT_FALSE(
      client_a_->set_breakpoint("demo.cc", 7, "cycle_reg > 1").empty());
  EXPECT_EQ(client_a_->remove_breakpoint("demo.cc", 7), 1u);
}

TEST_F(SessionTest, UnknownWatchSymbolIsTypedArmTimeError) {
  EXPECT_FALSE(client_a_->watch("ghost_signal + 1").has_value());
  EXPECT_EQ(client_a_->last_error_code(), ErrorCode::NoSuchEntity);
}

TEST_F(SessionTest, MalformedInputGetsTypedErrorAndSessionSurvives) {
  const uint16_t port = runtime_->serve_tcp(0);
  auto raw = rpc::tcp_connect("127.0.0.1", port);

  // Garbage of every shape: each gets a structured v2 error, and the
  // session thread survives to answer the next request.
  raw->send(R"({"version":2,"command":"connect","token":1})");
  auto reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());

  raw->send("complete garbage");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  auto message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.response.error, ErrorCode::MalformedRequest);

  raw->send(R"({"version":2,"token":3})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.response.error, ErrorCode::MalformedRequest);
  EXPECT_EQ(message.response.token, 3);

  raw->send(R"({"version":2,"command":"frobnicate","token":4})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.response.error, ErrorCode::UnknownCommand);

  raw->send(R"({"version":2,"command":"breakpoint-add","token":5})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.response.error, ErrorCode::InvalidPayload);

  // Numbers no int64 holds: a typed error, never an undefined cast.
  raw->send(R"({"version":2,"command":"info","token":1e300})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.response.error, ErrorCode::MalformedRequest);

  raw->send(
      R"({"version":2,"command":"breakpoint-add","token":5,)"
      R"("payload":{"filename":"demo.cc","line":1e300}})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.response.error, ErrorCode::InvalidPayload);

  // Still alive and well:
  raw->send(R"({"version":2,"command":"info","token":6})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_TRUE(message.response.ok());
}

TEST_F(SessionTest, VersionlessMessageGetsTypedV2Error) {
  const uint16_t port = runtime_->serve_tcp(0);
  auto raw = rpc::tcp_connect("127.0.0.1", port);

  // A message without the v2 envelope is refused with the typed error and
  // its token echoed, like any other malformed request.
  raw->send(
      R"({"type":"breakpoint","action":"add","filename":"demo.cc","line":7,"column":0,"token":11})");
  auto reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  auto message = rpc::parse_server_message_v2(*reply);
  EXPECT_EQ(message.kind, rpc::ServerMessageV2::Kind::Response);
  EXPECT_EQ(message.response.error, ErrorCode::MalformedRequest);
  EXPECT_EQ(message.response.token, 11);
  // Nothing was armed.
  EXPECT_EQ(client_a_->info()["breakpoints"].size(), 0u);

  // The session survives and answers the next request.
  raw->send(R"({"version":2,"command":"info","token":12})");
  reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  message = rpc::parse_server_message_v2(*reply);
  EXPECT_TRUE(message.response.ok());
  EXPECT_EQ(message.response.token, 12);
}

TEST_F(SessionTest, SilentSessionReceivesV2EventsFromTheStart) {
  // A raw connection that has not sent a single request is already a v2
  // session: it hears about another client's breakpoint and gets the
  // stop as a v2 event envelope.
  const uint16_t port = runtime_->serve_tcp(0);
  auto raw = rpc::tcp_connect("127.0.0.1", port);
  auto* manager = runtime_->session_manager();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (manager->session_count() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(manager->session_count(), 3u);

  ASSERT_EQ(client_a_->set_breakpoint("demo.cc", 7).size(), 1u);
  auto reply = raw->receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(reply.has_value());
  auto json = common::Json::parse(*reply);
  EXPECT_EQ(json.get_int("version"), 2);
  EXPECT_EQ(json.get_string("type"), "event");
  EXPECT_EQ(json.get_string("event"), "breakpoint-changed");
  EXPECT_EQ(json["payload"].get_string("action"), "armed");
  EXPECT_EQ(json["payload"].get_int("line"), 7);

  run_async(5);
  reply = raw->receive(std::chrono::milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  json = common::Json::parse(*reply);
  EXPECT_EQ(json.get_int("version"), 2);
  EXPECT_EQ(json.get_string("type"), "event");
  EXPECT_EQ(json.get_string("event"), "stop");
  const auto stop = rpc::stop_event_fields(json["payload"]);
  ASSERT_EQ(stop.frames.size(), 1u);
  EXPECT_EQ(stop.frames[0].line, 7u);

  ASSERT_TRUE(client_a_->wait_stop(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(client_b_->wait_stop(std::chrono::milliseconds(5000)));
  client_a_->detach();
  client_b_->detach();
}

TEST_F(SessionTest, SessionManagerExposesState) {
  auto* manager = runtime_->session_manager();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->session_count(), 2u);
  const auto caps = manager->capabilities();
  EXPECT_EQ(caps.backend, "live");
  const auto names = manager->command_names();
  EXPECT_GE(names.size(), 20u);
}

TEST(SessionGating, JumpWithoutTimeTravelFailsWithTypedError) {
  frontend::CompileOptions options;
  options.debug_mode = true;
  auto compiled = frontend::compile(ir::parse_circuit(kDesign), options);
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(compiled.netlist);
  vpi::NativeBackend native(simulator);
  RestrictedBackend backend(native);
  runtime::Runtime runtime(backend, table);
  runtime.attach();

  auto [client_side, server_side] = rpc::make_channel_pair();
  runtime.serve(std::move(server_side));
  DebugClient client(std::move(client_side));
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.capabilities().has_value());
  EXPECT_FALSE(client.capabilities()->time_travel);
  EXPECT_EQ(client.capabilities()->backend, "live");

  // The gate rejects jump before any state checks — even while running.
  EXPECT_FALSE(client.jump(10));
  EXPECT_EQ(client.last_error_code(), ErrorCode::UnsupportedCapability);

  EXPECT_FALSE(client.set_value("cycle_reg", "3"));
  EXPECT_EQ(client.last_error_code(), ErrorCode::UnsupportedCapability);

  runtime.stop_service();
}

TEST(SessionGating, SetValueWorksWhenSupported) {
  frontend::CompileOptions options;
  options.debug_mode = true;
  auto compiled = frontend::compile(ir::parse_circuit(kDesign), options);
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(compiled.netlist);
  vpi::NativeBackend backend(simulator);
  runtime::Runtime runtime(backend, table);
  runtime.attach();

  auto [client_side, server_side] = rpc::make_channel_pair();
  runtime.serve(std::move(server_side));
  DebugClient client(std::move(client_side));
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.capabilities()->set_value);

  EXPECT_TRUE(client.set_value("Demo.cycle_reg", "200"));
  auto value = client.evaluate("cycle_reg", std::nullopt);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "200");

  EXPECT_FALSE(client.set_value("Demo.no_such_signal", "1"));
  EXPECT_EQ(client.last_error_code(), ErrorCode::NoSuchEntity);

  runtime.stop_service();
}

}  // namespace
}  // namespace hgdb::session
