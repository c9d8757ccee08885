#include "debugger/client.h"

#include <gtest/gtest.h>

#include <thread>

#include "frontend/compile.h"
#include "ir/parser.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace hgdb::debugger {
namespace {

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

/// Full stack: DebugClient <-(protocol)-> Runtime <-(VPI)-> Simulator,
/// with the simulation on its own thread like a live simulator process.
class ClientTest : public ::testing::Test {
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

    auto [client_side, server_side] = rpc::make_channel_pair();
    runtime_->serve(std::move(server_side));
    client_ = std::make_unique<DebugClient>(std::move(client_side));
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
  std::unique_ptr<DebugClient> client_;
  std::thread sim_thread_;
};

TEST_F(ClientTest, SetBreakpointAndHit) {
  auto ids = client_->set_breakpoint("demo.cc", 7);
  ASSERT_EQ(ids.size(), 1u);
  run_async(5);
  auto stop = client_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop.has_value());
  ASSERT_EQ(stop->frames.size(), 1u);
  EXPECT_EQ(stop->frames[0].line, 7u);
  EXPECT_EQ(stop->frames[0].instance_name, "Demo");
  client_->detach();
}

TEST_F(ClientTest, UnknownLocationReportsError) {
  auto ids = client_->set_breakpoint("demo.cc", 999);
  EXPECT_TRUE(ids.empty());
  EXPECT_NE(client_->last_error().find("no breakpoint"), std::string::npos);
}

TEST_F(ClientTest, ListLocations) {
  auto locations = client_->list_locations("demo.cc");
  EXPECT_EQ(locations.size(), 3u);  // lines 5, 7 and... plus reg next
  auto line7 = client_->list_locations("demo.cc", 7);
  ASSERT_EQ(line7.size(), 1u);
  EXPECT_EQ(line7.at(0).get_int("line"), 7);
}

TEST_F(ClientTest, ContinueStepEvaluateFlow) {
  client_->set_breakpoint("demo.cc", 5);
  run_async(4);
  auto first = client_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(first.has_value());
  const int64_t bp_id = first->frames[0].breakpoint_id;

  // Evaluate while stopped (the register latched 1 at this first edge).
  auto value = client_->evaluate("cycle_reg + 1", bp_id);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "2");

  // Step over: next statement is line 7.
  ASSERT_TRUE(client_->step_over());
  auto second = client_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->frames[0].line, 7u);

  ASSERT_TRUE(client_->detach());
}

TEST_F(ClientTest, ConditionalBreakpointOverRpc) {
  client_->set_breakpoint("demo.cc", 5, "cycle_reg == 3");
  run_async(6);
  auto stop = client_->wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->frames[0].generator.get_string("cycle_reg"), "3");
  client_->detach();
}

TEST_F(ClientTest, InfoReportsState) {
  client_->set_breakpoint("demo.cc", 7);
  auto info = client_->info();
  EXPECT_EQ(info["breakpoints"].size(), 1u);
  ASSERT_TRUE(info.contains("files"));
  EXPECT_EQ(info["files"].at(0).as_string(), "demo.cc");
  client_->remove_breakpoint("demo.cc", 7);
  EXPECT_EQ(client_->info()["breakpoints"].size(), 0u);
}

TEST_F(ClientTest, EvaluationErrorsSurfaceReason) {
  auto result = client_->evaluate("no_such_signal + 1", std::nullopt);
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(client_->last_error().empty());
}

TEST(ClientTcp, FullSessionOverTcp) {
  frontend::CompileOptions options;
  options.debug_mode = true;
  auto compiled = frontend::compile(ir::parse_circuit(kDesign), options);
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(compiled.netlist);
  vpi::NativeBackend backend(simulator);
  runtime::Runtime runtime(backend, table);
  runtime.attach();

  rpc::TcpServer server;
  std::unique_ptr<rpc::Channel> server_side;
  std::thread acceptor([&] { server_side = server.accept(); });
  auto client_channel = rpc::tcp_connect("127.0.0.1", server.port());
  acceptor.join();
  runtime.serve(std::move(server_side));
  DebugClient client(std::move(client_channel));

  ASSERT_EQ(client.set_breakpoint("demo.cc", 7).size(), 1u);
  std::thread sim_thread([&] {
    while (simulator.cycle() < 3) simulator.tick();
  });
  auto stop = client.wait_stop(std::chrono::milliseconds(5000));
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->frames[0].line, 7u);
  client.detach();
  sim_thread.join();
  runtime.stop_service();
}

}  // namespace
}  // namespace hgdb::debugger
