// DAP front end: a scripted Debug Adapter Protocol client drives
// initialize -> setBreakpoints (with condition) -> attach -> stopped event
// -> stackTrace/scopes/variables -> evaluate -> continue -> disconnect
// against both the native and replay backends, plus Content-Length framing
// edge cases (split/coalesced frames, oversized headers, abrupt
// disconnects that must never hang the scheduler).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "common/json.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "session/dap_protocol.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "symbols/symbol_table.h"
#include "trace/vcd_reader.h"
#include "vpi/native_backend.h"
#include "vpi/replay_backend.h"

namespace hgdb::session {
namespace {

using common::Json;

constexpr const char* kDesign = R"(circuit Dap
  module Dap
    input clock : Clock
    output out : UInt<8>
    reg cycle_reg : UInt<8> clock clock
    connect cycle_reg = add(cycle_reg, UInt<8>(1)) @[dap.cc 5 1]
    wire t : UInt<8> @[dap.cc 6 1]
    connect t = add(cycle_reg, UInt<8>(7)) @[dap.cc 7 1]
    connect out = t @[dap.cc 8 1]
  end
end
)";

frontend::CompileResult compile_design() {
  frontend::CompileOptions options;
  options.debug_mode = true;
  return frontend::compile(ir::parse_circuit(kDesign), options);
}

/// Minimal scripted DAP client over a raw TCP byte stream, using the same
/// FrameCodec the server uses (round-trip coverage for the framing).
class DapClient {
 public:
  explicit DapClient(uint16_t port)
      : stream_(rpc::tcp_connect_stream("127.0.0.1", port)) {}

  /// Sends a request and blocks for its response; events arriving in
  /// between queue up for wait_event().
  Json request(const std::string& command, Json arguments = Json::object()) {
    Json message = Json::object();
    const int64_t seq = next_seq_++;
    message["seq"] = Json(seq);
    message["type"] = Json("request");
    message["command"] = Json(command);
    message["arguments"] = std::move(arguments);
    send_raw(dap::FrameCodec::encode(message.dump()));
    while (true) {
      Json decoded = next_message();
      if (decoded.get_string("type") == "event") {
        events_.push_back(std::move(decoded));
        continue;
      }
      if (decoded.get_string("type") == "response" &&
          decoded.get_int("request_seq") == seq) {
        return decoded;
      }
    }
  }

  /// Blocks until the named event arrives (drains the queue first).
  Json wait_event(const std::string& name) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->get_string("event") == name) {
        Json event = std::move(*it);
        events_.erase(it);
        return event;
      }
    }
    while (true) {
      Json decoded = next_message();
      if (decoded.get_string("type") == "event") {
        if (decoded.get_string("event") == name) return decoded;
        events_.push_back(std::move(decoded));
      }
    }
  }

  /// Raw byte access for the framing edge-case tests.
  void send_raw(const std::string& bytes) {
    ASSERT_TRUE(stream_->send_bytes(bytes));
  }
  rpc::ByteStream& stream() { return *stream_; }
  void close() { stream_->close(); }

 private:
  Json next_message() {
    while (true) {
      if (auto payload = codec_.next()) return Json::parse(*payload);
      auto chunk = stream_->receive_some();
      if (!chunk) {
        throw std::runtime_error("dap connection closed");
      }
      codec_.feed(*chunk);
    }
  }

  std::unique_ptr<rpc::ByteStream> stream_;
  dap::FrameCodec codec_;
  int64_t next_seq_ = 1;
  std::deque<Json> events_;
};

Json breakpoint_args(const std::string& path, uint32_t line,
                     const std::string& condition = "") {
  Json source = Json::object();
  source["path"] = Json(path);
  Json bp = Json::object();
  bp["line"] = Json(static_cast<int64_t>(line));
  if (!condition.empty()) bp["condition"] = Json(condition);
  Json list = Json::array();
  list.push_back(std::move(bp));
  Json args = Json::object();
  args["source"] = std::move(source);
  args["breakpoints"] = std::move(list);
  return args;
}

/// Drives the full scripted IDE session against whatever runtime is
/// listening on `port`; `start_sim` launches the simulation/replay.
void run_scripted_session(uint16_t port, const std::function<void()>& start_sim,
                          const std::string& backend) {
  DapClient client(port);

  // initialize: capability advertisement + the initialized event.
  Json response = client.request("initialize");
  ASSERT_TRUE(response.get_bool("success"));
  EXPECT_TRUE(response["body"].get_bool("supportsConfigurationDoneRequest"));
  EXPECT_TRUE(response["body"].get_bool("supportsConditionalBreakpoints"));
  EXPECT_EQ(response["body"].get_bool("supportsStepBack"),
            backend == "replay");
  client.wait_event("initialized");

  // setBreakpoints with a condition, then attach + configurationDone.
  response =
      client.request("setBreakpoints",
                     breakpoint_args("dap.cc", 7, "cycle_reg % 2 == 1"));
  ASSERT_TRUE(response.get_bool("success"));
  ASSERT_EQ(response["body"]["breakpoints"].size(), 1u);
  EXPECT_TRUE(response["body"]["breakpoints"].at(0).get_bool("verified"));

  ASSERT_TRUE(client.request("attach").get_bool("success"));
  ASSERT_TRUE(client.request("configurationDone").get_bool("success"));

  start_sim();

  // stopped event -> threads -> stackTrace -> scopes -> variables.
  Json stopped = client.wait_event("stopped");
  EXPECT_EQ(stopped["body"].get_string("reason"), "breakpoint");
  EXPECT_TRUE(stopped["body"].get_bool("allThreadsStopped"));
  const int64_t thread_id = stopped["body"].get_int("threadId");
  EXPECT_GT(thread_id, 0);

  response = client.request("threads");
  ASSERT_TRUE(response.get_bool("success"));
  ASSERT_EQ(response["body"]["threads"].size(), 1u);
  EXPECT_EQ(response["body"]["threads"].at(0).get_string("name"), "Dap");
  EXPECT_EQ(response["body"]["threads"].at(0).get_int("id"), thread_id);

  Json args = Json::object();
  args["threadId"] = Json(thread_id);
  response = client.request("stackTrace", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  ASSERT_GE(response["body"]["stackFrames"].size(), 1u);
  Json frame = response["body"]["stackFrames"].at(0);
  EXPECT_EQ(frame.get_int("line"), 7);
  EXPECT_EQ(frame["source"].get_string("path"), "dap.cc");
  const int64_t frame_id = frame.get_int("id");

  args = Json::object();
  args["frameId"] = Json(frame_id);
  response = client.request("scopes", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  ASSERT_EQ(response["body"]["scopes"].size(), 2u);
  EXPECT_EQ(response["body"]["scopes"].at(0).get_string("name"), "Locals");
  EXPECT_EQ(response["body"]["scopes"].at(1).get_string("name"), "Generator");
  const int64_t generator_ref =
      response["body"]["scopes"].at(1).get_int("variablesReference");

  args = Json::object();
  args["variablesReference"] = Json(generator_ref);
  response = client.request("variables", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  bool found_cycle_reg = false;
  for (const auto& variable : response["body"]["variables"].as_array()) {
    if (variable.get_string("name") == "cycle_reg") found_cycle_reg = true;
  }
  EXPECT_TRUE(found_cycle_reg);

  // evaluate in the stopped frame: the condition held, so parity is 1.
  args = Json::object();
  args["expression"] = Json("cycle_reg % 2");
  args["frameId"] = Json(frame_id);
  response = client.request("evaluate", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  EXPECT_EQ(response["body"].get_string("result"), "1");

  // continue -> next stop -> disconnect releases everything.
  response = client.request("continue");
  ASSERT_TRUE(response.get_bool("success"));
  EXPECT_TRUE(response["body"].get_bool("allThreadsContinued"));
  client.wait_event("stopped");
  ASSERT_TRUE(client.request("continue").get_bool("success"));
  ASSERT_TRUE(client.request("disconnect").get_bool("success"));
}

// -- native backend ------------------------------------------------------------

class DapNativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto compiled = compile_design();
    table_ = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    simulator_ = std::make_unique<sim::Simulator>(compiled.netlist);
    backend_ = std::make_unique<vpi::NativeBackend>(*simulator_);
    runtime_ = std::make_unique<runtime::Runtime>(*backend_, *table_);
    runtime_->attach();
    port_ = runtime_->serve_dap(0);
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
  uint16_t port_ = 0;
  std::thread sim_thread_;
};

TEST_F(DapNativeTest, ScriptedSessionEndToEnd) {
  run_scripted_session(port_, [this] { run_async(8); }, "live");
}

TEST_F(DapNativeTest, SetVariableWritesThroughTheTypedServicePath) {
  DapClient client(port_);
  Json response = client.request("initialize");
  ASSERT_TRUE(response.get_bool("success"));
  // The native backend supports set-value, so the capability is on.
  EXPECT_TRUE(response["body"].get_bool("supportsSetVariable"));
  client.wait_event("initialized");

  ASSERT_TRUE(client.request("setBreakpoints", breakpoint_args("dap.cc", 7))
                  .get_bool("success"));
  ASSERT_TRUE(client.request("attach").get_bool("success"));
  ASSERT_TRUE(client.request("configurationDone").get_bool("success"));

  run_async(4);
  Json stopped = client.wait_event("stopped");
  const int64_t thread_id = stopped["body"].get_int("threadId");

  Json args = Json::object();
  args["threadId"] = Json(thread_id);
  response = client.request("stackTrace", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  const int64_t frame_id =
      response["body"]["stackFrames"].at(0).get_int("id");

  args = Json::object();
  args["frameId"] = Json(frame_id);
  response = client.request("scopes", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  const int64_t generator_ref =
      response["body"]["scopes"].at(1).get_int("variablesReference");

  // Write the register through the scope reference; the response echoes
  // the value the simulator actually took (evaluator read-back).
  args = Json::object();
  args["variablesReference"] = Json(generator_ref);
  args["name"] = Json("cycle_reg");
  args["value"] = Json("77");
  response = client.request("setVariable", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  EXPECT_EQ(response["body"].get_string("value"), "77");
  EXPECT_EQ(response["body"].get_int("variablesReference"), 0);

  // The evaluator sees the forced value in the stopped frame, and the
  // cached variables table for the same reference is coherent.
  args = Json::object();
  args["expression"] = Json("cycle_reg");
  args["frameId"] = Json(frame_id);
  response = client.request("evaluate", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  EXPECT_EQ(response["body"].get_string("result"), "77");

  args = Json::object();
  args["variablesReference"] = Json(generator_ref);
  response = client.request("variables", std::move(args));
  ASSERT_TRUE(response.get_bool("success"));
  bool found = false;
  for (const auto& variable : response["body"]["variables"].as_array()) {
    if (variable.get_string("name") == "cycle_reg") {
      EXPECT_EQ(variable.get_string("value"), "77");
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // A name that resolves nowhere fails with a DAP error response, not a
  // dropped connection.
  args = Json::object();
  args["variablesReference"] = Json(generator_ref);
  args["name"] = Json("no_such_signal");
  args["value"] = Json("1");
  response = client.request("setVariable", std::move(args));
  EXPECT_FALSE(response.get_bool("success"));

  ASSERT_TRUE(client.request("continue").get_bool("success"));
  client.wait_event("stopped");
  ASSERT_TRUE(client.request("continue").get_bool("success"));
  ASSERT_TRUE(client.request("disconnect").get_bool("success"));
}

TEST_F(DapNativeTest, HgdbMetricsCustomRequestServesTheRegistry) {
  DapClient client(port_);
  ASSERT_TRUE(client.request("initialize").get_bool("success"));

  run_async(6);
  sim_thread_.join();

  Json response = client.request("hgdbMetrics");
  ASSERT_TRUE(response.get_bool("success"));
  // Both renderings of the same registry: the JSON snapshot for
  // programmatic consumers and the Prometheus page for scrapers.
  EXPECT_GE(response["body"]["metrics"]["counters"].get_int(
                "runtime.clock_edges"),
            6);
  const std::string prometheus = response["body"].get_string("prometheus");
  EXPECT_NE(prometheus.find("# TYPE hgdb_runtime_clock_edges counter"),
            std::string::npos);
  // The DAP dispatcher counts its own commands into the same registry.
  EXPECT_GE(response["body"]["metrics"]["counters"].get_int(
                "session.dap.command.initialize"),
            1);

  client.request("disconnect");
}

TEST_F(DapNativeTest, UnknownCommandsShareOneCounter) {
  DapClient client(port_);
  ASSERT_TRUE(client.request("initialize").get_bool("success"));
  for (int i = 0; i < 5; ++i) {
    Json response = client.request("bogus" + std::to_string(i));
    EXPECT_FALSE(response.get_bool("success"));
  }
  ASSERT_TRUE(client.request("threads").get_bool("success"));

  // Client-chosen command strings never become registry names: every
  // unknown command lands on one counter.
  const std::string registry = runtime_->metrics().snapshot_json().dump();
  EXPECT_EQ(registry.find("bogus"), std::string::npos) << registry;
  EXPECT_EQ(runtime_->metrics().counter("session.dap.command.unknown").value(),
            5u);
  EXPECT_EQ(runtime_->metrics().counter("session.dap.command.threads").value(),
            1u);
  client.request("disconnect");
}

TEST_F(DapNativeTest, SplitAndCoalescedFramesOverTcp) {
  DapClient client(port_);

  // Split: one request delivered byte-dribbled across many TCP segments.
  const std::string framed = dap::FrameCodec::encode(
      R"({"seq":1,"type":"request","command":"initialize","arguments":{}})");
  for (size_t i = 0; i < framed.size(); i += 7) {
    client.send_raw(framed.substr(i, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Json response = client.wait_event("initialized");
  EXPECT_EQ(response.get_string("event"), "initialized");

  // Coalesced: two complete requests in a single send. Both must be
  // answered, in order.
  const std::string two =
      dap::FrameCodec::encode(
          R"({"seq":2,"type":"request","command":"threads","arguments":{}})") +
      dap::FrameCodec::encode(
          R"({"seq":3,"type":"request","command":"attach","arguments":{}})");
  client.send_raw(two);
  dap::FrameCodec codec;
  std::vector<Json> responses;
  while (responses.size() < 2) {
    auto chunk = client.stream().receive_some();
    ASSERT_TRUE(chunk.has_value());
    codec.feed(*chunk);
    while (auto payload = codec.next()) {
      Json decoded = Json::parse(*payload);
      if (decoded.get_string("type") == "response") {
        responses.push_back(std::move(decoded));
      }
    }
  }
  EXPECT_EQ(responses[0].get_int("request_seq"), 2);
  EXPECT_TRUE(responses[0].get_bool("success"));
  EXPECT_EQ(responses[1].get_int("request_seq"), 3);
  EXPECT_TRUE(responses[1].get_bool("success"));
}

TEST_F(DapNativeTest, OversizedHeaderDropsTheConnection) {
  DapClient client(port_);
  // 16 KiB of header bytes with no terminating blank line: the codec's
  // 8 KiB cap must trip and the server must drop the connection instead of
  // buffering forever.
  client.send_raw(std::string(16 * 1024, 'x'));
  const auto closed = client.stream().receive_some();
  EXPECT_FALSE(closed.has_value());

  // The listener survives: a fresh client still gets served.
  DapClient fresh(port_);
  EXPECT_TRUE(fresh.request("initialize").get_bool("success"));
  fresh.request("disconnect");
}

TEST_F(DapNativeTest, AbruptDisconnectMidStopNeverHangsTheScheduler) {
  auto client = std::make_unique<DapClient>(port_);
  ASSERT_TRUE(client->request("initialize").get_bool("success"));
  ASSERT_TRUE(
      client->request("setBreakpoints", breakpoint_args("dap.cc", 7))
          .get_bool("success"));

  run_async(6);
  client->wait_event("stopped");
  // Kill the socket while the simulation is parked in the stop handshake
  // waiting for this client's answer. The teardown must resign the client
  // and auto-resume, or the sim thread never finishes.
  client->close();
  client.reset();

  sim_thread_.join();  // hangs forever if the scheduler was not released
  EXPECT_GE(simulator_->cycle(), 6u);
}

TEST_F(DapNativeTest, AbruptDisconnectMidRequestBytes) {
  // Half a request (header promises more bytes than ever arrive), then the
  // peer vanishes; the reader must tear the session down cleanly.
  auto client = std::make_unique<DapClient>(port_);
  client->send_raw("Content-Length: 500\r\n\r\n{\"seq\":1,");
  client->close();
  client.reset();

  // The service keeps serving: a fresh scripted client completes a full
  // round-trip.
  DapClient fresh(port_);
  EXPECT_TRUE(fresh.request("initialize").get_bool("success"));
  fresh.request("disconnect");
}

// -- replay backend ------------------------------------------------------------

class DapReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "hgdb_dap_replay_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".vcd";
    auto compiled = compile_design();
    data_ = compiled.symbols;
    sim::Simulator simulator(compiled.netlist);
    sim::VcdWriter writer(simulator, path_);
    writer.attach();
    simulator.run(10);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  symbols::SymbolTableData data_;
};

TEST_F(DapReplayTest, ScriptedSessionAgainstRecordedTrace) {
  symbols::MemorySymbolTable table(data_);
  vpi::ReplayBackend backend{trace::ReplayEngine(trace::parse_vcd_file(path_))};
  runtime::Runtime runtime(backend, table);
  runtime.attach();
  const uint16_t port = runtime.serve_dap(0);

  std::thread replay_thread;
  run_scripted_session(
      port,
      [&] {
        replay_thread = std::thread([&] { backend.run_forward(); });
      },
      "replay");

  replay_thread.join();
  runtime.stop_service();
}

// -- codec unit coverage -------------------------------------------------------

TEST(DapFrameCodec, ReassemblesSplitAndCoalescedFrames) {
  dap::FrameCodec codec;
  const std::string one = dap::FrameCodec::encode("{\"a\":1}");
  const std::string two = dap::FrameCodec::encode("{\"b\":2}");

  // Byte-by-byte feed of the first message: exactly one payload pops out,
  // and only once the final byte arrived.
  for (size_t i = 0; i + 1 < one.size(); ++i) {
    codec.feed(std::string_view(&one[i], 1));
    EXPECT_FALSE(codec.next().has_value()) << "byte " << i;
  }
  codec.feed(std::string_view(&one[one.size() - 1], 1));
  auto payload = codec.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"a\":1}");
  EXPECT_FALSE(codec.next().has_value());

  // Two messages in one feed: both pop, in order.
  codec.feed(one + two);
  payload = codec.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"a\":1}");
  payload = codec.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"b\":2}");
  EXPECT_FALSE(codec.next().has_value());
}

TEST(DapFrameCodec, IgnoresExtraHeadersAndWhitespace) {
  dap::FrameCodec codec;
  codec.feed("Content-Type: application/json\r\ncontent-length:  7 \r\n\r\n{\"a\":1}");
  auto payload = codec.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"a\":1}");
}

TEST(DapRequest, OutOfRangeSeqIsAMalformedMessage) {
  const Json message = Json::parse(
      R"({"seq":1e300,"type":"request","command":"threads","arguments":{}})");
  try {
    (void)dap::parse_request(message);
    FAIL() << "parse_request accepted seq 1e300";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("dap: ", 0), 0u) << error.what();
  }
}

TEST(DapFrameCodec, RejectsMalformedHeaders) {
  {
    dap::FrameCodec codec;
    codec.feed(std::string(dap::FrameCodec::kMaxHeaderBytes + 1, 'h'));
    EXPECT_THROW(codec.next(), std::runtime_error);  // oversized header
  }
  {
    dap::FrameCodec codec;
    codec.feed("X-Whatever: 1\r\n\r\n");
    EXPECT_THROW(codec.next(), std::runtime_error);  // no Content-Length
  }
  {
    dap::FrameCodec codec;
    codec.feed("Content-Length: banana\r\n\r\n");
    EXPECT_THROW(codec.next(), std::runtime_error);  // non-numeric
  }
  {
    dap::FrameCodec codec;
    codec.feed("Content-Length: 99999999999999\r\n\r\n");
    EXPECT_THROW(codec.next(), std::runtime_error);  // body beyond the cap
  }
}

}  // namespace
}  // namespace hgdb::session
