// Precompiled stop frames: once arming is done, a stop queries no symbol
// table and reads no signal by name. The frames it renders must equal the
// by-name reconstruction (table rows + SimulatorInterface::get_value), on
// the live simulator and on an indexed replay, and the replay backend's
// pinned blocks stay within the armed read set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>

#include "frontend/compile.h"
#include "ir/parser.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"
#include "vpi/replay_backend.h"
#include "waveform/indexed_waveform.h"

namespace hgdb::runtime {
namespace {

using Command = Runtime::Command;

/// Two instances of one module: every stop at a Leaf line carries two
/// frames, each with its own generator variables.
constexpr const char* kDesign = R"(circuit Top
  module Leaf
    input clock : Clock
    input in : UInt<8>
    output out : UInt<8>
    reg acc : UInt<8> clock clock
    connect acc = add(acc, in) @[leaf.cc 3 1]
    wire t : UInt<8> @[leaf.cc 4 1]
    connect t = add(acc, UInt<8>(1)) @[leaf.cc 5 1]
    connect t = add(t, in) @[leaf.cc 6 1]
    connect out = t @[leaf.cc 7 1]
  end
  module Top
    input clock : Clock
    output out : UInt<8>
    reg cycle_reg : UInt<8> clock clock
    connect cycle_reg = add(cycle_reg, UInt<8>(1)) @[top.cc 3 1]
    inst a of Leaf
    inst b of Leaf
    connect a.clock = clock
    connect b.clock = clock
    connect a.in = cycle_reg
    connect b.in = UInt<8>(3)
    connect out = add(a.out, b.out) @[top.cc 9 1]
  end
end
)";

frontend::CompileResult compile_design() {
  frontend::CompileOptions options;
  options.debug_mode = true;
  return frontend::compile(ir::parse_circuit(kDesign), options);
}

/// Counts every query that reaches the wrapped table.
class CountingSymbolTable final : public symbols::SymbolTable {
 public:
  explicit CountingSymbolTable(const symbols::SymbolTable& inner)
      : inner_(inner) {}

  [[nodiscard]] size_t calls() const { return calls_.load(); }
  void reset() { calls_.store(0); }

  std::vector<symbols::BreakpointRow> breakpoints_at(
      const std::string& filename, uint32_t line) const override {
    ++calls_;
    return inner_.breakpoints_at(filename, line);
  }
  std::vector<symbols::BreakpointRow> all_breakpoints() const override {
    ++calls_;
    return inner_.all_breakpoints();
  }
  std::optional<symbols::BreakpointRow> breakpoint(int64_t id) const override {
    ++calls_;
    return inner_.breakpoint(id);
  }
  std::vector<symbols::ResolvedVariable> scope_variables(
      int64_t breakpoint_id) const override {
    ++calls_;
    return inner_.scope_variables(breakpoint_id);
  }
  std::optional<symbols::ResolvedVariable> resolve_scope_variable(
      int64_t breakpoint_id, const std::string& name) const override {
    ++calls_;
    return inner_.resolve_scope_variable(breakpoint_id, name);
  }
  std::vector<symbols::ResolvedVariable> generator_variables(
      int64_t instance_id) const override {
    ++calls_;
    return inner_.generator_variables(instance_id);
  }
  std::optional<symbols::ResolvedVariable> resolve_generator_variable(
      int64_t instance_id, const std::string& name) const override {
    ++calls_;
    return inner_.resolve_generator_variable(instance_id, name);
  }
  std::vector<symbols::InstanceRow> instances() const override {
    ++calls_;
    return inner_.instances();
  }
  std::optional<symbols::InstanceRow> instance(int64_t id) const override {
    ++calls_;
    return inner_.instance(id);
  }
  std::optional<symbols::InstanceRow> instance_by_name(
      const std::string& name) const override {
    ++calls_;
    return inner_.instance_by_name(name);
  }
  std::vector<std::string> files() const override {
    ++calls_;
    return inner_.files();
  }

 private:
  const symbols::SymbolTable& inner_;
  mutable std::atomic<size_t> calls_{0};
};

/// Design name of an instance-relative RTL value, as the runtime maps it.
std::string design_name(const Runtime& runtime, const rpc::Frame& frame,
                        const std::string& value) {
  const std::string symbol = frame.instance_name + "." + value;
  const auto* mapper = runtime.hierarchy_mapper();
  return mapper != nullptr && mapper->valid() ? mapper->to_design(symbol)
                                              : symbol;
}

/// The frame objects rebuilt by name: table rows in order, RTL values
/// read one at a time through get_value().
common::Json by_name(Runtime& runtime, const symbols::SymbolTable& table,
                     const rpc::Frame& frame, bool generator) {
  common::Json object = common::Json::object();
  const auto rows = generator ? table.generator_variables(frame.instance_id)
                              : table.scope_variables(frame.breakpoint_id);
  for (const auto& row : rows) {
    std::string text = row.value;
    if (row.is_rtl) {
      auto value = runtime.sim_interface().get_value(
          design_name(runtime, frame, row.value));
      text = value ? value->to_string(10) : "<unavailable>";
    }
    rpc::insert_nested(object, row.name, common::Json(text));
  }
  return object;
}

/// Checks every frame of a stop against the by-name reconstruction.
void expect_frames_by_name(Runtime& runtime, const symbols::SymbolTable& table,
                           const rpc::StopEvent& event) {
  for (const auto& frame : event.frames) {
    EXPECT_EQ(frame.locals.dump(),
              by_name(runtime, table, frame, false).dump())
        << frame.instance_name << " line " << frame.line;
    EXPECT_EQ(frame.generator.dump(),
              by_name(runtime, table, frame, true).dump())
        << frame.instance_name << " line " << frame.line;
  }
}

TEST(FramePlan, StopsQueryNoSymbolTableOnceArmed) {
  auto compiled = compile_design();
  symbols::MemorySymbolTable memory(compiled.symbols);
  CountingSymbolTable table(memory);
  sim::Simulator simulator(compiled.netlist);
  simulator.enable_checkpoints(true);
  vpi::NativeBackend backend(simulator);
  Runtime runtime(backend, table);
  runtime.attach();
  ASSERT_FALSE(runtime.add_breakpoint("leaf.cc", 6).empty());
  ASSERT_FALSE(runtime.add_breakpoint("top.cc", 3, "cycle_reg == 4").empty());
  ASSERT_GT(table.calls(), 0u);  // arming resolves through the table

  table.reset();
  size_t stops = 0;
  size_t calls_during_stops = 0;
  runtime.set_stop_handler([&](const rpc::StopEvent& event) {
    ++stops;
    calls_during_stops = table.calls();
    EXPECT_FALSE(event.frames.empty());
    // One reverse-continue: it stops at armed breakpoints too.
    return stops == 6 ? Command::ReverseContinue : Command::Continue;
  });
  while (simulator.cycle() < 8) simulator.tick();
  EXPECT_GT(stops, 8u);
  EXPECT_EQ(calls_during_stops, 0u);
  EXPECT_EQ(table.calls(), 0u);
}

TEST(FramePlan, LiveFramesEqualByNameReads) {
  auto compiled = compile_design();
  symbols::MemorySymbolTable table(compiled.symbols);
  sim::Simulator simulator(compiled.netlist);
  vpi::NativeBackend backend(simulator);
  Runtime runtime(backend, table);
  runtime.attach();
  ASSERT_EQ(runtime.add_breakpoint("leaf.cc", 6).size(), 2u);
  size_t frames = 0;
  runtime.set_stop_handler([&](const rpc::StopEvent& event) {
    frames += event.frames.size();
    expect_frames_by_name(runtime, table, event);
    return Command::StepOver;  // step stops reach unarmed lines as well
  });
  while (simulator.cycle() < 5) simulator.tick();
  EXPECT_GT(frames, 10u);
  // Explicit frame requests take the same path.
  for (const auto& bp : table.breakpoints_at("leaf.cc", 6)) {
    const rpc::Frame frame = runtime.build_frame(bp.id);
    EXPECT_EQ(frame.locals.dump(), by_name(runtime, table, frame, false).dump());
  }
}

class ReplayFramePlan : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "hgdb_frame_plan_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".wvx";
    auto compiled = compile_design();
    {
      sim::Simulator simulator(compiled.netlist);
      waveform::IndexWriterOptions options;
      options.block_capacity = 4;
      sim::VcdWriter writer(simulator, path_, options);
      writer.attach();
      simulator.run(40);
    }
    table_ = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    index_ = std::make_shared<waveform::IndexedWaveform>(path_, 4);
    backend_ = std::make_unique<vpi::ReplayBackend>(trace::ReplayEngine(index_));
    runtime_ = std::make_unique<Runtime>(*backend_, *table_);
    runtime_->attach();
  }
  void TearDown() override {
    runtime_.reset();
    std::remove(path_.c_str());
  }

  /// Backend handles of every RTL variable in the frames at
  /// `filename`:`line`, plus `extra` (a condition's signal) per instance.
  std::set<uint64_t> frame_handles(const std::string& filename, uint32_t line,
                                   const std::string& extra = "") {
    std::set<uint64_t> read_set;
    for (const auto& bp : table_->breakpoints_at(filename, line)) {
      const auto instance = table_->instance(bp.instance_id);
      EXPECT_TRUE(instance.has_value());
      rpc::Frame frame;
      frame.instance_name = instance->name;
      auto rows = table_->scope_variables(bp.id);
      const auto generator = table_->generator_variables(bp.instance_id);
      rows.insert(rows.end(), generator.begin(), generator.end());
      if (!extra.empty()) rows.push_back({extra, extra, true});
      for (const auto& row : rows) {
        if (!row.is_rtl) continue;
        if (auto handle = backend_->lookup_signal(
                design_name(*runtime_, frame, row.value))) {
          read_set.insert(*handle);
        }
      }
    }
    return read_set;
  }

  std::string path_;
  std::unique_ptr<symbols::MemorySymbolTable> table_;
  std::shared_ptr<waveform::IndexedWaveform> index_;
  std::unique_ptr<vpi::ReplayBackend> backend_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(ReplayFramePlan, PinsStayWithinTheArmedReadSet) {
  ASSERT_EQ(runtime_->add_breakpoint("leaf.cc", 6, "acc > 2").size(), 2u);
  // plan ∪ frames: the condition's `acc` plus the frames' RTL variables.
  const auto read_set = frame_handles("leaf.cc", 6, "acc");
  size_t stops = 0;
  size_t most_pinned = 0;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    ++stops;
    expect_frames_by_name(*runtime_, *table_, event);
    most_pinned = std::max(most_pinned, backend_->pinned_blocks());
    return Command::Continue;
  });
  backend_->run_forward();
  EXPECT_GT(stops, 10u);
  EXPECT_GT(most_pinned, 0u);
  EXPECT_LE(most_pinned, read_set.size());
  EXPECT_LE(index_->cache_stats().peak_resident, index_->cache_capacity());

  runtime_->clear_breakpoints();
  EXPECT_EQ(backend_->pinned_blocks(), 0u);
}

TEST_F(ReplayFramePlan, ShrinkingTheArmedSetReleasesPins) {
  ASSERT_FALSE(runtime_->add_breakpoint("top.cc", 3).empty());
  ASSERT_EQ(runtime_->add_breakpoint("leaf.cc", 6, "acc > 2").size(), 2u);
  const auto read_set = frame_handles("leaf.cc", 6, "acc");
  // The Top frame reads signals no Leaf frame reads.
  const auto top = frame_handles("top.cc", 3);
  ASSERT_FALSE(std::includes(read_set.begin(), read_set.end(), top.begin(),
                             top.end()));
  size_t stops = 0;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    ++stops;
    expect_frames_by_name(*runtime_, *table_, event);
    if (!event.frames.empty() && event.frames.front().filename == "top.cc") {
      // The Top frame's reads are pinned now; disarming its line drops
      // them at the next fetch.
      runtime_->remove_breakpoint("top.cc", 3);
    }
    return Command::Continue;
  });
  backend_->run_forward();
  EXPECT_GT(stops, 10u);
  EXPECT_LE(backend_->pinned_blocks(), read_set.size());
}

}  // namespace
}  // namespace hgdb::runtime
