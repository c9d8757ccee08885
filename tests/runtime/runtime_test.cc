#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "frontend/compile.h"
#include "ir/parser.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace hgdb::runtime {
namespace {

using Command = Runtime::Command;
using common::BitVector;

/// A small design with known synthetic source locations ("demo.cc"):
///   line 5: register increment (always enabled)
///   line 7: unconditional assignment to t
///   line 8: when condition
///   line 9: conditional assignment (enabled when cycle_reg > 3)
constexpr const char* kDemo = R"(circuit Demo
  module Demo
    input clock : Clock
    output out : UInt<8>
    reg cycle_reg : UInt<8> clock clock
    connect cycle_reg = add(cycle_reg, UInt<8>(1)) @[demo.cc 5 1]
    wire t : UInt<8> @[demo.cc 6 1]
    connect t = cycle_reg @[demo.cc 7 1]
    when gt(cycle_reg, UInt<8>(3)) @[demo.cc 8 1]
      connect t = add(t, UInt<8>(10)) @[demo.cc 9 3]
    end
    connect out = t @[demo.cc 10 1]
  end
end
)";

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { build(kDemo); }

  void build(const char* text, RuntimeOptions options = {}) {
    // Tear down in dependency order before rebuilding: the runtime holds
    // pointers into the backend and table.
    runtime_.reset();
    backend_.reset();
    simulator_.reset();
    table_.reset();
    frontend::CompileOptions compile_options;
    compile_options.debug_mode = true;
    auto compiled = frontend::compile(ir::parse_circuit(text), compile_options);
    table_ = std::make_unique<symbols::MemorySymbolTable>(compiled.symbols);
    simulator_ = std::make_unique<sim::Simulator>(compiled.netlist);
    backend_ = std::make_unique<vpi::NativeBackend>(*simulator_);
    runtime_ = std::make_unique<Runtime>(*backend_, *table_, options);
    runtime_->attach();
  }

  /// Collects (line, frame-count) for every stop while running `cycles`.
  std::vector<std::pair<uint32_t, size_t>> run_collecting(
      uint64_t cycles, Command command = Command::Continue) {
    std::vector<std::pair<uint32_t, size_t>> stops;
    runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
      stops.emplace_back(event.frames.empty() ? 0 : event.frames[0].line,
                         event.frames.size());
      return command;
    });
    simulator_->run(cycles);
    return stops;
  }

  /// Stops as (edge time, instances that fired in frame order).
  using StopGrid = std::vector<std::pair<uint64_t, std::vector<std::string>>>;

  /// Arms `condition` at filename:line, runs `cycles`, and returns the
  /// runtime's stops next to the stops a test-side oracle expects. At
  /// every rising edge the oracle evaluates each member's symbol-table
  /// enable and the user condition with the tree walk
  /// (Expression::evaluate) over the backend's raw
  /// get_value(instance + "." + name); a member fires when both hold, and
  /// a fault counts as false.
  std::pair<StopGrid, StopGrid> run_against_oracle(const std::string& filename,
                                                   uint32_t line,
                                                   const std::string& condition,
                                                   uint64_t cycles) {
    struct Member {
      std::string instance;
      std::optional<Expression> enable;
    };
    std::vector<Member> members;
    for (const auto& row : table_->all_breakpoints()) {
      if (row.filename != filename || row.line_num != line) continue;
      Member member{table_->instance(row.instance_id)->name, std::nullopt};
      if (!row.enable.empty()) member.enable = Expression::parse(row.enable);
      members.push_back(std::move(member));
    }
    std::optional<Expression> user;
    if (!condition.empty()) user = Expression::parse(condition);
    auto holds = [&](const Expression& expr, const std::string& instance) {
      try {
        return expr
            .evaluate([&](const std::string& name) {
              return backend_->get_value(instance + "." + name);
            })
            .to_bool();
      } catch (const std::exception&) {
        return false;
      }
    };

    StopGrid expected;
    // Registered after the runtime's callback, so it sees the same settled
    // rising-edge values the runtime evaluated.
    const uint64_t oracle = backend_->add_clock_callback(
        [&](vpi::ClockEdge edge, uint64_t time) {
          if (edge != vpi::ClockEdge::Rising) return;
          std::vector<std::string> fired;
          for (const auto& member : members) {
            if ((!member.enable || holds(*member.enable, member.instance)) &&
                (!user || holds(*user, member.instance))) {
              fired.push_back(member.instance);
            }
          }
          if (!fired.empty()) expected.emplace_back(time, std::move(fired));
        });
    StopGrid actual;
    runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
      std::vector<std::string> instances;
      for (const auto& frame : event.frames) {
        instances.push_back(frame.instance_name);
      }
      actual.emplace_back(event.time, std::move(instances));
      return Command::Continue;
    });
    EXPECT_EQ(runtime_->add_breakpoint(filename, line, condition).size(),
              members.size());
    simulator_->run(cycles);
    backend_->remove_clock_callback(oracle);
    runtime_->set_stop_handler(nullptr);
    return {std::move(actual), std::move(expected)};
  }

  std::unique_ptr<symbols::MemorySymbolTable> table_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<vpi::NativeBackend> backend_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(RuntimeTest, AddBreakpointUnknownLocationEmpty) {
  EXPECT_TRUE(runtime_->add_breakpoint("demo.cc", 999).empty());
  EXPECT_TRUE(runtime_->add_breakpoint("ghost.cc", 7).empty());
  EXPECT_EQ(runtime_->inserted_count(), 0u);
}

TEST_F(RuntimeTest, UnconditionalBreakpointHitsEveryCycle) {
  ASSERT_FALSE(runtime_->add_breakpoint("demo.cc", 7).empty());
  auto stops = run_collecting(5);
  ASSERT_EQ(stops.size(), 5u);
  for (const auto& [line, frames] : stops) {
    EXPECT_EQ(line, 7u);
    EXPECT_EQ(frames, 1u);
  }
}

TEST_F(RuntimeTest, EnableConditionGatesBreakpoint) {
  // Line 9 is only enabled when cycle_reg > 3; the register latches 1..8
  // across 8 cycles, so values 4..8 enable it: 5 stops.
  ASSERT_FALSE(runtime_->add_breakpoint("demo.cc", 9).empty());
  auto stops = run_collecting(8);
  EXPECT_EQ(stops.size(), 5u);
}

TEST_F(RuntimeTest, UserConditionFiltersHits) {
  ASSERT_FALSE(
      runtime_->add_breakpoint("demo.cc", 7, "cycle_reg % 2 == 0").empty());
  auto stops = run_collecting(8);
  EXPECT_EQ(stops.size(), 4u);
}

TEST_F(RuntimeTest, BadConditionExpressionThrows) {
  EXPECT_THROW(runtime_->add_breakpoint("demo.cc", 7, "((("),
               std::invalid_argument);
}

TEST_F(RuntimeTest, RemoveBreakpointStopsHits) {
  runtime_->add_breakpoint("demo.cc", 7);
  EXPECT_EQ(runtime_->remove_breakpoint("demo.cc", 7), 1u);
  auto stops = run_collecting(5);
  EXPECT_TRUE(stops.empty());
  EXPECT_EQ(runtime_->inserted_count(), 0u);
}

TEST_F(RuntimeTest, FramesCarryScopeVariables) {
  runtime_->add_breakpoint("demo.cc", 9);
  std::optional<rpc::Frame> frame;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    if (!frame && !event.frames.empty()) frame = event.frames[0];
    return Command::Continue;
  });
  simulator_->run(6);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->filename, "demo.cc");
  EXPECT_EQ(frame->line, 9u);
  // Scope shows t's incoming SSA value (== cycle_reg at that point).
  ASSERT_TRUE(frame->locals.contains("t"));
  EXPECT_EQ(frame->locals.get_string("t"), "4");
  // Generator variables include the register.
  EXPECT_TRUE(frame->generator.contains("cycle_reg"));
}

TEST_F(RuntimeTest, StepOverWalksStatementsInOrder) {
  runtime_->add_breakpoint("demo.cc", 5);
  std::vector<uint32_t> lines;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    lines.push_back(event.frames.empty() ? 0 : event.frames[0].line);
    return lines.size() < 6 ? Command::StepOver : Command::Continue;
  });
  simulator_->run(6);
  ASSERT_GE(lines.size(), 5u);
  // Statement order within a cycle: 5 (reg), 7 (t=...), 8 (when), then
  // 9 if enabled else next cycle's 5.
  EXPECT_EQ(lines[0], 5u);
  EXPECT_EQ(lines[1], 7u);
  EXPECT_EQ(lines[2], 8u);
}

TEST_F(RuntimeTest, StepOverCrossesCycleBoundary) {
  runtime_->add_breakpoint("demo.cc", 10);
  std::vector<std::pair<uint32_t, uint64_t>> stops;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    stops.emplace_back(event.frames[0].line, event.time);
    return stops.size() == 1 ? Command::StepOver : Command::Continue;
  });
  simulator_->run(3);
  ASSERT_GE(stops.size(), 2u);
  EXPECT_EQ(stops[0].first, 10u);
  // After line 10 (last statement), stepping lands on line 5 of the NEXT
  // cycle.
  EXPECT_EQ(stops[1].first, 5u);
  EXPECT_GT(stops[1].second, stops[0].second);
}

TEST_F(RuntimeTest, FastPathWhenNothingInserted) {
  simulator_->run(100);
  auto stats = runtime_->stats();
  EXPECT_EQ(stats.clock_edges, 100u);
  EXPECT_EQ(stats.fast_path_exits, 100u);
  EXPECT_EQ(stats.batches_evaluated, 0u);
  EXPECT_EQ(stats.stops, 0u);
}

TEST_F(RuntimeTest, SchedulerOnlyEvaluatesWhenInserted) {
  runtime_->add_breakpoint("demo.cc", 7);
  run_collecting(10);
  auto stats = runtime_->stats();
  EXPECT_EQ(stats.stops, 10u);
  EXPECT_GT(stats.batches_evaluated, 0u);
  EXPECT_EQ(stats.fast_path_exits, 0u);
}

TEST_F(RuntimeTest, EvaluateInBreakpointScope) {
  runtime_->add_breakpoint("demo.cc", 9);
  std::optional<int64_t> bp_id;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    if (!bp_id && !event.frames.empty()) {
      bp_id = event.frames[0].breakpoint_id;
      auto value = runtime_->evaluate("t + 100", bp_id);
      EXPECT_TRUE(value.has_value());
      EXPECT_EQ(value->to_uint64(), 104u);  // t == 4 at the first hit
    }
    return Command::Continue;
  });
  simulator_->run(6);
  ASSERT_TRUE(bp_id.has_value());
}

TEST_F(RuntimeTest, EvaluateAgainstInstance) {
  simulator_->run(3);
  auto value = runtime_->evaluate("cycle_reg", std::nullopt, "Demo");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->to_uint64(), 3u);
  // Default instance = top.
  EXPECT_EQ(runtime_->evaluate("cycle_reg", std::nullopt)->to_uint64(), 3u);
  EXPECT_FALSE(runtime_->evaluate("ghost_signal", std::nullopt).has_value());
  EXPECT_FALSE(runtime_->evaluate("x", std::nullopt, "NoSuchInstance").has_value());
}

TEST_F(RuntimeTest, BuildFrameOnDemand) {
  simulator_->run(2);
  auto rows = table_->breakpoints_at("demo.cc", 7);
  ASSERT_FALSE(rows.empty());
  auto frame = runtime_->build_frame(rows[0].id);
  EXPECT_EQ(frame.line, 7u);
  EXPECT_THROW(runtime_->build_frame(99999), std::invalid_argument);
}

TEST_F(RuntimeTest, DetachSilencesCallbacks) {
  runtime_->add_breakpoint("demo.cc", 7);
  runtime_->detach();
  auto stops = run_collecting(5);
  EXPECT_TRUE(stops.empty());
  EXPECT_EQ(runtime_->stats().clock_edges, 0u);
}

TEST_F(RuntimeTest, SequentialEvalMatchesParallel) {
  // Default options: line 9 stops on each of its 5 enabled cycles.
  runtime_->add_breakpoint("demo.cc", 9);
  auto stops = run_collecting(8);
  EXPECT_EQ(stops.size(), 5u);
}

// -- concurrent instances: the paper's Fig. 4 B "threads" ----------------------

constexpr const char* kMultiInstance = R"(circuit Top
  module Worker
    input clock : Clock
    input bias : UInt<8>
    output out : UInt<8>
    reg acc : UInt<8> clock clock
    connect acc = add(acc, bias) @[worker.cc 3 1]
    connect out = acc @[worker.cc 4 1]
  end
  module Top
    input clock : Clock
    output out : UInt<8>
    inst w0 of Worker
    inst w1 of Worker
    inst w2 of Worker
    connect w0.clock = clock
    connect w1.clock = clock
    connect w2.clock = clock
    connect w0.bias = UInt<8>(1)
    connect w1.bias = UInt<8>(2)
    connect w2.bias = UInt<8>(3)
    connect out = add(w0.out, add(w1.out, w2.out))
  end
end
)";

TEST_F(RuntimeTest, OneStopCarriesAllInstanceFrames) {
  build(kMultiInstance);
  ASSERT_EQ(runtime_->add_breakpoint("worker.cc", 3).size(), 3u);
  std::vector<rpc::Frame> frames;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    if (frames.empty()) frames = event.frames;
    return Command::Continue;
  });
  simulator_->run(2);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].instance_name, "Top.w0");
  EXPECT_EQ(frames[1].instance_name, "Top.w1");
  EXPECT_EQ(frames[2].instance_name, "Top.w2");
  // Same source line, different data per thread.
  EXPECT_EQ(frames[0].generator.get_string("bias"), "1");
  EXPECT_EQ(frames[2].generator.get_string("bias"), "3");
}

TEST_F(RuntimeTest, ConditionSelectsSingleInstance) {
  build(kMultiInstance);
  runtime_->add_breakpoint("worker.cc", 3, "bias == 2");
  std::vector<rpc::Frame> frames;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    if (frames.empty()) frames = event.frames;
    return Command::Continue;
  });
  simulator_->run(2);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].instance_name, "Top.w1");
}

/// Threads of this process, from the kernel's per-task directory.
size_t thread_count() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST_F(RuntimeTest, SixteenInstanceBatchSpawnsNoThreads) {
  // One source line, sixteen instances: a batch large enough that a
  // parallel evaluator would dispatch it to worker threads.
  std::string text = R"(circuit Top
  module Worker
    input clock : Clock
    input bias : UInt<8>
    output out : UInt<8>
    reg acc : UInt<8> clock clock
    connect acc = add(acc, bias) @[worker.cc 3 1]
    connect out = acc @[worker.cc 4 1]
  end
  module Top
    input clock : Clock
    output out : UInt<8>
)";
  constexpr int kInstances = 16;
  for (int i = 0; i < kInstances; ++i) {
    text += "    inst w" + std::to_string(i) + " of Worker\n";
  }
  for (int i = 0; i < kInstances; ++i) {
    const std::string w = "w" + std::to_string(i);
    text += "    connect " + w + ".clock = clock\n";
    text += "    connect " + w + ".bias = UInt<8>(" + std::to_string(i + 1) +
            ")\n";
  }
  text += "    connect out = w0.out\n  end\nend\n";

  runtime_.reset();  // count from before any runtime exists
  const size_t threads_before = thread_count();
  build(text.c_str());
  const auto ids = runtime_->add_breakpoint("worker.cc", 3, "acc % 2 == 0");
  ASSERT_EQ(ids.size(), static_cast<size_t>(kInstances));
  std::vector<std::vector<int64_t>> stops;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    std::vector<int64_t> frame_ids;
    for (const auto& frame : event.frames) {
      frame_ids.push_back(frame.breakpoint_id);
    }
    stops.push_back(std::move(frame_ids));
    return Command::Continue;
  });
  simulator_->run(100);
  EXPECT_EQ(thread_count(), threads_before);

  // Every stop lists the instances that fired in member order.
  ASSERT_FALSE(stops.empty());
  size_t full_stops = 0;
  for (const auto& frame_ids : stops) {
    auto next = ids.begin();
    for (const int64_t id : frame_ids) {
      next = std::find(next, ids.end(), id);
      ASSERT_NE(next, ids.end()) << "frame " << id << " out of member order";
      ++next;
    }
    if (frame_ids == ids) ++full_stops;
  }
  EXPECT_GT(full_stops, 0u);
}

TEST_F(RuntimeTest, HierarchicalEvaluatePerInstance) {
  build(kMultiInstance);
  simulator_->run(4);
  EXPECT_EQ(runtime_->evaluate("acc", std::nullopt, "Top.w0")->to_uint64(), 4u);
  EXPECT_EQ(runtime_->evaluate("acc", std::nullopt, "Top.w2")->to_uint64(), 12u);
}

// -- compiled evaluation pipeline ---------------------------------------------

TEST_F(RuntimeTest, StopsMatchTreeWalkOracle) {
  // The rising edge of cycle k is at time 2k+1 and cycle_reg reads k+1
  // there, so the expected stops are known by hand as well.
  auto [stops, oracle] =
      run_against_oracle("demo.cc", 7, "cycle_reg % 2 == 0", 8);
  EXPECT_EQ(stops, oracle);
  const std::vector<std::string> demo = {"Demo"};
  EXPECT_EQ(stops, (StopGrid{{3, demo}, {7, demo}, {11, demo}, {15, demo}}));

  // Line 9's symbol-table enable (cycle_reg > 3) alone gates the stops.
  build(kDemo);
  std::tie(stops, oracle) = run_against_oracle("demo.cc", 9, "", 8);
  EXPECT_EQ(stops, oracle);
  EXPECT_EQ(stops, (StopGrid{{7, demo}, {9, demo}, {11, demo}, {13, demo},
                             {15, demo}}));

  // A condition that faults (out-of-range slice while cycle_reg <= 4)
  // counts as false on those edges.
  build(kDemo);
  std::tie(stops, oracle) = run_against_oracle(
      "demo.cc", 7, "cycle_reg > 4 || bits(cycle_reg, 9, 0)", 8);
  EXPECT_EQ(stops, oracle);
  EXPECT_EQ(stops, (StopGrid{{9, demo}, {11, demo}, {13, demo}, {15, demo}}));
}

TEST_F(RuntimeTest, ConditionsEvaluatedCountsActualEvaluations) {
  // Line 7 has neither an enable nor a condition: nothing is evaluated,
  // so the counter must stay zero even though the breakpoint hits.
  runtime_->add_breakpoint("demo.cc", 7);
  auto stops = run_collecting(5);
  EXPECT_EQ(stops.size(), 5u);
  EXPECT_EQ(runtime_->stats().conditions_evaluated, 0u);

  // A condition over cycle_reg (changes every cycle) evaluates exactly
  // once per edge — nothing double-counted for the non-inserted sibling
  // batches.
  build(kDemo);
  runtime_->add_breakpoint("demo.cc", 7, "cycle_reg % 2 == 0");
  run_collecting(8);
  const auto stats = runtime_->stats();
  EXPECT_EQ(stats.conditions_evaluated, 8u);
  // The union of referenced signals is fetched through the batched entry
  // point, at least once per edge (a mid-edge stop re-fetches).
  EXPECT_GE(stats.batch_fetches, 8u);
  EXPECT_GE(stats.batch_signals, stats.batch_fetches);
}

TEST_F(RuntimeTest, ChangeDrivenSkipOnSsaEnable) {
  // Line 9's enable reads the SSA-precomputed when_cond0, which changes
  // only twice in 8 cycles (0->1 at cycle 4): two evaluations, six reuses
  // of the cached verdict — while still stopping on all 5 enabled cycles.
  runtime_->add_breakpoint("demo.cc", 9);
  auto stops = run_collecting(8);
  EXPECT_EQ(stops.size(), 5u);
  const auto stats = runtime_->stats();
  EXPECT_EQ(stats.conditions_evaluated, 2u);
  EXPECT_EQ(stats.dirty_skips, 6u);
}

TEST_F(RuntimeTest, DirtySetSkipsMembersWithUnchangedInputs) {
  // bias is a constant port: after the first edge the condition's inputs
  // never change again, so the compiled engine reuses the cached verdicts.
  build(kMultiInstance);
  ASSERT_EQ(runtime_->add_breakpoint("worker.cc", 3, "bias == 2").size(), 3u);
  auto stops = run_collecting(8);
  EXPECT_EQ(stops.size(), 8u);  // w1 fires every cycle
  const auto stats = runtime_->stats();
  EXPECT_EQ(stats.conditions_evaluated, 3u);   // once per instance
  EXPECT_EQ(stats.dirty_skips, 3u * 7u);       // cached on the other 7 edges
}

TEST_F(RuntimeTest, EvalTimeIsTracked) {
  runtime_->add_breakpoint("demo.cc", 9);
  run_collecting(8);
  EXPECT_GT(runtime_->stats().eval_ns, 0u);
}

TEST_F(RuntimeTest, UnknownSymbolInConditionThrowsAtArmTime) {
  EXPECT_THROW(runtime_->add_breakpoint("demo.cc", 7, "ghost_signal > 1"),
               std::out_of_range);
  // Nothing was armed by the failed insertion.
  EXPECT_EQ(runtime_->inserted_count(), 0u);
  auto stops = run_collecting(4);
  EXPECT_TRUE(stops.empty());
}

TEST_F(RuntimeTest, UnknownSymbolInWatchThrowsAtArmTime) {
  EXPECT_THROW(runtime_->add_watchpoint("ghost_signal + 1"),
               std::out_of_range);
  EXPECT_EQ(runtime_->watchpoint_count(), 0u);
}

TEST_F(RuntimeTest, WatchpointDirtySkipStillFiresOnRealChanges) {
  // cycle_reg changes every cycle; t mirrors it. The watch must fire per
  // cycle in compiled mode exactly as the interpreted engine did.
  const int64_t id = runtime_->add_watchpoint("cycle_reg");
  ASSERT_GT(id, 0);
  size_t watch_stops = 0;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    watch_stops += event.watch_hits.size();
    return Command::Continue;
  });
  simulator_->run(6);
  EXPECT_GE(watch_stops, 5u);
  EXPECT_GT(runtime_->stats().watchpoints_evaluated, 0u);
}

TEST_F(RuntimeTest, ConditionOverConstantWatchIsSkipped) {
  // A watch over a constant generator input never re-evaluates after its
  // first pass — and never fires.
  build(kMultiInstance);
  simulator_->run(1);  // settle: constant ports read 0 before the first eval
  runtime_->add_watchpoint("bias", "Top.w1");
  size_t watch_stops = 0;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    watch_stops += event.watch_hits.size();
    return Command::Continue;
  });
  simulator_->run(8);
  EXPECT_EQ(watch_stops, 0u);
  EXPECT_GT(runtime_->stats().dirty_skips, 0u);
}

TEST_F(RuntimeTest, EvaluateMatchesTreeWalkOracle) {
  // One-off evaluation runs the compiled pipeline; after 4 cycles
  // cycle_reg is 4, so the result is 9, and the tree walk over the
  // backend's raw values agrees bit for bit.
  simulator_->run(4);
  const auto value = runtime_->evaluate("cycle_reg * 2 + 1", std::nullopt);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->to_uint64(), 9u);
  const BitVector oracle =
      Expression::parse("cycle_reg * 2 + 1")
          .evaluate([&](const std::string& name) {
            return backend_->get_value("Demo." + name);
          });
  EXPECT_EQ(*value, oracle);
}

TEST_F(RuntimeTest, WatchBaselineIsArmTimeValue) {
  // Armed mid-run at cycle_reg = 7, where cycle_reg / 4 reads 1. The next
  // edge (cycle_reg 8, time 15) moves it to 2: the first hit's old value
  // is the arm-time value. It then holds at 2 for three edges with no hit
  // and moves to 3 at cycle_reg 12 (time 23).
  simulator_->run(7);
  const int64_t id = runtime_->add_watchpoint("cycle_reg / 4");
  using Hit = std::tuple<uint64_t, std::string, std::string>;
  std::vector<Hit> hits;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    for (const auto& hit : event.watch_hits) {
      EXPECT_EQ(hit.id, id);
      hits.emplace_back(event.time, hit.old_value, hit.new_value);
    }
    return Command::Continue;
  });
  simulator_->run(6);
  EXPECT_EQ(hits, (std::vector<Hit>{{15, "1", "2"}, {23, "2", "3"}}));
}

TEST_F(RuntimeTest, FaultingWatchBaselinesOnFirstGoodEdge) {
  // The slice faults while cycle_reg <= 4 (|| evaluates it) and is
  // short-circuited away after, leaving the value cycle_reg. Armed at
  // cycle_reg = 2 it has no baseline; the first good edge (cycle_reg 5)
  // only baselines, and the next one (cycle_reg 6, time 11) is the first
  // hit.
  simulator_->run(2);
  runtime_->add_watchpoint(
      "(cycle_reg > 4 || bits(cycle_reg, 9, 0)) * cycle_reg");
  using Hit = std::tuple<uint64_t, std::string, std::string>;
  std::vector<Hit> hits;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    for (const auto& hit : event.watch_hits) {
      hits.emplace_back(event.time, hit.old_value, hit.new_value);
    }
    return Command::Continue;
  });
  simulator_->run(5);
  EXPECT_EQ(hits, (std::vector<Hit>{{11, "5", "6"}, {13, "6", "7"}}));
}

TEST_F(RuntimeTest, IdenticalConditionsShareOneCompiledProgram) {
  // Three instances arm the same condition text: one program, three slot
  // maps (CSE keyed on the normalized AST). Behavior is unchanged — every
  // instance still evaluates against its own bias/acc bindings.
  build(kMultiInstance);
  ASSERT_EQ(runtime_->add_breakpoint("worker.cc", 3, "acc % 2 == 0").size(),
            3u);
  const auto armed = runtime_->stats();
  // The shared condition lowered exactly once; the enable-free location
  // compiles nothing else for it.
  EXPECT_EQ(armed.programs_compiled, 1u);
  EXPECT_EQ(armed.program_cache_hits, 2u);

  // A different spelling of the same expression is still one program...
  runtime_->add_breakpoint("worker.cc", 4, "acc%2==0");
  EXPECT_EQ(runtime_->stats().programs_compiled, 1u);
  // ...while a genuinely different condition compiles a new one.
  runtime_->remove_breakpoint("worker.cc", 4);
  runtime_->add_breakpoint("worker.cc", 4, "acc % 2 == 1");
  EXPECT_EQ(runtime_->stats().programs_compiled, 2u);

  // Per-instance evaluation still fires independently and correctly.
  std::vector<std::string> hit_instances;
  runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
    for (const auto& frame : event.frames) {
      hit_instances.push_back(frame.instance_name);
    }
    return Command::Continue;
  });
  simulator_->run(4);
  EXPECT_FALSE(hit_instances.empty());
}

TEST_F(RuntimeTest, ProgramCacheShedsUnreferencedPrograms) {
  // Arm/disarm churn on a long-lived server must not grow the program
  // cache monotonically: a removed condition's program is swept on the
  // next plan rebuild, so re-arming it compiles afresh.
  build(kMultiInstance);
  runtime_->add_breakpoint("worker.cc", 3, "acc > 1");
  EXPECT_EQ(runtime_->stats().programs_compiled, 1u);
  runtime_->remove_breakpoint("worker.cc", 3);  // rebuild sweeps the program
  runtime_->add_breakpoint("worker.cc", 3, "acc > 1");
  EXPECT_EQ(runtime_->stats().programs_compiled, 2u);
  // A program still referenced by another live arm survives the sweep.
  runtime_->add_breakpoint("worker.cc", 4, "acc > 1");
  runtime_->remove_breakpoint("worker.cc", 3);
  runtime_->add_breakpoint("worker.cc", 3, "acc > 1");
  EXPECT_EQ(runtime_->stats().programs_compiled, 2u);
}

TEST_F(RuntimeTest, SharedProgramsMatchTreeWalkOracle) {
  // Three instances share one compiled program with per-instance slot
  // maps. acc in instance wi reads (k+1)*(i+1) at the edge of cycle k
  // (time 2k+1), so acc > 4 fires w2 from time 3, w1 from 5, w0 from 9.
  build(kMultiInstance);
  const auto [stops, oracle] =
      run_against_oracle("worker.cc", 3, "acc > 4", 8);
  EXPECT_EQ(runtime_->stats().programs_compiled, 1u);
  EXPECT_EQ(stops, oracle);
  const std::vector<std::string> all = {"Top.w0", "Top.w1", "Top.w2"};
  EXPECT_EQ(stops, (StopGrid{{3, {"Top.w2"}},
                             {5, {"Top.w1", "Top.w2"}},
                             {7, {"Top.w1", "Top.w2"}},
                             {9, all},
                             {11, all},
                             {13, all},
                             {15, all}}));
}

}  // namespace
}  // namespace hgdb::runtime
