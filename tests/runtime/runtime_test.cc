#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "frontend/compile.h"
#include "ir/parser.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"
#include "vpi/native_backend.h"

namespace hgdb::runtime {
namespace {

using Command = Runtime::Command;

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

TEST_F(RuntimeTest, InterpretedModeMatchesCompiledStops) {
  // Differential check at the scheduler level: the same scenario run
  // through the interpreted reference path must stop identically.
  for (const bool compiled : {true, false}) {
    RuntimeOptions options;
    options.compiled_eval = compiled;
    build(kDemo, options);
    ASSERT_FALSE(
        runtime_->add_breakpoint("demo.cc", 7, "cycle_reg % 2 == 0").empty());
    auto stops = run_collecting(8);
    EXPECT_EQ(stops.size(), 4u) << "compiled=" << compiled;
    build(kDemo, options);
    ASSERT_FALSE(runtime_->add_breakpoint("demo.cc", 9).empty());
    stops = run_collecting(8);
    EXPECT_EQ(stops.size(), 5u) << "compiled=" << compiled;
  }
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

TEST_F(RuntimeTest, EvaluateUsesCompiledPipeline) {
  // One-off evaluation rides the compiled path by default; results must
  // match the interpreted reference mode bit for bit.
  simulator_->run(4);
  const auto compiled_value =
      runtime_->evaluate("cycle_reg * 2 + 1", std::nullopt);
  ASSERT_TRUE(compiled_value.has_value());

  RuntimeOptions options;
  options.compiled_eval = false;
  build(kDemo, options);
  simulator_->run(4);
  const auto interpreted_value =
      runtime_->evaluate("cycle_reg * 2 + 1", std::nullopt);
  ASSERT_TRUE(interpreted_value.has_value());
  EXPECT_EQ(*compiled_value, *interpreted_value);
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

TEST_F(RuntimeTest, SharedProgramsMatchInterpretedVerdicts) {
  // Differential check: the CSE-shared compiled path and the interpreted
  // reference produce identical stop grids on the multi-instance design.
  auto run_stops = [&](bool compiled_eval) {
    RuntimeOptions options;
    options.compiled_eval = compiled_eval;
    build(kMultiInstance, options);
    runtime_->add_breakpoint("worker.cc", 3, "acc > 4");
    std::vector<std::pair<uint64_t, size_t>> stops;
    runtime_->set_stop_handler([&](const rpc::StopEvent& event) {
      stops.emplace_back(event.time, event.frames.size());
      return Command::Continue;
    });
    simulator_->run(8);
    return stops;
  };
  const auto compiled = run_stops(true);
  const auto interpreted = run_stops(false);
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled, interpreted);
}

}  // namespace
}  // namespace hgdb::runtime
