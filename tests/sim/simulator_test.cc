#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "frontend/compile.h"
#include "ir/parser.h"

namespace hgdb::sim {
namespace {

frontend::CompileResult compile_text(const char* text) {
  return frontend::compile(ir::parse_circuit(text));
}

constexpr const char* kCounter = R"(circuit Counter
  module Counter
    input clock : Clock
    input enable : UInt<1>
    output out : UInt<8>
    reg count : UInt<8> clock clock
    wire next : UInt<8>
    connect next = count
    when enable
      connect next = add(count, UInt<8>(1))
    end
    connect count = next
    connect out = count
  end
end
)";

TEST(Simulator, RegistersInitializeToZero) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  simulator.eval();
  EXPECT_EQ(simulator.value("Counter.out").to_uint64(), 0u);
}

TEST(Simulator, CounterCountsWhenEnabled) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  simulator.set_value("Counter.enable", 1);
  simulator.run(5);
  EXPECT_EQ(simulator.value("Counter.out").to_uint64(), 5u);
  simulator.set_value("Counter.enable", 0);
  simulator.run(3);
  EXPECT_EQ(simulator.value("Counter.out").to_uint64(), 5u);
}

TEST(Simulator, CombinationalLogicMatchesGoldenModel) {
  auto compiled = compile_text(R"(circuit Alu
  module Alu
    input a : UInt<8>
    input b : UInt<8>
    output sum : UInt<8>
    output prod : UInt<8>
    output is_lt : UInt<1>
    connect sum = add(a, b)
    connect prod = mul(a, b)
    connect is_lt = lt(a, b)
  end
end
)");
  Simulator simulator(compiled.netlist);
  for (uint64_t a = 0; a < 256; a += 37) {
    for (uint64_t b = 0; b < 256; b += 41) {
      simulator.set_value("Alu.a", a);
      simulator.set_value("Alu.b", b);
      simulator.eval();
      EXPECT_EQ(simulator.value("Alu.sum").to_uint64(), (a + b) & 0xff);
      EXPECT_EQ(simulator.value("Alu.prod").to_uint64(), (a * b) & 0xff);
      EXPECT_EQ(simulator.value("Alu.is_lt").to_uint64(), a < b ? 1u : 0u);
    }
  }
}

TEST(Simulator, SynchronousResetLoadsInit) {
  auto compiled = compile_text(R"(circuit T
  module T
    input clock : Clock
    input rst : UInt<1>
    output o : UInt<8>
    reg r : UInt<8> clock clock reset rst init UInt<8>(42)
    connect r = add(r, UInt<8>(1))
    connect o = r
  end
end
)");
  Simulator simulator(compiled.netlist);
  simulator.run(3);
  EXPECT_EQ(simulator.value("T.o").to_uint64(), 3u);
  simulator.set_value("T.rst", 1);
  simulator.run(1);
  EXPECT_EQ(simulator.value("T.o").to_uint64(), 42u);
  simulator.set_value("T.rst", 0);
  simulator.run(1);
  EXPECT_EQ(simulator.value("T.o").to_uint64(), 43u);
}

TEST(Simulator, RegisterUpdateUsesPreEdgeValues) {
  // Classic swap: two registers exchanging values every cycle must use
  // pre-edge values (zero-delay semantics), not fall through.
  auto compiled = compile_text(R"(circuit Swap
  module Swap
    input clock : Clock
    output oa : UInt<8>
    output ob : UInt<8>
    reg a : UInt<8> clock clock
    reg b : UInt<8> clock clock
    wire seeded_b : UInt<8>
    connect seeded_b = or(b, UInt<8>(1))
    connect a = seeded_b
    connect b = add(a, UInt<8>(2))
    connect oa = a
    connect ob = b
  end
end
)");
  Simulator simulator(compiled.netlist);
  simulator.run(1);
  // pre: a=0 b=0 -> a'=0|1=1, b'=0+2=2
  EXPECT_EQ(simulator.value("Swap.oa").to_uint64(), 1u);
  EXPECT_EQ(simulator.value("Swap.ob").to_uint64(), 2u);
  simulator.run(1);
  // pre: a=1 b=2 -> a'=3, b'=3
  EXPECT_EQ(simulator.value("Swap.oa").to_uint64(), 3u);
  EXPECT_EQ(simulator.value("Swap.ob").to_uint64(), 3u);
}

TEST(Simulator, HierarchyPropagatesThroughInstances) {
  auto compiled = compile_text(R"(circuit Top
  module Inv
    input in : UInt<8>
    output out : UInt<8>
    connect out = not(in)
  end
  module Top
    input a : UInt<8>
    output o : UInt<8>
    inst u of Inv
    inst v of Inv
    connect u.in = a
    connect v.in = u.out
    connect o = v.out
  end
end
)");
  Simulator simulator(compiled.netlist);
  simulator.set_value("Top.a", 0xab);
  simulator.eval();
  EXPECT_EQ(simulator.value("Top.o").to_uint64(), 0xabu);
  EXPECT_EQ(simulator.value("Top.u.out").to_uint64(), 0x54u);
}

TEST(Simulator, ClockCallbacksFireAtBothEdges) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  int rising = 0;
  int falling = 0;
  const uint64_t handle = simulator.add_clock_callback(
      [&](Edge edge, uint64_t) { (edge == Edge::Rising ? rising : falling)++; });
  simulator.run(4);
  EXPECT_EQ(rising, 4);
  EXPECT_EQ(falling, 4);
  simulator.remove_clock_callback(handle);
  simulator.run(2);
  EXPECT_EQ(rising, 4);
}

TEST(Simulator, CallbackSeesSettledPostEdgeState) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  simulator.set_value("Counter.enable", 1);
  std::vector<uint64_t> sampled;
  simulator.add_clock_callback([&](Edge edge, uint64_t) {
    if (edge == Edge::Rising) {
      sampled.push_back(simulator.value("Counter.out").to_uint64());
    }
  });
  simulator.run(3);
  // At each rising edge the register already latched: 1, 2, 3.
  EXPECT_EQ(sampled, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(Simulator, TimeAdvancesTwoPerCycle) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  EXPECT_EQ(simulator.time(), 0u);
  simulator.run(3);
  EXPECT_EQ(simulator.time(), 6u);
  EXPECT_EQ(simulator.cycle(), 3u);
}

TEST(Simulator, ForcingCombinationalSignalRejected) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  // Outputs and internal nodes are combinational: forcing them is refused.
  auto out_id = simulator.signal_id("Counter.out");
  ASSERT_TRUE(out_id.has_value());
  EXPECT_THROW(simulator.set_value(*out_id, common::BitVector(8, 1)),
               std::invalid_argument);
  auto next_id = simulator.signal_id("Counter.next0");
  ASSERT_TRUE(next_id.has_value());
  EXPECT_THROW(simulator.set_value(*next_id, common::BitVector(8, 1)),
               std::invalid_argument);
}

TEST(Simulator, UnknownSignalThrows) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  EXPECT_THROW((void)simulator.value("Counter.ghost"), std::invalid_argument);
  EXPECT_THROW(simulator.set_value("Counter.ghost", 1), std::invalid_argument);
}

TEST(Simulator, CheckpointRestoreRewindsState) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  simulator.enable_checkpoints(true);
  simulator.set_value("Counter.enable", 1);
  simulator.run(10);
  EXPECT_EQ(simulator.value("Counter.out").to_uint64(), 10u);
  simulator.restore_cycle(4);
  EXPECT_EQ(simulator.cycle(), 4u);
  EXPECT_EQ(simulator.value("Counter.out").to_uint64(), 4u);
  // Re-execution from the restored point reproduces the timeline.
  simulator.run(6);
  EXPECT_EQ(simulator.value("Counter.out").to_uint64(), 10u);
}

TEST(Simulator, RestoreOutOfRangeThrows) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  simulator.enable_checkpoints(true);
  simulator.run(3);
  EXPECT_THROW(simulator.restore_cycle(99), std::out_of_range);
}

TEST(Simulator, RestoreRestoresInputs) {
  auto compiled = compile_text(kCounter);
  Simulator simulator(compiled.netlist);
  simulator.enable_checkpoints(true);
  simulator.set_value("Counter.enable", 1);
  simulator.run(5);
  simulator.set_value("Counter.enable", 0);
  simulator.run(5);
  // enable was 1 at cycle 2; restore must bring it back.
  simulator.restore_cycle(2);
  EXPECT_EQ(simulator.value("Counter.enable").to_uint64(), 1u);
}

TEST(Simulator, MultiWordSignalsSimulate) {
  auto compiled = compile_text(R"(circuit Wide
  module Wide
    input a : UInt<100>
    output o : UInt<100>
    connect o = add(a, UInt<100>(1))
  end
end
)");
  Simulator simulator(compiled.netlist);
  auto a_id = simulator.signal_id("Wide.a");
  ASSERT_TRUE(a_id.has_value());
  simulator.set_value(*a_id, common::BitVector::all_ones(100));
  simulator.eval();
  EXPECT_TRUE(simulator.value("Wide.o").is_zero());  // wraps at 2^100
}

TEST(Simulator, NoClockTickThrows) {
  auto compiled = compile_text(R"(circuit Comb
  module Comb
    input a : UInt<8>
    output o : UInt<8>
    connect o = a
  end
end
)");
  Simulator simulator(compiled.netlist);
  EXPECT_THROW(simulator.tick(), std::runtime_error);
}

}  // namespace
}  // namespace hgdb::sim
