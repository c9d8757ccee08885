#include "passes/symbol_extract.h"

#include <gtest/gtest.h>

#include <map>

#include "frontend/compile.h"
#include "ir/parser.h"
#include "symbols/symbol_table.h"

namespace hgdb::passes {
namespace {

using frontend::CompileOptions;

constexpr const char* kListing = R"(circuit Listing
  module Listing
    input data : UInt<8>[2]
    output out : UInt<8>
    wire sum : UInt<8> @[listing.cc 1 1]
    connect sum = UInt<8>(0) @[listing.cc 1 5]
    for i = 0 to 2 @[listing.cc 2 1]
      when neq(rem(data[i], UInt<8>(2)), UInt<8>(0)) @[listing.cc 3 3]
        connect sum = add(sum, data[i]) @[listing.cc 4 5]
      end
    end
    connect out = sum @[listing.cc 6 1]
  end
end
)";

symbols::SymbolTableData extract(const char* text, bool debug_mode) {
  CompileOptions options;
  options.debug_mode = debug_mode;
  auto result = frontend::compile(ir::parse_circuit(text), options);
  return std::move(result.symbols);
}

TEST(SymbolExtract, RequiresLowForm) {
  auto circuit = ir::parse_circuit(kListing);
  EXPECT_THROW(extract_symbol_table(*circuit), std::runtime_error);
}

TEST(SymbolExtract, EmitsBreakpointsWithEnables) {
  auto data = extract(kListing, /*debug_mode=*/true);
  symbols::MemorySymbolTable table(std::move(data));
  // Line 4 has two breakpoints (unrolled twice), with distinct enables.
  auto line4 = table.breakpoints_at("listing.cc", 4);
  ASSERT_EQ(line4.size(), 2u);
  EXPECT_NE(line4[0].enable, line4[1].enable);
  EXPECT_FALSE(line4[0].enable.empty());
}

TEST(SymbolExtract, ScopeVariablesResolveToSsaNames) {
  auto data = extract(kListing, /*debug_mode=*/true);
  symbols::MemorySymbolTable table(std::move(data));
  auto line4 = table.breakpoints_at("listing.cc", 4);
  ASSERT_FALSE(line4.empty());
  auto sum = table.resolve_scope_variable(line4[0].id, "sum");
  ASSERT_TRUE(sum.has_value());
  EXPECT_TRUE(sum->is_rtl);
  EXPECT_EQ(sum->value, "sum0");
  // The unrolled loop index appears as a constant variable.
  auto index = table.resolve_scope_variable(line4[0].id, "i");
  ASSERT_TRUE(index.has_value());
  EXPECT_FALSE(index->is_rtl);
  EXPECT_EQ(index->value, "0");
}

TEST(SymbolExtract, GeneratorVariablesPerInstance) {
  auto data = extract(kListing, /*debug_mode=*/true);
  symbols::MemorySymbolTable table(std::move(data));
  auto top = table.instance_by_name("Listing");
  ASSERT_TRUE(top.has_value());
  auto sum = table.resolve_generator_variable(top->id, "sum");
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->value, "sum4");  // final SSA value (last phi join)
  // Flattened input vector elements keep dotted/bracketed names.
  auto element = table.resolve_generator_variable(top->id, "data[0]");
  ASSERT_TRUE(element.has_value());
  EXPECT_EQ(element->value, "data_0");
}

TEST(SymbolExtract, InstancesWalkTheHierarchy) {
  auto data = extract(R"(circuit Top
  module Leaf
    input in : UInt<8>
    output out : UInt<8>
    node t = add(in, UInt<8>(1)) @[leaf.cc 2 1]
    connect out = t
  end
  module Mid
    input in : UInt<8>
    output out : UInt<8>
    inst leaf of Leaf
    connect leaf.in = in
    connect out = leaf.out
  end
  module Top
    input in : UInt<8>
    output out : UInt<8>
    inst a of Mid
    inst b of Mid
    connect a.in = in
    connect b.in = in
    connect out = add(a.out, b.out)
  end
end
)",
                      /*debug_mode=*/true);
  symbols::MemorySymbolTable table(std::move(data));
  std::vector<std::string> names;
  for (const auto& instance : table.instances()) names.push_back(instance.name);
  EXPECT_EQ(names, (std::vector<std::string>{"Top", "Top.a", "Top.a.leaf",
                                             "Top.b", "Top.b.leaf"}));
  // leaf.cc:2 exists once per Leaf instance — the paper's concurrent
  // hardware threads sharing one source line.
  auto bps = table.breakpoints_at("leaf.cc", 2);
  EXPECT_EQ(bps.size(), 2u);
}

TEST(SymbolExtract, VariableRowsSharedBetweenInstances) {
  auto data = extract(R"(circuit Top
  module Leaf
    input in : UInt<8>
    output out : UInt<8>
    node t = add(in, UInt<8>(1)) @[leaf.cc 2 1]
    connect out = t
  end
  module Top
    input in : UInt<8>
    output out : UInt<8>
    inst a of Leaf
    inst b of Leaf
    connect a.in = in
    connect b.in = in
    connect out = add(a.out, b.out)
  end
end
)",
                      /*debug_mode=*/true);
  // Instance-relative values: both Leaf instances reference the same
  // variable rows (value "t" etc.), so variable count is per-module.
  symbols::MemorySymbolTable table(data);
  size_t t_rows = 0;
  for (const auto& row : data.variables) {
    if (row.value == "t" && row.is_rtl) ++t_rows;
  }
  EXPECT_EQ(t_rows, 1u);
}

TEST(SymbolExtract, OptimizedAwayVariablesDropFromScopes) {
  const char* text = R"(circuit T
  module T
    input a : UInt<8>
    output o : UInt<8>
    wire dead : UInt<8> @[gen.cc 1 1]
    connect dead = add(a, UInt<8>(1)) @[gen.cc 2 1]
    wire live : UInt<8> @[gen.cc 3 1]
    connect live = add(a, UInt<8>(2)) @[gen.cc 4 1]
    connect o = live @[gen.cc 5 1]
  end
end
)";
  auto optimized = extract(text, /*debug_mode=*/false);
  auto debug = extract(text, /*debug_mode=*/true);
  // Debug keeps the dead assignment's breakpoint; optimized drops it —
  // "consistent with software compilers" (paper Sec. 4.1).
  symbols::MemorySymbolTable opt_table(optimized);
  symbols::MemorySymbolTable dbg_table(debug);
  EXPECT_TRUE(opt_table.breakpoints_at("gen.cc", 2).empty());
  EXPECT_EQ(dbg_table.breakpoints_at("gen.cc", 2).size(), 1u);
  EXPECT_GT(debug.total_rows(), optimized.total_rows());
}

TEST(SymbolExtract, OrderIndexFollowsExecutionOrder) {
  auto data = extract(kListing, /*debug_mode=*/true);
  symbols::MemorySymbolTable table(std::move(data));
  auto all = table.all_breakpoints();
  ASSERT_GE(all.size(), 2u);
  // Scheduling order: sorted by (filename, line, column, order_index);
  // within one line, order_index increases with execution order.
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].filename == all[i - 1].filename &&
        all[i].line_num == all[i - 1].line_num &&
        all[i].column_num == all[i - 1].column_num) {
      EXPECT_GT(all[i].order_index, all[i - 1].order_index);
    }
  }
}

TEST(SymbolExtract, FilesListsDistinctSources) {
  auto data = extract(kListing, /*debug_mode=*/true);
  symbols::MemorySymbolTable table(std::move(data));
  EXPECT_EQ(table.files(), (std::vector<std::string>{"listing.cc"}));
}

TEST(SymbolExtract, ConstantAndRtlRowKeysHaveOneShape) {
  // Both kinds end in the 0x1f separator plus a one-letter tag, so the
  // same text under the two kinds keys two different rows.
  EXPECT_EQ(variable_row_key("M", "0", /*is_rtl=*/false),
            std::string("M\x1f" "0\x1f" "c"));
  EXPECT_EQ(variable_row_key("M", "0", /*is_rtl=*/true),
            std::string("M\x1f" "0\x1f" "r"));
  EXPECT_NE(variable_row_key("M", "0", false), variable_row_key("M", "0", true));
  EXPECT_EQ(variable_row_key("M", "0", false), variable_row_key("M", "0", false));
}

TEST(SymbolExtract, EqualConstantsShareOneRow) {
  // Lines 3 and 4 of each unrolled iteration both bind the constant i;
  // every scope row naming a value reaches that value's single row.
  auto data = extract(kListing, /*debug_mode=*/true);
  std::map<std::pair<std::string, bool>, size_t> rows;
  for (const auto& row : data.variables) ++rows[{row.value, row.is_rtl}];
  for (const auto& [key, count] : rows) {
    EXPECT_EQ(count, 1u) << key.first << (key.second ? " (rtl)" : " (constant)");
  }
  symbols::MemorySymbolTable table(std::move(data));
  size_t constant_zero = 0;
  for (const auto& bp : table.all_breakpoints()) {
    for (const auto& variable : table.scope_variables(bp.id)) {
      if (!variable.is_rtl && variable.value == "0") ++constant_zero;
    }
  }
  EXPECT_GE(constant_zero, 2u);
}

}  // namespace
}  // namespace hgdb::passes
