#include "runtime/expression.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

namespace hgdb::runtime {
namespace {

using common::BitVector;

Expression::Resolver env(std::map<std::string, uint64_t> values,
                         uint32_t width = 8) {
  return [values = std::move(values),
          width](const std::string& name) -> std::optional<BitVector> {
    auto it = values.find(name);
    if (it == values.end()) return std::nullopt;
    return BitVector(width, it->second);
  };
}

uint64_t eval(const std::string& text, std::map<std::string, uint64_t> values = {},
              uint32_t width = 8) {
  return Expression::parse(text).evaluate(env(std::move(values), width)).to_uint64();
}

TEST(Expression, Numbers) {
  EXPECT_EQ(eval("42"), 42u);
  EXPECT_EQ(eval("0x2a"), 42u);
  EXPECT_EQ(eval("0"), 0u);
}

TEST(Expression, TypedLiterals) {
  EXPECT_EQ(eval("UInt<8>(200)"), 200u);
  auto value = Expression::parse("UInt<16>(300)").evaluate(env({}));
  EXPECT_EQ(value.width(), 16u);
  EXPECT_EQ(value.to_uint64(), 300u);
}

TEST(Expression, NameResolution) {
  EXPECT_EQ(eval("a + b", {{"a", 3}, {"b", 4}}), 7u);
  EXPECT_THROW(eval("ghost"), std::runtime_error);
}

TEST(Expression, PathNamesMatchVerbatim) {
  // data[0] and io.out.bits are single symbol names, as stored in the
  // symbol table for flattened vectors/bundles.
  EXPECT_EQ(eval("data[0] % 2", {{"data[0]", 5}}), 1u);
  EXPECT_EQ(eval("io.out.bits + 1", {{"io.out.bits", 9}}), 10u);
}

TEST(Expression, NamesCollected) {
  auto expression = Expression::parse("a + b.c * data[3]");
  EXPECT_EQ(expression.names(),
            (std::set<std::string>{"a", "b.c", "data[3]"}));
}

TEST(Expression, ArithmeticPrecedence) {
  EXPECT_EQ(eval("2 + 3 * 4"), 14u);
  EXPECT_EQ(eval("(2 + 3) * 4"), 20u);
  EXPECT_EQ(eval("10 - 2 - 3"), 5u);  // left associative
  EXPECT_EQ(eval("100 / 5 / 2"), 10u);
  EXPECT_EQ(eval("17 % 5"), 2u);
}

TEST(Expression, Comparisons) {
  EXPECT_EQ(eval("3 < 5"), 1u);
  EXPECT_EQ(eval("5 <= 5"), 1u);
  EXPECT_EQ(eval("3 > 5"), 0u);
  EXPECT_EQ(eval("a == 7", {{"a", 7}}), 1u);
  EXPECT_EQ(eval("a != 7", {{"a", 7}}), 0u);
}

TEST(Expression, LogicalOperatorsCoerceToBool) {
  // 4 && 2 is true(1) logically, not 4&2==0.
  EXPECT_EQ(eval("4 && 2"), 1u);
  EXPECT_EQ(eval("4 & 2"), 0u);
  EXPECT_EQ(eval("0 || 8"), 1u);
  EXPECT_EQ(eval("!5"), 0u);
  EXPECT_EQ(eval("!0"), 1u);
  // Bitwise ~ keeps the operand width (a variable's width here).
  EXPECT_EQ(eval("~a", {{"a", 1}}, 8), 0xfeu);
}

TEST(Expression, BitwiseAndShifts) {
  EXPECT_EQ(eval("0xf0 | 0x0f"), 0xffu);
  EXPECT_EQ(eval("0xff ^ 0x0f"), 0xf0u);
  EXPECT_EQ(eval("1 << 4"), 16u);
  EXPECT_EQ(eval("0x80 >> 3"), 16u);
}

TEST(Expression, ThePaperListingCondition) {
  // "data[0] % 2" — the enable condition from the paper's Listing 2.
  auto expression = Expression::parse("data[0] % 2");
  EXPECT_TRUE(expression.evaluate(env({{"data[0]", 3}})).to_bool());
  EXPECT_FALSE(expression.evaluate(env({{"data[0]", 4}})).to_bool());
}

TEST(Expression, IrCallSyntaxEnables) {
  // SSA enables arrive in IR printer syntax.
  EXPECT_EQ(eval("and(a, not(b))", {{"a", 1}, {"b", 0}}, 1), 1u);
  EXPECT_EQ(eval("and(a, not(b))", {{"a", 1}, {"b", 1}}, 1), 0u);
  EXPECT_EQ(eval("eq(a, UInt<8>(5))", {{"a", 5}}), 1u);
  EXPECT_EQ(eval("mux(c, a, b)", {{"c", 1}, {"a", 10}, {"b", 20}}), 10u);
  EXPECT_EQ(eval("orr(a)", {{"a", 0}}), 0u);
  EXPECT_EQ(eval("xorr(a)", {{"a", 7}}), 1u);
}

TEST(Expression, IrCallIntParams) {
  EXPECT_EQ(eval("bits(a, 7, 4)", {{"a", 0xab}}), 0xau);
  EXPECT_EQ(eval("shl(a, 2)", {{"a", 3}}), 12u);
  EXPECT_EQ(eval("pad(a, 16)", {{"a", 0xff}}), 0xffu);
  EXPECT_EQ(eval("cat(a, b)", {{"a", 0x1}, {"b", 0x2}}), 0x102u);
}

TEST(Expression, NestedCallsAndInfixMix) {
  EXPECT_EQ(eval("add(a, b) * 2 == 14", {{"a", 3}, {"b", 4}}), 1u);
  EXPECT_EQ(eval("bits(add(a, b), 3, 0)", {{"a", 0xf8}, {"b", 0x10}}), 8u);
}

TEST(Expression, WidthExtensionAcrossOperands) {
  // 8-bit 200 + 8-bit 100 extends to... the max width of operands (8):
  // wraps. With a wider literal, no wrap.
  EXPECT_EQ(eval("a + b", {{"a", 200}, {"b", 100}}), (200u + 100u) & 0xffu);
  EXPECT_EQ(eval("a + UInt<16>(100)", {{"a", 200}}), 300u);
}

TEST(Expression, UnaryMinus) {
  EXPECT_EQ(eval("a + -1", {{"a", 5}}), 4u);
}

TEST(Expression, SyntaxErrors) {
  EXPECT_THROW(Expression::parse(""), std::invalid_argument);
  EXPECT_THROW(Expression::parse("a +"), std::invalid_argument);
  EXPECT_THROW(Expression::parse("(a"), std::invalid_argument);
  EXPECT_THROW(Expression::parse("a b"), std::invalid_argument);
  EXPECT_THROW(Expression::parse("a @ b"), std::invalid_argument);
  EXPECT_THROW(Expression::parse("bits(a, b, c)"), std::invalid_argument);
  // Widths are capped at 65536 bits: condition text comes from clients.
  EXPECT_THROW(Expression::parse("UInt<-1>(0)"), std::invalid_argument);
  EXPECT_THROW(Expression::parse("UInt<65537>(0)"), std::invalid_argument);
  EXPECT_THROW(Expression::parse("UInt<99999999999999999999>(1)"),
               std::invalid_argument);
  EXPECT_THROW(Expression::parse("pad(a, 65537)"), std::invalid_argument);
  EXPECT_EQ(Expression::parse("pad(UInt<65536>(1), 65536)")
                .evaluate([](const std::string&) { return std::nullopt; })
                .width(),
            65536u);
}

TEST(Expression, TextPreserved) {
  const std::string text = "a + b * 2";
  EXPECT_EQ(Expression::parse(text).text(), text);
}

TEST(Expression, EvaluateBoolOnWideValues) {
  EXPECT_TRUE(Expression::parse("a").evaluate(env({{"a", 0x80}})).to_bool());
  EXPECT_FALSE(Expression::parse("a").evaluate(env({{"a", 0}})).to_bool());
}

TEST(Expression, CacheKeyNormalizesSpelling) {
  // Textual variations of one AST share a key (the CSE program cache
  // unifies them)...
  EXPECT_EQ(Expression::parse("a && b").cache_key(),
            Expression::parse("a&&b").cache_key());
  EXPECT_EQ(Expression::parse("x + 10").cache_key(),
            Expression::parse("x + 0xa").cache_key());
  EXPECT_EQ(Expression::parse("and(a, b)").cache_key(),
            Expression::parse("a & b").cache_key());
  // ...while different trees never collide.
  EXPECT_NE(Expression::parse("a && b").cache_key(),
            Expression::parse("a || b").cache_key());
  EXPECT_NE(Expression::parse("a && b").cache_key(),
            Expression::parse("a & b").cache_key());  // logical vs bitwise
  EXPECT_NE(Expression::parse("a").cache_key(),
            Expression::parse("ab").cache_key());
  EXPECT_NE(Expression::parse("x + 10").cache_key(),
            Expression::parse("x + UInt<32>(10)").cache_key());  // widths
  EXPECT_NE(Expression::parse("bits(x, 3, 1)").cache_key(),
            Expression::parse("bits(x, 3, 2)").cache_key());  // params
}

// The text is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would make the test names differ on
// every run.
class ExpressionGolden
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(ExpressionGolden, Matches) {
  const auto& [text, expected] = GetParam();
  EXPECT_EQ(eval(text, {{"x", 12}, {"y", 5}}), expected) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExpressionGolden,
    ::testing::Values(
        std::make_tuple("x + y", 17ull), std::make_tuple("x - y", 7ull),
        std::make_tuple("x * y", 60ull), std::make_tuple("x / y", 2ull),
        std::make_tuple("x % y", 2ull), std::make_tuple("x & y", 4ull),
        std::make_tuple("x | y", 13ull), std::make_tuple("x ^ y", 9ull),
        std::make_tuple("x == 12 && y == 5", 1ull),
        std::make_tuple("x < y || y < x", 1ull),
        std::make_tuple("(x >> 2) + (y << 1)", 13ull),
        std::make_tuple("x % 2 == 0", 1ull),
        std::make_tuple("y % 2 == 0", 0ull)));

}  // namespace
}  // namespace hgdb::runtime
