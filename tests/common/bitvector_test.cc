#include "common/bitvector.h"

#include <gtest/gtest.h>

#include <random>

namespace hgdb::common {
namespace {

TEST(BitVector, DefaultIsOneBitZero) {
  BitVector value;
  EXPECT_EQ(value.width(), 1u);
  EXPECT_TRUE(value.is_zero());
}

TEST(BitVector, ConstructionTruncatesModuloWidth) {
  BitVector value(4, 0xff);
  EXPECT_EQ(value.to_uint64(), 0xfu);
}

TEST(BitVector, ZeroWidthRejected) {
  EXPECT_THROW(BitVector(0, 0), std::invalid_argument);
}

TEST(BitVector, WideValueStorage) {
  BitVector value = BitVector::all_ones(130);
  EXPECT_EQ(value.width(), 130u);
  EXPECT_EQ(value.num_words(), 3u);
  EXPECT_EQ(value.popcount(), 130u);
  EXPECT_FALSE(value.fits_uint64());
}

TEST(BitVector, FromStringVerilogHex) {
  BitVector value = BitVector::from_string("8'hff");
  EXPECT_EQ(value.width(), 8u);
  EXPECT_EQ(value.to_uint64(), 0xffu);
}

TEST(BitVector, FromStringVerilogBinary) {
  BitVector value = BitVector::from_string("4'b1010");
  EXPECT_EQ(value.width(), 4u);
  EXPECT_EQ(value.to_uint64(), 10u);
}

TEST(BitVector, FromStringVerilogDecimalWithUnderscores) {
  BitVector value = BitVector::from_string("16'd1_234");
  EXPECT_EQ(value.to_uint64(), 1234u);
}

TEST(BitVector, FromStringPlainDecimalMinimalWidth) {
  BitVector value = BitVector::from_string("42");
  EXPECT_EQ(value.width(), 6u);  // 42 = 0b101010
  EXPECT_EQ(value.to_uint64(), 42u);
}

TEST(BitVector, FromStringHexPrefix) {
  EXPECT_EQ(BitVector::from_string("0x1f").to_uint64(), 0x1fu);
  EXPECT_EQ(BitVector::from_string("0b101").to_uint64(), 5u);
}

TEST(BitVector, FromStringWideHex) {
  BitVector value = BitVector::from_string("128'hffffffffffffffffffffffffffffffff");
  EXPECT_EQ(value, BitVector::all_ones(128));
}

TEST(BitVector, FromStringMalformed) {
  EXPECT_THROW(BitVector::from_string(""), std::invalid_argument);
  EXPECT_THROW(BitVector::from_string("8'q12"), std::invalid_argument);
  EXPECT_THROW(BitVector::from_string("4'b"), std::invalid_argument);
  EXPECT_THROW(BitVector::from_string("8'b12"), std::invalid_argument);
}

TEST(BitVector, BitAccess) {
  BitVector value(70, 0);
  value.set_bit(69, true);
  value.set_bit(3, true);
  EXPECT_TRUE(value.bit(69));
  EXPECT_TRUE(value.bit(3));
  EXPECT_FALSE(value.bit(68));
  value.set_bit(69, false);
  EXPECT_FALSE(value.bit(69));
}

TEST(BitVector, SliceBasic) {
  BitVector value(16, 0xabcd);
  EXPECT_EQ(value.slice(7, 0).to_uint64(), 0xcdu);
  EXPECT_EQ(value.slice(15, 8).to_uint64(), 0xabu);
  EXPECT_EQ(value.slice(11, 4).to_uint64(), 0xbcu);
  EXPECT_EQ(value.slice(0, 0).width(), 1u);
}

TEST(BitVector, SliceAcrossWordBoundary) {
  BitVector value = BitVector(100, 0).bit_not();
  EXPECT_EQ(value.slice(70, 60), BitVector::all_ones(11));
}

TEST(BitVector, SliceOutOfRange) {
  BitVector value(8, 0);
  EXPECT_THROW(value.slice(8, 0), std::invalid_argument);
  EXPECT_THROW(value.slice(2, 3), std::invalid_argument);
}

TEST(BitVector, Concat) {
  BitVector high(8, 0xab);
  BitVector low(8, 0xcd);
  BitVector joined = high.concat(low);
  EXPECT_EQ(joined.width(), 16u);
  EXPECT_EQ(joined.to_uint64(), 0xabcdu);
}

TEST(BitVector, ResizeZeroExtend) {
  BitVector value(4, 0b1010);
  EXPECT_EQ(value.resize(8).to_uint64(), 0b1010u);
  EXPECT_EQ(value.resize(2).to_uint64(), 0b10u);
}

TEST(BitVector, ResizeSignExtend) {
  BitVector value(4, 0b1010);  // -6 as 4-bit signed
  EXPECT_EQ(value.resize(8, true).to_uint64(), 0b11111010u);
  EXPECT_EQ(value.resize(8, true).to_int64(), -6);
}

TEST(BitVector, AddWithCarryChains) {
  BitVector a = BitVector::all_ones(128);
  BitVector one(128, 1);
  EXPECT_TRUE(a.add(one).is_zero());  // wraps
}

TEST(BitVector, SubWraps) {
  BitVector zero(8, 0);
  BitVector one(8, 1);
  EXPECT_EQ(zero.sub(one).to_uint64(), 0xffu);
}

TEST(BitVector, MulTruncates) {
  BitVector a(8, 200);
  BitVector b(8, 3);
  EXPECT_EQ(a.mul(b).to_uint64(), (200u * 3u) & 0xffu);
}

TEST(BitVector, MulWide) {
  BitVector a = BitVector(128, 0).bit_not();  // 2^128 - 1
  BitVector b(128, 2);
  // (2^128 - 1) * 2 mod 2^128 = 2^128 - 2
  BitVector expected = BitVector::all_ones(128);
  expected.set_bit(0, false);
  EXPECT_EQ(a.mul(b), expected);
}

TEST(BitVector, UdivUrem) {
  BitVector a(16, 1000);
  BitVector b(16, 7);
  EXPECT_EQ(a.udiv(b).to_uint64(), 142u);
  EXPECT_EQ(a.urem(b).to_uint64(), 6u);
}

TEST(BitVector, DivisionByZeroConventions) {
  BitVector a(8, 42);
  BitVector zero(8, 0);
  EXPECT_EQ(a.udiv(zero), BitVector::all_ones(8));
  EXPECT_EQ(a.urem(zero), a);
}

TEST(BitVector, WideDivision) {
  // 2^100 / 3
  BitVector a(128, 0);
  a.set_bit(100, true);
  BitVector b(128, 3);
  BitVector quotient = a.udiv(b);
  // verify: q*3 + r == 2^100
  BitVector reconstructed = quotient.mul(b).add(a.urem(b));
  EXPECT_EQ(reconstructed, a);
}

TEST(BitVector, SignedDivision) {
  BitVector a(8, static_cast<uint64_t>(-20) & 0xff);
  BitVector b(8, 3);
  EXPECT_EQ(a.sdiv(b).to_int64(), -6);
  EXPECT_EQ(a.srem(b).to_int64(), -2);  // remainder takes dividend sign
}

TEST(BitVector, NegateTwosComplement) {
  BitVector a(8, 5);
  EXPECT_EQ(a.negate().to_int64(), -5);
  EXPECT_EQ(a.negate().negate(), a);
}

TEST(BitVector, BitwiseOps) {
  BitVector a(8, 0b11001100);
  BitVector b(8, 0b10101010);
  EXPECT_EQ(a.bit_and(b).to_uint64(), 0b10001000u);
  EXPECT_EQ(a.bit_or(b).to_uint64(), 0b11101110u);
  EXPECT_EQ(a.bit_xor(b).to_uint64(), 0b01100110u);
  EXPECT_EQ(a.bit_not().to_uint64(), 0b00110011u);
}

TEST(BitVector, Reductions) {
  EXPECT_TRUE(BitVector::all_ones(9).reduce_and().to_bool());
  EXPECT_FALSE(BitVector(9, 0x1ff ^ 1).reduce_and().to_bool());
  EXPECT_TRUE(BitVector(9, 4).reduce_or().to_bool());
  EXPECT_FALSE(BitVector(9, 0).reduce_or().to_bool());
  EXPECT_TRUE(BitVector(8, 0b0111).reduce_xor().to_bool());
  EXPECT_FALSE(BitVector(8, 0b0110).reduce_xor().to_bool());
}

TEST(BitVector, ShiftLeftConstant) {
  BitVector a(8, 0b00001111);
  EXPECT_EQ(a.shl(2u).to_uint64(), 0b00111100u);
  EXPECT_EQ(a.shl(8u).to_uint64(), 0u);  // full shift-out
}

TEST(BitVector, ShiftRightLogical) {
  BitVector a(8, 0b11110000);
  EXPECT_EQ(a.lshr(4u).to_uint64(), 0b00001111u);
  EXPECT_EQ(a.lshr(9u).to_uint64(), 0u);
}

TEST(BitVector, ShiftRightArithmetic) {
  BitVector a(8, 0b10000000);
  EXPECT_EQ(a.ashr(3u).to_uint64(), 0b11110000u);
  BitVector positive(8, 0b01000000);
  EXPECT_EQ(positive.ashr(3u).to_uint64(), 0b00001000u);
  EXPECT_EQ(a.ashr(20u), BitVector::all_ones(8));
}

TEST(BitVector, ShiftAcrossWords) {
  BitVector a(128, 1);
  BitVector shifted = a.shl(100u);
  EXPECT_TRUE(shifted.bit(100));
  EXPECT_EQ(shifted.popcount(), 1u);
  EXPECT_EQ(shifted.lshr(100u), a);
}

TEST(BitVector, DynamicShiftOverflowYieldsZero) {
  BitVector a(8, 0xff);
  BitVector amount(8, 200);
  EXPECT_EQ(a.shl(amount).to_uint64(), 0u);
  EXPECT_EQ(a.lshr(amount).to_uint64(), 0u);
}

TEST(BitVector, UnsignedComparisons) {
  BitVector a(8, 10);
  BitVector b(8, 200);
  EXPECT_TRUE(a.ult(b));
  EXPECT_TRUE(a.ule(b));
  EXPECT_FALSE(b.ult(a));
  EXPECT_TRUE(a.ule(a));
  EXPECT_TRUE(a.eq(a));
}

TEST(BitVector, SignedComparisons) {
  BitVector minus_one = BitVector::all_ones(8);
  BitVector one(8, 1);
  EXPECT_TRUE(minus_one.slt(one));
  EXPECT_FALSE(one.slt(minus_one));
  EXPECT_TRUE(minus_one.sle(minus_one));
}

TEST(BitVector, WidthMismatchThrows) {
  BitVector a(8, 1);
  BitVector b(9, 1);
  EXPECT_THROW(a.add(b), std::invalid_argument);
  EXPECT_THROW((void)a.ult(b), std::invalid_argument);
  EXPECT_THROW(a.bit_and(b), std::invalid_argument);
}

TEST(BitVector, DecimalStringSmall) {
  EXPECT_EQ(BitVector(8, 42).to_string(), "42");
  EXPECT_EQ(BitVector(8, 0).to_string(), "0");
}

TEST(BitVector, DecimalStringWide) {
  // 2^100 = 1267650600228229401496703205376
  BitVector value(128, 0);
  value.set_bit(100, true);
  EXPECT_EQ(value.to_string(), "1267650600228229401496703205376");
}

TEST(BitVector, HexAndBinaryStrings) {
  BitVector value(12, 0xabc);
  EXPECT_EQ(value.to_string(16), "abc");
  EXPECT_EQ(value.to_string(2), "101010111100");
}

TEST(BitVector, VcdStringDropsLeadingZeros) {
  EXPECT_EQ(BitVector(8, 5).to_vcd_string(), "101");
  EXPECT_EQ(BitVector(8, 0).to_vcd_string(), "0");
}

TEST(BitVector, HashDiffersByWidthAndValue) {
  EXPECT_NE(BitVector(8, 1).hash(), BitVector(9, 1).hash());
  EXPECT_NE(BitVector(8, 1).hash(), BitVector(8, 2).hash());
  EXPECT_EQ(BitVector(8, 1).hash(), BitVector(8, 1).hash());
}

TEST(BitVector, RoundTripThroughString) {
  BitVector value = BitVector::from_string("64'hdeadbeefcafebabe");
  BitVector parsed = BitVector::from_string("64'h" + value.to_string(16));
  EXPECT_EQ(parsed, value);
}

// -- property sweeps ----------------------------------------------------------

class BitVectorWidthSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitVectorWidthSweep, AddCommutesAndMatchesUint64) {
  const uint32_t width = GetParam();
  std::mt19937_64 rng(width * 977);
  const uint64_t mask =
      width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  for (int i = 0; i < 50; ++i) {
    const uint64_t a = rng() & mask;
    const uint64_t b = rng() & mask;
    BitVector va(width, a);
    BitVector vb(width, b);
    EXPECT_EQ(va.add(vb), vb.add(va));
    if (width <= 64) {
      EXPECT_EQ(va.add(vb).to_uint64(), (a + b) & mask);
      EXPECT_EQ(va.mul(vb).to_uint64(), (a * b) & mask);
      EXPECT_EQ(va.sub(vb).to_uint64(), (a - b) & mask);
    }
  }
}

TEST_P(BitVectorWidthSweep, DivisionReconstruction) {
  const uint32_t width = GetParam();
  std::mt19937_64 rng(width * 31 + 7);
  for (int i = 0; i < 30; ++i) {
    BitVector a(width, rng());
    BitVector b(width, rng() | 1);  // nonzero
    // a == (a/b)*b + a%b
    EXPECT_EQ(a.udiv(b).mul(b).add(a.urem(b)), a);
    EXPECT_TRUE(a.urem(b).ult(b));
  }
}

TEST_P(BitVectorWidthSweep, ShiftInverse) {
  const uint32_t width = GetParam();
  if (width < 4) return;
  std::mt19937_64 rng(width);
  for (int i = 0; i < 30; ++i) {
    BitVector a(width, rng());
    const uint32_t amount = static_cast<uint32_t>(rng() % (width / 2));
    // (a << k) >> k recovers the low width-k bits
    BitVector masked = a.shl(amount).lshr(amount);
    EXPECT_EQ(masked, a.resize(width - amount).resize(width));
  }
}

TEST_P(BitVectorWidthSweep, DeMorgan) {
  const uint32_t width = GetParam();
  std::mt19937_64 rng(width ^ 0x5a5a);
  for (int i = 0; i < 30; ++i) {
    BitVector a(width, rng());
    BitVector b(width, rng());
    EXPECT_EQ(a.bit_and(b).bit_not(), a.bit_not().bit_or(b.bit_not()));
    EXPECT_EQ(a.bit_or(b).bit_not(), a.bit_not().bit_and(b.bit_not()));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidthSweep,
                         ::testing::Values(1u, 3u, 8u, 16u, 31u, 32u, 33u,
                                           63u, 64u, 65u, 96u, 128u, 200u));

}  // namespace
}  // namespace hgdb::common
