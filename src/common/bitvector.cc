#include "common/bitvector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hgdb::common {

namespace {

constexpr uint32_t kWordBits = 64;

size_t words_for(uint32_t width) { return (width + kWordBits - 1) / kWordBits; }

void check_same_width(const BitVector& a, const BitVector& b) {
  if (a.width() != b.width()) {
    throw std::invalid_argument("BitVector width mismatch: " +
                                std::to_string(a.width()) + " vs " +
                                std::to_string(b.width()));
  }
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

BitVector::BitVector(uint32_t width, uint64_t value) : width_(width) {
  if (width == 0) throw std::invalid_argument("BitVector width must be >= 1");
  words_.assign(words_for(width), 0);
  words_[0] = value;
  normalize();
}

BitVector BitVector::from_words(uint32_t width, std::vector<uint64_t> words) {
  BitVector result(width, 0);
  const size_t copy_words = std::min(words.size(), result.words_.size());
  std::copy_n(words.begin(), copy_words, result.words_.begin());
  result.normalize();
  return result;
}

BitVector BitVector::from_le_bytes(uint32_t width, const uint8_t* bytes,
                                   size_t count) {
  BitVector result(width, 0);
  count = std::min(count, result.words_.size() * 8);
  for (size_t byte = 0; byte < count; ++byte) {
    result.words_[byte / 8] |= static_cast<uint64_t>(bytes[byte])
                               << (8 * (byte % 8));
  }
  result.normalize();
  return result;
}

BitVector BitVector::all_ones(uint32_t width) {
  BitVector result(width, 0);
  std::fill(result.words_.begin(), result.words_.end(), ~uint64_t{0});
  result.normalize();
  return result;
}

void BitVector::normalize() {
  const uint32_t rem = width_ % kWordBits;
  if (rem != 0) {
    words_.back() &= (~uint64_t{0}) >> (kWordBits - rem);
  }
}

BitVector BitVector::from_string(std::string_view literal) {
  if (literal.empty()) throw std::invalid_argument("empty BitVector literal");

  uint32_t width = 0;
  int base = 10;
  std::string_view digits = literal;

  const size_t tick = literal.find('\'');
  if (tick != std::string_view::npos) {
    // Verilog style: <width>'<base><digits>
    if (tick == 0 || tick + 2 > literal.size()) {
      throw std::invalid_argument("malformed literal: " + std::string(literal));
    }
    width = static_cast<uint32_t>(std::stoul(std::string(literal.substr(0, tick))));
    const char base_char = literal[tick + 1];
    switch (base_char) {
      case 'h': case 'H': base = 16; break;
      case 'b': case 'B': base = 2; break;
      case 'd': case 'D': base = 10; break;
      case 'o': case 'O': base = 8; break;
      default:
        throw std::invalid_argument("unknown literal base: " + std::string(literal));
    }
    digits = literal.substr(tick + 2);
  } else if (literal.size() > 2 && literal[0] == '0' &&
             (literal[1] == 'x' || literal[1] == 'X')) {
    base = 16;
    digits = literal.substr(2);
  } else if (literal.size() > 2 && literal[0] == '0' &&
             (literal[1] == 'b' || literal[1] == 'B')) {
    base = 2;
    digits = literal.substr(2);
  }

  if (digits.empty()) {
    throw std::invalid_argument("literal has no digits: " + std::string(literal));
  }

  // Accumulate into a wide scratch vector: value = value * base + digit.
  const uint32_t scratch_width =
      std::max<uint32_t>(width, static_cast<uint32_t>(digits.size()) * 4 + 8);
  BitVector value(scratch_width, 0);
  const BitVector base_bv(scratch_width, static_cast<uint64_t>(base));
  for (char c : digits) {
    if (c == '_') continue;
    const int d = hex_digit(c);
    if (d < 0 || d >= base) {
      throw std::invalid_argument("bad digit in literal: " + std::string(literal));
    }
    value = value.mul(base_bv).add(BitVector(scratch_width, static_cast<uint64_t>(d)));
  }

  if (width == 0) {
    // Minimal width that holds the value.
    uint32_t highest = 0;
    for (uint32_t i = 0; i < scratch_width; ++i) {
      if (value.bit(i)) highest = i;
    }
    width = highest + 1;
  }
  return value.resize(width);
}

int64_t BitVector::to_int64() const {
  uint64_t raw = words_[0];
  if (width_ < kWordBits) {
    if (sign_bit()) raw |= (~uint64_t{0}) << width_;
  }
  return static_cast<int64_t>(raw);
}

bool BitVector::to_bool() const {
  return std::any_of(words_.begin(), words_.end(),
                     [](uint64_t w) { return w != 0; });
}

bool BitVector::fits_uint64() const {
  return std::all_of(words_.begin() + 1, words_.end(),
                     [](uint64_t w) { return w == 0; });
}

bool BitVector::bit(uint32_t index) const {
  assert(index < width_);
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1u;
}

void BitVector::set_bit(uint32_t index, bool value) {
  assert(index < width_);
  const uint64_t mask = uint64_t{1} << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= mask;
  } else {
    words_[index / kWordBits] &= ~mask;
  }
}

BitVector BitVector::slice(uint32_t hi, uint32_t lo) const {
  if (lo > hi || hi >= width_) {
    throw std::invalid_argument("bad slice [" + std::to_string(hi) + ":" +
                                std::to_string(lo) + "] of width " +
                                std::to_string(width_));
  }
  return lshr(lo).resize(hi - lo + 1);
}

BitVector BitVector::concat(const BitVector& rhs) const {
  const uint32_t total = width_ + rhs.width_;
  BitVector high = resize(total).shl(rhs.width_);
  BitVector low = rhs.resize(total);
  return high.bit_or(low);
}

BitVector BitVector::resize(uint32_t new_width, bool sign_extend) const {
  BitVector result(new_width, 0);
  const size_t copy_words = std::min(result.words_.size(), words_.size());
  std::copy_n(words_.begin(), copy_words, result.words_.begin());
  if (new_width < width_) {
    result.normalize();
    return result;
  }
  if (sign_extend && sign_bit()) {
    // Fill bits [width_, new_width) with ones.
    for (uint32_t i = width_; i < new_width; ++i) result.set_bit(i, true);
  }
  return result;
}

BitVector BitVector::add(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  BitVector result(width_, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    const uint64_t a = words_[i];
    const uint64_t b = rhs.words_[i];
    const uint64_t sum = a + b;
    const uint64_t sum2 = sum + carry;
    carry = (sum < a) || (sum2 < sum) ? 1 : 0;
    result.words_[i] = sum2;
  }
  result.normalize();
  return result;
}

BitVector BitVector::sub(const BitVector& rhs) const {
  return add(rhs.negate());
}

BitVector BitVector::negate() const {
  BitVector one(width_, 1);
  return bit_not().add(one);
}

BitVector BitVector::mul(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  // Schoolbook multiplication on 32-bit limbs, truncated to width.
  const size_t n = words_.size() * 2;
  std::vector<uint32_t> a(n, 0), b(n, 0), out(n, 0);
  for (size_t i = 0; i < words_.size(); ++i) {
    a[2 * i] = static_cast<uint32_t>(words_[i]);
    a[2 * i + 1] = static_cast<uint32_t>(words_[i] >> 32);
    b[2 * i] = static_cast<uint32_t>(rhs.words_[i]);
    b[2 * i + 1] = static_cast<uint32_t>(rhs.words_[i] >> 32);
  }
  for (size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    uint64_t carry = 0;
    for (size_t j = 0; i + j < n; ++j) {
      const uint64_t cur =
          static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
  }
  BitVector result(width_, 0);
  for (size_t i = 0; i < result.words_.size(); ++i) {
    result.words_[i] =
        static_cast<uint64_t>(out[2 * i]) |
        (static_cast<uint64_t>(out[2 * i + 1]) << 32);
  }
  result.normalize();
  return result;
}

BitVector BitVector::udiv(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  if (rhs.is_zero()) return all_ones(width_);
  if (fits_uint64() && rhs.fits_uint64()) {
    return BitVector(width_, words_[0] / rhs.words_[0]);
  }
  // Bitwise shift-subtract long division.
  BitVector quotient(width_, 0);
  BitVector remainder(width_, 0);
  for (int i = static_cast<int>(width_) - 1; i >= 0; --i) {
    remainder = remainder.shl(1u);
    remainder.set_bit(0, bit(static_cast<uint32_t>(i)));
    if (!remainder.ult(rhs)) {
      remainder = remainder.sub(rhs);
      quotient.set_bit(static_cast<uint32_t>(i), true);
    }
  }
  return quotient;
}

BitVector BitVector::urem(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  if (rhs.is_zero()) return *this;
  if (fits_uint64() && rhs.fits_uint64()) {
    return BitVector(width_, words_[0] % rhs.words_[0]);
  }
  BitVector remainder(width_, 0);
  for (int i = static_cast<int>(width_) - 1; i >= 0; --i) {
    remainder = remainder.shl(1u);
    remainder.set_bit(0, bit(static_cast<uint32_t>(i)));
    if (!remainder.ult(rhs)) remainder = remainder.sub(rhs);
  }
  return remainder;
}

BitVector BitVector::sdiv(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  if (rhs.is_zero()) return all_ones(width_);
  const bool neg_a = sign_bit();
  const bool neg_b = rhs.sign_bit();
  const BitVector a = neg_a ? negate() : *this;
  const BitVector b = neg_b ? rhs.negate() : rhs;
  BitVector q = a.udiv(b);
  return (neg_a != neg_b) ? q.negate() : q;
}

BitVector BitVector::srem(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  if (rhs.is_zero()) return *this;
  const bool neg_a = sign_bit();
  const BitVector a = neg_a ? negate() : *this;
  const BitVector b = rhs.sign_bit() ? rhs.negate() : rhs;
  BitVector r = a.urem(b);
  return neg_a ? r.negate() : r;  // remainder takes the dividend's sign
}

BitVector BitVector::bit_and(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  BitVector result(width_, 0);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] & rhs.words_[i];
  }
  return result;
}

BitVector BitVector::bit_or(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  BitVector result(width_, 0);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] | rhs.words_[i];
  }
  return result;
}

BitVector BitVector::bit_xor(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  BitVector result(width_, 0);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] ^ rhs.words_[i];
  }
  return result;
}

BitVector BitVector::bit_not() const {
  BitVector result(width_, 0);
  for (size_t i = 0; i < words_.size(); ++i) result.words_[i] = ~words_[i];
  result.normalize();
  return result;
}

BitVector BitVector::reduce_and() const {
  return BitVector(1, *this == all_ones(width_) ? 1 : 0);
}

BitVector BitVector::reduce_or() const { return BitVector(1, to_bool() ? 1 : 0); }

BitVector BitVector::reduce_xor() const {
  return BitVector(1, popcount() & 1u);
}

uint32_t BitVector::popcount() const {
  uint32_t count = 0;
  for (uint64_t w : words_) count += static_cast<uint32_t>(__builtin_popcountll(w));
  return count;
}

BitVector BitVector::shl(const BitVector& amount) const {
  if (!amount.fits_uint64() || amount.words_[0] >= width_) {
    return BitVector(width_, 0);
  }
  return shl(static_cast<uint32_t>(amount.words_[0]));
}

BitVector BitVector::lshr(const BitVector& amount) const {
  if (!amount.fits_uint64() || amount.words_[0] >= width_) {
    return BitVector(width_, 0);
  }
  return lshr(static_cast<uint32_t>(amount.words_[0]));
}

BitVector BitVector::ashr(const BitVector& amount) const {
  if (!amount.fits_uint64() || amount.words_[0] >= width_) {
    return sign_bit() ? all_ones(width_) : BitVector(width_, 0);
  }
  return ashr(static_cast<uint32_t>(amount.words_[0]));
}

BitVector BitVector::shl(uint32_t amount) const {
  if (amount >= width_) return BitVector(width_, 0);
  BitVector result(width_, 0);
  const uint32_t word_shift = amount / kWordBits;
  const uint32_t bit_shift = amount % kWordBits;
  for (size_t i = words_.size(); i-- > word_shift;) {
    uint64_t value = words_[i - word_shift] << bit_shift;
    if (bit_shift != 0 && i > word_shift) {
      value |= words_[i - word_shift - 1] >> (kWordBits - bit_shift);
    }
    result.words_[i] = value;
  }
  result.normalize();
  return result;
}

BitVector BitVector::lshr(uint32_t amount) const {
  if (amount >= width_) return BitVector(width_, 0);
  BitVector result(width_, 0);
  const uint32_t word_shift = amount / kWordBits;
  const uint32_t bit_shift = amount % kWordBits;
  for (size_t i = 0; i + word_shift < words_.size(); ++i) {
    uint64_t value = words_[i + word_shift] >> bit_shift;
    if (bit_shift != 0 && i + word_shift + 1 < words_.size()) {
      value |= words_[i + word_shift + 1] << (kWordBits - bit_shift);
    }
    result.words_[i] = value;
  }
  return result;
}

BitVector BitVector::ashr(uint32_t amount) const {
  if (amount >= width_) {
    return sign_bit() ? all_ones(width_) : BitVector(width_, 0);
  }
  BitVector result = lshr(amount);
  if (sign_bit()) {
    for (uint32_t i = width_ - amount; i < width_; ++i) result.set_bit(i, true);
  }
  return result;
}

bool BitVector::eq(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  return words_ == rhs.words_;
}

bool BitVector::ult(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  for (size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != rhs.words_[i]) return words_[i] < rhs.words_[i];
  }
  return false;
}

bool BitVector::ule(const BitVector& rhs) const { return !rhs.ult(*this); }

bool BitVector::slt(const BitVector& rhs) const {
  check_same_width(*this, rhs);
  const bool neg_a = sign_bit();
  const bool neg_b = rhs.sign_bit();
  if (neg_a != neg_b) return neg_a;
  return ult(rhs);
}

bool BitVector::sle(const BitVector& rhs) const { return !rhs.slt(*this); }

std::string BitVector::to_string(int base) const {
  if (base == 2) {
    std::string out;
    out.reserve(width_);
    for (uint32_t i = width_; i-- > 0;) out.push_back(bit(i) ? '1' : '0');
    return out;
  }
  if (base == 16) {
    const uint32_t digits = (width_ + 3) / 4;
    std::string out;
    out.reserve(digits);
    for (uint32_t d = digits; d-- > 0;) {
      uint32_t nibble = 0;
      for (uint32_t b = 0; b < 4; ++b) {
        const uint32_t idx = d * 4 + b;
        if (idx < width_ && bit(idx)) nibble |= 1u << b;
      }
      out.push_back("0123456789abcdef"[nibble]);
    }
    return out;
  }
  // Decimal via repeated division by 10^9.
  if (fits_uint64()) return std::to_string(words_[0]);
  BitVector value = *this;
  const BitVector billion(width_, 1000000000ull);
  std::vector<uint32_t> chunks;
  while (value.to_bool()) {
    chunks.push_back(static_cast<uint32_t>(value.urem(billion).to_uint64()));
    value = value.udiv(billion);
  }
  if (chunks.empty()) return "0";
  std::string out = std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(9 - part.size(), '0') + part;
  }
  return out;
}

std::string BitVector::to_vcd_string() const {
  // VCD vector values drop leading zeros (but keep at least one digit).
  std::string bits = to_string(2);
  const size_t first_one = bits.find('1');
  if (first_one == std::string::npos) return "0";
  return bits.substr(first_one);
}

size_t BitVector::hash() const {
  size_t h = std::hash<uint32_t>{}(width_);
  for (uint64_t w : words_) {
    h ^= std::hash<uint64_t>{}(w) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace hgdb::common
