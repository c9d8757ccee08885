#ifndef HGDB_COMMON_BITVECTOR_H
#define HGDB_COMMON_BITVECTOR_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hgdb::common {

namespace detail {

/// Word storage for BitVector with a small-buffer optimization: values up
/// to kInlineWords * 64 bits live inline with no heap allocation. The
/// debugger's compiled expression engine evaluates conditions on every
/// clock edge; with the dominant signal widths (<= 64 bits, occasionally
/// <= 128) this keeps the whole hot loop allocation-free. Copy assignment
/// reuses existing heap capacity, so scratch registers reused across
/// evaluations never re-allocate either.
class WordStore {
 public:
  static constexpr size_t kInlineWords = 2;

  using iterator = uint64_t*;
  using const_iterator = const uint64_t*;

  WordStore() noexcept { inline_[0] = 0; }
  explicit WordStore(size_t count, uint64_t fill = 0) { assign(count, fill); }

  WordStore(const WordStore& other) { copy_from(other); }
  WordStore& operator=(const WordStore& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  WordStore(WordStore&& other) noexcept { steal(other); }
  WordStore& operator=(WordStore&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~WordStore() { release(); }

  /// Resizes to `count` words, all set to `fill`. Reuses capacity.
  void assign(size_t count, uint64_t fill) {
    reserve(count);
    size_ = static_cast<uint32_t>(count);
    std::fill_n(data_, count, fill);
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] uint64_t* data() { return data_; }
  [[nodiscard]] const uint64_t* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] uint64_t& back() { return data_[size_ - 1]; }
  [[nodiscard]] uint64_t back() const { return data_[size_ - 1]; }
  uint64_t& operator[](size_t index) { return data_[index]; }
  uint64_t operator[](size_t index) const { return data_[index]; }

  bool operator==(const WordStore& rhs) const {
    return size_ == rhs.size_ && std::equal(begin(), end(), rhs.begin());
  }
  bool operator!=(const WordStore& rhs) const { return !(*this == rhs); }

 private:
  void reserve(size_t count) {
    if (count <= capacity_) return;
    // Allocate before freeing: a throwing new must leave *this intact.
    uint64_t* grown = new uint64_t[count];
    if (data_ != inline_) delete[] data_;
    data_ = grown;
    capacity_ = static_cast<uint32_t>(count);
  }

  void copy_from(const WordStore& other) {
    reserve(other.size_);
    size_ = other.size_;
    std::copy_n(other.data_, other.size_, data_);
  }

  /// Leaves `other` valid: a one-word inline zero.
  void steal(WordStore& other) noexcept {
    if (other.data_ == other.inline_) {
      data_ = inline_;
      capacity_ = kInlineWords;
      size_ = other.size_;
      std::copy_n(other.inline_, other.size_, inline_);
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineWords;
    }
    other.size_ = 1;
    other.inline_[0] = 0;
  }

  void release() {
    if (data_ != inline_) delete[] data_;
  }

  uint64_t* data_ = inline_;
  uint32_t size_ = 1;
  uint32_t capacity_ = kInlineWords;
  uint64_t inline_[kInlineWords];
};

}  // namespace detail

/// Arbitrary-width two-state (0/1) bit vector with value semantics.
///
/// This is the value type used throughout the IR constant folder, the RTL
/// simulator, the VCD trace engine, and the debugger runtime. The paper's
/// breakpoint emulation assumes zero-delay two-state simulation (Sec. 3),
/// so no X/Z states are modelled; see DESIGN.md for the substitution note.
///
/// Invariants:
///  - width() >= 1
///  - storage is ceil(width/64) little-endian 64-bit words
///  - all bits above width() are zero ("normalized")
///  - widths <= 128 bits are stored inline (no heap allocation)
///
/// Arithmetic is modular in the result width. Unless documented otherwise,
/// binary operations require equal operand widths (the compiler inserts
/// explicit resize nodes); this keeps simulator evaluation branch-free.
class BitVector {
 public:
  /// One-bit zero.
  BitVector() : BitVector(1, 0) {}
  /// `width`-bit vector holding `value` (truncated modulo 2^width).
  explicit BitVector(uint32_t width, uint64_t value = 0);

  /// Parses Verilog-flavoured literals: "8'hff", "4'b1010", "16'd123",
  /// plain decimal "42", "0x1f", "0b101". Plain literals get the minimal
  /// width that holds the value (at least 1). Throws std::invalid_argument
  /// on malformed input.
  static BitVector from_string(std::string_view literal);
  /// `width`-bit vector with every bit set.
  static BitVector all_ones(uint32_t width);
  /// Builds from raw words (little-endian); truncates to `width`.
  static BitVector from_words(uint32_t width, std::vector<uint64_t> words);
  /// Builds from `count` little-endian bytes; truncates to `width`. Needs
  /// no scratch allocation (the .wvx block decoders' wide-value path).
  static BitVector from_le_bytes(uint32_t width, const uint8_t* bytes,
                                 size_t count);

  [[nodiscard]] uint32_t width() const { return width_; }
  [[nodiscard]] size_t num_words() const { return words_.size(); }
  [[nodiscard]] const detail::WordStore& words() const { return words_; }

  /// Low 64 bits (truncating view).
  [[nodiscard]] uint64_t to_uint64() const { return words_[0]; }
  /// Low 64 bits sign-extended from bit width()-1.
  [[nodiscard]] int64_t to_int64() const;
  /// True iff any bit is set.
  [[nodiscard]] bool to_bool() const;
  [[nodiscard]] bool is_zero() const { return !to_bool(); }
  /// True iff the value fits in 64 bits.
  [[nodiscard]] bool fits_uint64() const;

  [[nodiscard]] bool bit(uint32_t index) const;
  void set_bit(uint32_t index, bool value);

  /// In-place store of a 64-bit value (truncated modulo 2^width) without
  /// reallocating. This keeps the simulator's hot loop allocation-free for
  /// the (dominant) <=64-bit signals.
  void assign_uint64(uint64_t value) {
    words_[0] = value;
    for (size_t i = 1; i < words_.size(); ++i) words_[i] = 0;
    normalize();
  }

  /// In-place re-initialization to `width` bits holding `value`, reusing
  /// storage capacity. The compiled expression engine writes every
  /// intermediate result through this, so steady-state evaluation never
  /// allocates.
  void reset(uint32_t width, uint64_t value = 0) {
    width_ = width;
    words_.assign((width + 63) / 64, 0);
    words_[0] = value;
    normalize();
  }

  /// Bits [hi:lo], result width hi-lo+1. Requires lo <= hi < width().
  [[nodiscard]] BitVector slice(uint32_t hi, uint32_t lo) const;
  /// {*this, rhs}: this becomes the high part, width sums.
  [[nodiscard]] BitVector concat(const BitVector& rhs) const;
  /// Zero- or sign-extends / truncates to `new_width`.
  [[nodiscard]] BitVector resize(uint32_t new_width, bool sign_extend = false) const;

  // -- Arithmetic (equal widths required; result has the same width) -------
  [[nodiscard]] BitVector add(const BitVector& rhs) const;
  [[nodiscard]] BitVector sub(const BitVector& rhs) const;
  [[nodiscard]] BitVector mul(const BitVector& rhs) const;
  /// Unsigned division; division by zero yields all-ones (Verilog-style
  /// two-state convention, documented in the simulator).
  [[nodiscard]] BitVector udiv(const BitVector& rhs) const;
  /// Unsigned remainder; remainder by zero yields the dividend.
  [[nodiscard]] BitVector urem(const BitVector& rhs) const;
  [[nodiscard]] BitVector sdiv(const BitVector& rhs) const;
  [[nodiscard]] BitVector srem(const BitVector& rhs) const;
  [[nodiscard]] BitVector negate() const;

  // -- Bitwise --------------------------------------------------------------
  [[nodiscard]] BitVector bit_and(const BitVector& rhs) const;
  [[nodiscard]] BitVector bit_or(const BitVector& rhs) const;
  [[nodiscard]] BitVector bit_xor(const BitVector& rhs) const;
  [[nodiscard]] BitVector bit_not() const;

  // -- Reductions (result width 1) ------------------------------------------
  [[nodiscard]] BitVector reduce_and() const;
  [[nodiscard]] BitVector reduce_or() const;
  [[nodiscard]] BitVector reduce_xor() const;
  /// Number of set bits.
  [[nodiscard]] uint32_t popcount() const;

  // -- Shifts (shift amount may have any width) ------------------------------
  [[nodiscard]] BitVector shl(const BitVector& amount) const;
  [[nodiscard]] BitVector lshr(const BitVector& amount) const;
  [[nodiscard]] BitVector ashr(const BitVector& amount) const;
  [[nodiscard]] BitVector shl(uint32_t amount) const;
  [[nodiscard]] BitVector lshr(uint32_t amount) const;
  [[nodiscard]] BitVector ashr(uint32_t amount) const;

  // -- Comparisons (equal widths; result is bool) ----------------------------
  [[nodiscard]] bool eq(const BitVector& rhs) const;
  [[nodiscard]] bool ult(const BitVector& rhs) const;
  [[nodiscard]] bool ule(const BitVector& rhs) const;
  [[nodiscard]] bool slt(const BitVector& rhs) const;
  [[nodiscard]] bool sle(const BitVector& rhs) const;

  bool operator==(const BitVector& rhs) const {
    return width_ == rhs.width_ && words_ == rhs.words_;
  }
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// Decimal (base 10, unsigned), hex (base 16, no prefix, zero-padded to
  /// the width), or binary (base 2, zero-padded).
  [[nodiscard]] std::string to_string(int base = 10) const;
  /// Binary string without padding removal, e.g. for VCD ("b0101").
  [[nodiscard]] std::string to_vcd_string() const;

  [[nodiscard]] size_t hash() const;

 private:
  void normalize();
  [[nodiscard]] bool sign_bit() const { return bit(width_ - 1); }

  uint32_t width_;
  detail::WordStore words_;
};

}  // namespace hgdb::common

template <>
struct std::hash<hgdb::common::BitVector> {
  size_t operator()(const hgdb::common::BitVector& bv) const noexcept {
    return bv.hash();
  }
};

#endif  // HGDB_COMMON_BITVECTOR_H
