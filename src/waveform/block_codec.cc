#include "waveform/block_codec.h"

#include "waveform/index_format.h"

namespace hgdb::waveform {

using common::BitVector;

void append_varint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

uint32_t varint_size(uint64_t value) {
  uint32_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

uint64_t read_varint(const uint8_t** cursor, const uint8_t* end) {
  uint64_t out = 0;
  const uint8_t* p = *cursor;
  // Bounded shifts: a u64 spans at most 10 LEB128 bytes, and the 10th may
  // carry only bit 0 with no continuation — anything else is rejected
  // before the shift, so corrupt payloads can never reach UB territory.
  for (uint32_t shift = 0; shift < 64; shift += 7) {
    if (p >= end) {
      throw WvxError(WvxFault::kTruncatedBlock,
                     "wvx: truncated varint in block payload");
    }
    const uint8_t byte = *p++;
    if (shift == 63 && (byte & 0xfe) != 0) {
      throw WvxError(WvxFault::kCorrupt, "wvx: overlong varint in block");
    }
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *cursor = p;
      return out;
    }
  }
  throw WvxError(WvxFault::kCorrupt, "wvx: overlong varint in block");
}

namespace {

/// Little-endian value bytes of a BitVector, `value_bytes` wide.
void append_value_bytes(std::string& out, const BitVector& value,
                        uint32_t value_bytes) {
  const auto& words = value.words();
  for (uint32_t byte = 0; byte < value_bytes; ++byte) {
    const size_t word = byte / 8;
    const uint64_t shifted =
        word < words.size() ? words[word] >> (8 * (byte % 8)) : 0;
    out.push_back(static_cast<char>(shifted & 0xff));
  }
}

/// Little-endian load of `count` (<= 8) bytes.
uint64_t load_le(const uint8_t* bytes, uint32_t count) {
  uint64_t out = 0;
  for (uint32_t byte = count; byte-- > 0;) out = (out << 8) | bytes[byte];
  return out;
}

/// Mask of a narrow (<= 64-bit) signal's value bits.
uint64_t width_mask(uint32_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/// read_varint with the one-byte case inlined: small time deltas and xor
/// diffs dominate real blocks.
inline uint64_t next_varint(const uint8_t** cursor, const uint8_t* end) {
  const uint8_t* p = *cursor;
  if (p < end && *p < 0x80) {
    *cursor = p + 1;
    return *p;
  }
  return read_varint(cursor, end);
}

[[noreturn]] void truncated() {
  throw WvxError(WvxFault::kTruncatedBlock,
                 "wvx: block payload shorter than its entry count");
}

[[noreturn]] void trailing_bytes() {
  throw WvxError(WvxFault::kCorrupt,
                 "wvx: trailing bytes after the last block entry");
}

[[noreturn]] void unordered_times() {
  throw WvxError(WvxFault::kCorrupt,
                 "wvx: block entry times decrease or overflow");
}

/// `time + delta`, rejecting a wrap past 2^64: decoded times must stay
/// nondecreasing, or seeks would binary-search unsorted data.
inline uint64_t advance(uint64_t time, uint64_t delta) {
  const uint64_t next = time + delta;
  if (next < time) unordered_times();
  return next;
}

/// The entry count comes from an untrusted directory: bound it, and the
/// value bytes it decodes to, before it sizes an allocation.
void check_entry_count(uint32_t count, uint32_t width) {
  if (count > kWvxMaxBlockEntries) {
    throw WvxError(WvxFault::kCorrupt,
                   "wvx: block entry count " + std::to_string(count) +
                       " exceeds the format maximum");
  }
  if (wvx_block_value_bytes(count, width) > kWvxMaxBlockValueBytes) {
    throw WvxError(WvxFault::kCorrupt,
                   "wvx: block of " + std::to_string(count) +
                       " entries decodes past the format maximum");
  }
}

// ---------------------------------------------------------------------------
// fixed codec (v1/v2)
// ---------------------------------------------------------------------------

class FixedBlockCodec final : public BlockCodec {
 public:
  [[nodiscard]] const char* name() const override { return "fixed"; }

  void encode(const uint64_t* times, const BitVector* values, size_t count,
              uint32_t width, std::string& out) const override {
    const uint32_t value_bytes = wvx_value_bytes(width);
    for (size_t i = 0; i < count; ++i) {
      uint64_t time = times[i];
      for (int b = 0; b < 8; ++b) {
        out.push_back(static_cast<char>(time & 0xff));
        time >>= 8;
      }
      append_value_bytes(out, values[i], value_bytes);
    }
  }

  void decode(const char* payload, size_t payload_bytes, uint32_t count,
              uint32_t width, DecodedBlock& out) const override {
    check_entry_count(count, width);
    const uint32_t value_bytes = wvx_value_bytes(width);
    const uint64_t stride = wvx_entry_stride(width);
    if (payload_bytes < stride * count) truncated();
    if (payload_bytes > stride * count) {
      throw WvxError(WvxFault::kCorrupt,
                     "wvx: block payload larger than its entry count");
    }
    out.reset(width);
    out.times.resize(count);
    const auto* p = reinterpret_cast<const uint8_t*>(payload);
    uint64_t previous = 0;
    for (uint32_t entry = 0; entry < count; ++entry) {
      const uint64_t time = load_le(p + entry * stride, 8);
      if (time < previous) unordered_times();
      out.times[entry] = previous = time;
    }
    if (out.narrow()) {
      const uint64_t mask = width_mask(width);
      out.words.resize(count);
      for (uint32_t entry = 0; entry < count; ++entry) {
        out.words[entry] = load_le(p + entry * stride + 8, value_bytes) & mask;
      }
    } else {
      out.wide.reserve(count);
      for (uint32_t entry = 0; entry < count; ++entry) {
        out.wide.push_back(BitVector::from_le_bytes(
            width, p + entry * stride + 8, value_bytes));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// delta codec (v3)
// ---------------------------------------------------------------------------

enum : uint8_t {
  kTagRepeat = 0,  ///< value equals the previous entry's
  kTagXor = 1,     ///< varint of value XOR previous (width <= 64)
  kTagRaw = 2,     ///< raw little-endian value bytes
};

class DeltaBlockCodec final : public BlockCodec {
 public:
  [[nodiscard]] const char* name() const override { return "delta"; }

  void encode(const uint64_t* times, const BitVector* values, size_t count,
              uint32_t width, std::string& out) const override {
    const uint32_t value_bytes = wvx_value_bytes(width);
    const bool narrow = width <= 64;
    uint64_t prev_time = 0;
    uint64_t prev_word = 0;       // narrow: previous value as a word
    const BitVector* prev = nullptr;  // wide: previous value
    for (size_t i = 0; i < count; ++i) {
      append_varint(out, times[i] - prev_time);
      prev_time = times[i];
      const BitVector& value = values[i];
      if (narrow) {
        const uint64_t word = value.to_uint64();
        const uint64_t diff = word ^ prev_word;
        if (diff == 0) {
          out.push_back(static_cast<char>(kTagRepeat));
        } else if (varint_size(diff) <= value_bytes) {
          out.push_back(static_cast<char>(kTagXor));
          append_varint(out, diff);
        } else {
          out.push_back(static_cast<char>(kTagRaw));
          append_value_bytes(out, value, value_bytes);
        }
        prev_word = word;
      } else {
        if (prev != nullptr ? value == *prev : value.is_zero()) {
          out.push_back(static_cast<char>(kTagRepeat));
        } else {
          out.push_back(static_cast<char>(kTagRaw));
          append_value_bytes(out, value, value_bytes);
        }
        prev = &value;
      }
    }
  }

  void decode(const char* payload, size_t payload_bytes, uint32_t count,
              uint32_t width, DecodedBlock& out) const override {
    check_entry_count(count, width);
    // Every entry takes at least a 1-byte time delta and a tag byte.
    if (payload_bytes < 2 * static_cast<uint64_t>(count)) truncated();
    out.reset(width);
    out.times.reserve(count);
    const auto* p = reinterpret_cast<const uint8_t*>(payload);
    const uint8_t* end = p + payload_bytes;
    if (out.narrow()) {
      decode_narrow(p, end, count, out);
    } else {
      decode_wide(p, end, count, out);
    }
  }

 private:
  [[noreturn]] static void unknown_tag(uint8_t tag) {
    throw WvxError(WvxFault::kCorrupt, "wvx: unknown value tag " +
                                           std::to_string(tag) +
                                           " in block payload");
  }

  static void decode_narrow(const uint8_t* p, const uint8_t* end,
                            uint32_t count, DecodedBlock& out) {
    const uint32_t value_bytes = wvx_value_bytes(out.width);
    const uint64_t mask = width_mask(out.width);
    out.words.reserve(count);
    uint64_t time = 0;
    uint64_t word = 0;  // previous value, masked; zero before the first
    for (uint32_t entry = 0; entry < count; ++entry) {
      time = advance(time, next_varint(&p, end));
      if (p >= end) truncated();
      const uint8_t tag = *p++;
      switch (tag) {
        case kTagRepeat:
          break;
        case kTagXor:
          word = (word ^ next_varint(&p, end)) & mask;
          break;
        case kTagRaw:
          if (static_cast<size_t>(end - p) < value_bytes) truncated();
          word = load_le(p, value_bytes) & mask;
          p += value_bytes;
          break;
        default:
          unknown_tag(tag);
      }
      out.times.push_back(time);
      out.words.push_back(word);
    }
    if (p != end) trailing_bytes();
  }

  static void decode_wide(const uint8_t* p, const uint8_t* end,
                          uint32_t count, DecodedBlock& out) {
    const uint32_t width = out.width;
    const uint32_t value_bytes = wvx_value_bytes(width);
    out.wide.reserve(count);
    uint64_t time = 0;
    for (uint32_t entry = 0; entry < count; ++entry) {
      time = advance(time, next_varint(&p, end));
      if (p >= end) truncated();
      const uint8_t tag = *p++;
      switch (tag) {
        case kTagRepeat:
          // Reserved above, so back() stays valid through the push.
          if (out.wide.empty()) {
            out.wide.emplace_back(width, 0);
          } else {
            out.wide.push_back(out.wide.back());
          }
          break;
        case kTagXor:
          throw WvxError(WvxFault::kCorrupt,
                         "wvx: xor-tagged entry on a wide signal");
        case kTagRaw:
          if (static_cast<size_t>(end - p) < value_bytes) truncated();
          out.wide.push_back(BitVector::from_le_bytes(width, p, value_bytes));
          p += value_bytes;
          break;
        default:
          unknown_tag(tag);
      }
      out.times.push_back(time);
    }
    if (p != end) trailing_bytes();
  }
};

// ---------------------------------------------------------------------------
// rle toggle codec (v4, width-1 signals)
// ---------------------------------------------------------------------------

class RleBlockCodec final : public BlockCodec {
 public:
  [[nodiscard]] const char* name() const override { return "rle"; }

  void encode(const uint64_t* times, const BitVector* values, size_t count,
              uint32_t width, std::string& out) const override {
    if (width != 1) {
      throw std::invalid_argument("wvx: rle codec requires a 1-bit signal");
    }
    uint64_t prev_time = 0;
    bool prev_value = false;  // per-block baseline, same as delta's zero
    size_t i = 0;
    while (i < count) {
      const bool value = values[i].to_bool();
      const uint64_t delta = times[i] - prev_time;
      if (value != prev_value) {
        // Greedy maximal run: consecutive toggles at one uniform spacing.
        size_t j = i + 1;
        while (j < count && values[j].to_bool() != values[j - 1].to_bool() &&
               times[j] - times[j - 1] == delta) {
          ++j;
        }
        append_varint(out, j - i);  // run_len >= 1
        append_varint(out, delta);
        prev_time = times[j - 1];
        prev_value = values[j - 1].to_bool();
        i = j;
      } else {
        append_varint(out, 0);  // literal escape
        append_varint(out, delta);
        out.push_back(static_cast<char>(value ? 1 : 0));
        prev_time = times[i];
        prev_value = value;
        ++i;
      }
    }
  }

  void decode(const char* payload, size_t payload_bytes, uint32_t count,
              uint32_t width, DecodedBlock& out) const override {
    if (width != 1) {
      throw WvxError(WvxFault::kCorrupt, "wvx: rle block on a wide signal");
    }
    // Two bytes can legally expand into any run length: the cap is the
    // only bound on what this block allocates.
    check_entry_count(count, width);
    out.reset(width);
    out.times.reserve(count);
    out.words.reserve(count);
    const auto* p = reinterpret_cast<const uint8_t*>(payload);
    const uint8_t* end = p + payload_bytes;
    uint64_t time = 0;
    uint64_t value = 0;
    while (out.times.size() < count) {
      const uint64_t run = next_varint(&p, end);
      if (run == 0) {  // literal: explicit value byte
        time = advance(time, next_varint(&p, end));
        if (p >= end) truncated();
        const uint8_t byte = *p++;
        if (byte > 1) {
          throw WvxError(WvxFault::kCorrupt,
                         "wvx: rle literal value byte out of range");
        }
        value = byte;
        out.times.push_back(time);
        out.words.push_back(value);
      } else {
        if (run > count - out.times.size()) {
          throw WvxError(WvxFault::kCorrupt,
                         "wvx: rle run overflows its block entry count");
        }
        const uint64_t delta = next_varint(&p, end);
        for (uint64_t k = 0; k < run; ++k) {
          time = advance(time, delta);
          value ^= 1;
          out.times.push_back(time);
          out.words.push_back(value);
        }
      }
    }
    if (p != end) trailing_bytes();
  }
};

}  // namespace

const BlockCodec& fixed_codec() {
  static const FixedBlockCodec codec;
  return codec;
}

const BlockCodec& delta_codec() {
  static const DeltaBlockCodec codec;
  return codec;
}

const BlockCodec& rle_codec() {
  static const RleBlockCodec codec;
  return codec;
}

const BlockCodec& codec_for_flags(uint32_t flags) {
  return (flags & kWvxFlagDeltaCodec) != 0 ? delta_codec() : fixed_codec();
}

uint8_t codec_id(const BlockCodec& codec) {
  if (&codec == &fixed_codec()) return 0;
  if (&codec == &delta_codec()) return 1;
  if (&codec == &rle_codec()) return 2;
  throw std::invalid_argument("wvx: unregistered block codec");
}

const BlockCodec* codec_by_id(uint8_t id) {
  switch (id) {
    case 0: return &fixed_codec();
    case 1: return &delta_codec();
    case 2: return &rle_codec();
    default: return nullptr;
  }
}

}  // namespace hgdb::waveform
