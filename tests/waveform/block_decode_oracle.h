// Reference decoders for .wvx block payloads: the pair-vector decoders the
// reader used before blocks went columnar, kept as an oracle. They favour
// plainness over speed (a BitVector per entry, a vector per raw value), so
// tests and the block fuzz harness can check the production decoders in
// waveform/block_codec.h entry by entry against them. They do not enforce
// kWvxMaxBlockEntries: callers bound `count` themselves.

#ifndef HGDB_TESTS_WAVEFORM_BLOCK_DECODE_ORACLE_H
#define HGDB_TESTS_WAVEFORM_BLOCK_DECODE_ORACLE_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "waveform/block_codec.h"
#include "waveform/index_format.h"

namespace hgdb::waveform::oracle {

/// One decoded entry per (time, value) change, sorted by time.
using PairBlock = std::vector<std::pair<uint64_t, common::BitVector>>;

inline common::BitVector value_from_bytes(const uint8_t* bytes,
                                          uint32_t value_bytes,
                                          uint32_t width) {
  std::vector<uint64_t> words((width + 63) / 64, 0);
  for (uint32_t byte = 0; byte < value_bytes; ++byte) {
    words[byte / 8] |= static_cast<uint64_t>(bytes[byte]) << (8 * (byte % 8));
  }
  return common::BitVector::from_words(width, std::move(words));
}

[[noreturn]] inline void truncated() {
  throw WvxError(WvxFault::kTruncatedBlock,
                 "wvx: block payload shorter than its entry count");
}

inline void decode_fixed(const char* payload, size_t payload_bytes,
                         uint32_t count, uint32_t width, PairBlock& out) {
  out.clear();
  const uint32_t value_bytes = wvx_value_bytes(width);
  const uint64_t stride = wvx_entry_stride(width);
  if (payload_bytes < stride * count) truncated();
  if (payload_bytes > stride * count) {
    throw WvxError(WvxFault::kCorrupt,
                   "wvx: block payload larger than its entry count");
  }
  out.reserve(count);
  const auto* base = reinterpret_cast<const uint8_t*>(payload);
  for (uint32_t entry = 0; entry < count; ++entry) {
    const uint8_t* p = base + entry * stride;
    uint64_t time = 0;
    for (int b = 7; b >= 0; --b) time = (time << 8) | p[b];
    out.emplace_back(time, value_from_bytes(p + 8, value_bytes, width));
  }
}

inline void decode_delta(const char* payload, size_t payload_bytes,
                         uint32_t count, uint32_t width, PairBlock& out) {
  out.clear();
  const uint32_t value_bytes = wvx_value_bytes(width);
  const bool narrow = width <= 64;
  const auto* p = reinterpret_cast<const uint8_t*>(payload);
  const uint8_t* end = p + payload_bytes;
  uint64_t time = 0;
  uint64_t prev_word = 0;
  common::BitVector prev(width, 0);
  for (uint32_t entry = 0; entry < count; ++entry) {
    time += read_varint(&p, end);
    if (p >= end) truncated();
    const uint8_t tag = *p++;
    switch (tag) {
      case 0:  // repeat
        break;
      case 1: {  // xor
        if (!narrow) {
          throw WvxError(WvxFault::kCorrupt,
                         "wvx: xor-tagged entry on a wide signal");
        }
        prev_word ^= read_varint(&p, end);
        prev.assign_uint64(prev_word);
        break;
      }
      case 2: {  // raw
        if (static_cast<size_t>(end - p) < value_bytes) truncated();
        prev = value_from_bytes(p, value_bytes, width);
        if (narrow) prev_word = prev.to_uint64();
        p += value_bytes;
        break;
      }
      default:
        throw WvxError(WvxFault::kCorrupt, "wvx: unknown value tag " +
                                               std::to_string(tag) +
                                               " in block payload");
    }
    out.emplace_back(time, prev);
  }
  if (p != end) {
    throw WvxError(WvxFault::kCorrupt,
                   "wvx: trailing bytes after the last block entry");
  }
}

inline void decode_rle(const char* payload, size_t payload_bytes,
                       uint32_t count, uint32_t width, PairBlock& out) {
  if (width != 1) {
    throw WvxError(WvxFault::kCorrupt, "wvx: rle block on a wide signal");
  }
  out.clear();
  const auto* p = reinterpret_cast<const uint8_t*>(payload);
  const uint8_t* end = p + payload_bytes;
  uint64_t time = 0;
  bool value = false;
  while (out.size() < count) {
    const uint64_t run = read_varint(&p, end);
    if (run == 0) {  // literal: explicit value byte
      time += read_varint(&p, end);
      if (p >= end) truncated();
      const uint8_t byte = *p++;
      if (byte > 1) {
        throw WvxError(WvxFault::kCorrupt,
                       "wvx: rle literal value byte out of range");
      }
      value = byte != 0;
      out.emplace_back(time, common::BitVector(1, value ? 1 : 0));
    } else {
      if (run > count - out.size()) {
        throw WvxError(WvxFault::kCorrupt,
                       "wvx: rle run overflows its block entry count");
      }
      const uint64_t delta = read_varint(&p, end);
      for (uint64_t k = 0; k < run; ++k) {
        time += delta;
        value = !value;
        out.emplace_back(time, common::BitVector(1, value ? 1 : 0));
      }
    }
  }
  if (p != end) {
    throw WvxError(WvxFault::kCorrupt,
                   "wvx: trailing bytes after the last block entry");
  }
}

/// Decodes with the reference decoder of codec id `codec` (0 fixed,
/// 1 delta, 2 rle — the on-disk ids of codec_id()).
inline void decode(uint8_t codec, const char* payload, size_t payload_bytes,
                   uint32_t count, uint32_t width, PairBlock& out) {
  switch (codec) {
    case 0: return decode_fixed(payload, payload_bytes, count, width, out);
    case 1: return decode_delta(payload, payload_bytes, count, width, out);
    case 2: return decode_rle(payload, payload_bytes, count, width, out);
    default: throw std::invalid_argument("oracle: unknown codec id");
  }
}

/// Empty when `decoded` matches `expected` entry by entry (times, widths
/// and values); otherwise a description of the first difference.
inline std::string compare(const PairBlock& expected,
                           const DecodedBlock& decoded) {
  if (decoded.size() != expected.size()) {
    return "size " + std::to_string(decoded.size()) + " != " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (decoded.times[i] != expected[i].first) {
      return "time @" + std::to_string(i);
    }
    // value() masks again, so check the stored word itself: a narrow
    // column must never hold bits above the width.
    if (decoded.narrow() && decoded.words[i] != expected[i].second.to_uint64()) {
      return "word @" + std::to_string(i);
    }
    if (decoded.value(i) != expected[i].second) {
      return "value @" + std::to_string(i) + ": " +
             decoded.value(i).to_string(16) + " != " +
             expected[i].second.to_string(16);
    }
    if (decoded.is_set(i) != expected[i].second.to_bool()) {
      return "is_set @" + std::to_string(i);
    }
  }
  return {};
}

}  // namespace hgdb::waveform::oracle

#endif  // HGDB_TESTS_WAVEFORM_BLOCK_DECODE_ORACLE_H
