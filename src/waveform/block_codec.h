#ifndef HGDB_WAVEFORM_BLOCK_CODEC_H
#define HGDB_WAVEFORM_BLOCK_CODEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.h"

namespace hgdb::waveform {

/// A decoded change block in columns, sorted by time. Identical to
/// BlockCache::Block: the codecs decode straight into what the cache
/// stores, with no allocation per entry.
///
///   times  one u64 per entry, nondecreasing
///   words  signals up to 64 bits: one u64 per entry, masked to the width
///          (so 16 B of residency per entry with its time)
///   wide   wider signals: one BitVector per entry; `words` stays empty
///
/// Queries binary-search `times` and build one BitVector per answer.
struct DecodedBlock {
  uint32_t width = 1;
  std::vector<uint64_t> times;
  std::vector<uint64_t> words;
  std::vector<common::BitVector> wide;

  [[nodiscard]] size_t size() const { return times.size(); }
  [[nodiscard]] bool narrow() const { return width <= 64; }
  /// Value of entry `index` (< size()).
  [[nodiscard]] common::BitVector value(size_t index) const {
    return narrow() ? common::BitVector(width, words[index]) : wide[index];
  }
  /// True when entry `index` has any bit set (BitVector::to_bool).
  [[nodiscard]] bool is_set(size_t index) const {
    return narrow() ? words[index] != 0 : wide[index].to_bool();
  }
  /// Empties every column (keeping capacity) for a `width`-bit decode.
  void reset(uint32_t new_width) {
    width = new_width;
    times.clear();
    words.clear();
    wide.clear();
  }
};

// -- varint (unsigned LEB128) -------------------------------------------------
void append_varint(std::string& out, uint64_t value);
/// Bytes append_varint would emit (1..10).
[[nodiscard]] uint32_t varint_size(uint64_t value);
/// Reads one varint, advancing *cursor. Throws WvxError(kTruncatedBlock)
/// past `end` or on an overlong (> 10 byte) encoding.
[[nodiscard]] uint64_t read_varint(const uint8_t** cursor, const uint8_t* end);

/// The block-payload encoding seam of the waveform store. The writer, the
/// reader and the verifier all serialize/deserialize change blocks through
/// this interface, so an encoding can change without touching any of them.
///
/// Implementations must be stateless across blocks: every block decodes
/// independently of its neighbours (random access through the directory).
class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Appends the encoding of `count` (time, value) changes of a
  /// `width`-bit signal onto `out`. Times are nondecreasing.
  virtual void encode(const uint64_t* times, const common::BitVector* values,
                      size_t count, uint32_t width,
                      std::string& out) const = 0;

  /// Decodes exactly `count` entries from `payload` into `out` (reset to
  /// `width` first). Throws WvxError(kTruncatedBlock / kCorrupt) when the
  /// payload is shorter than the entries claim, trailing bytes remain,
  /// entry times decrease (or wrap past 2^64), `count` exceeds
  /// kWvxMaxBlockEntries, or the block would decode past
  /// kWvxMaxBlockValueBytes — an untrusted count is checked before it
  /// sizes any allocation. Value bits above `width` in the
  /// payload are masked off, as BitVector normalization does.
  virtual void decode(const char* payload, size_t payload_bytes,
                      uint32_t count, uint32_t width,
                      DecodedBlock& out) const = 0;
};

/// v1/v2 layout (and v3 without kWvxFlagDeltaCodec): `count` fixed-stride
/// entries of u64 time + ceil(width/8) little-endian value bytes.
[[nodiscard]] const BlockCodec& fixed_codec();

/// v3 layout: per entry a varint time delta (absolute for the first
/// entry), then a value tag byte and its payload:
///   0  repeat — same value as the previous entry (zero for the first)
///   1  varint of value XOR previous (widths <= 64 only)
///   2  raw ceil(width/8) little-endian bytes
/// Near-sequential times collapse to 1-byte deltas and small bit flips to
/// 2-3 byte entries, which is where the v3 size win comes from.
[[nodiscard]] const BlockCodec& delta_codec();

/// Run-length toggle codec for width-1 signals (v4 per-signal selection;
/// the writer auto-picks it for clock-like streams). Entries are grouped:
///   varint run_len >= 1: run_len entries, each toggling the previous
///     value, spaced by one shared varint time delta — a whole block of a
///     pure clock collapses to ~3 bytes.
///   varint 0 (literal escape): one entry at varint delta with an explicit
///     u8 value (0/1) — covers the initial 0 at #0, glitches, and
///     irregular spacing.
/// "Previous value" starts at 0 per block, so blocks decode independently.
/// encode()/decode() reject widths other than 1.
[[nodiscard]] const BlockCodec& rle_codec();

/// Codec selection for a file: delta when the flag says so, else fixed.
/// v4 files may override per signal via the footer codec id.
[[nodiscard]] const BlockCodec& codec_for_flags(uint32_t flags);

/// On-disk codec ids, written per canonical signal in v4 footers:
/// 0 = fixed, 1 = delta, 2 = rle.
[[nodiscard]] uint8_t codec_id(const BlockCodec& codec);
/// The codec for an id, or nullptr when the id is unknown (corrupt or
/// future file — the reader reports a typed fault with path context).
[[nodiscard]] const BlockCodec* codec_by_id(uint8_t id);

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_BLOCK_CODEC_H
