#ifndef HGDB_WAVEFORM_INDEX_FORMAT_H
#define HGDB_WAVEFORM_INDEX_FORMAT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "waveform/waveform_source.h"

namespace hgdb::waveform {

/// The .wvx on-disk waveform index, version 4. IndexWriter writes only
/// v4; v1-v3 files written by older releases remain readable
/// bit-identically.
///
/// Layout (all integers little-endian; "varint" = unsigned LEB128):
///
///   [header, 36 bytes (32 in v1, which has no flags word)]
///     u32 magic            "WVX1" (0x31585657; identifies the format, not
///                          the version)
///     u32 version          4 (3 / 2 / 1 in files from older releases)
///     u32 flags            kWvxFlag* bits (v2+)
///     u64 footer_offset    patched after the block region is written
///     u64 max_time
///     u64 signal_count
///   [block region]
///     Per-signal change blocks, interleaved in write order, encoded by the
///     signal's block codec:
///       fixed codec (v1/v2, and v3+ without kWvxFlagDeltaCodec): `count`
///         fixed-stride entries — u64 time, then ceil(width/8) value bytes.
///       delta codec (v3+ with kWvxFlagDeltaCodec): `count` variable-size
///         entries — varint time delta (first entry: absolute time), then a
///         value tag byte (0 = repeat previous value, 1 = varint of
///         value XOR previous, 2 = raw ceil(width/8) bytes) and its
///         payload. "Previous value" starts at zero per block, so blocks
///         decode independently.
///       rle codec (v4, per-signal): toggle runs for clock-like 1-bit
///         signals; see rle_codec() in block_codec.h for the grouping.
///   [footer: signal table + block directory]
///     per signal:
///       u32 name_len, name bytes
///       u32 width
///       u32 canonical        [v3+] index of the signal owning the
///                            change stream; == own index when canonical.
///                            Aliased signals (canonical != self) carry no
///                            directory of their own.
///       u8 codec_id          [v4, canonical signals only] block codec of
///                            this signal's stream (0 fixed, 1 delta,
///                            2 rle), overriding the file-default flag —
///                            this is the per-signal codec-selection seam.
///       u64 block_count      [only when canonical]
///       per block: u64 start_time, u64 end_time, u64 file_offset,
///                  u32 count,
///                  [u32 payload_bytes in v3+ — variable-size codecs],
///                  [u32 crc32 when kWvxFlagBlockChecksums]
///
/// Sharded indexes (v4): a dump may instead be stored as a *manifest*
/// (magic "WVXM", see manifest.h) naming N shard files, each of which is
/// a complete single-file index holding a disjoint subset of the signals
/// (whole alias groups; split by top-level scope). Both spellings use the
/// .wvx extension — readers sniff the magic, so every open path accepts
/// either transparently.
///
/// The footer is small (O(signals + blocks)) and is the only part an
/// IndexedWaveform keeps resident; block payloads load on demand through
/// the LRU cache, read with pread through a StorageBackend. The directory
/// per signal is sorted by start_time, so a cycle seek is a binary search
/// over the directory followed by a binary search inside one decoded
/// block: O(log blocks + log block_capacity), no full-trace parse. Readers
/// reject a directory out of time order, and a block whose decoded first
/// and last times differ from its entry, as kCorrupt.
///
/// With kWvxFlagBlockChecksums set, every directory entry carries the
/// CRC-32 (IEEE) of its raw on-disk payload; readers verify it when the
/// block is first loaded (cache hits skip re-verification), so silent disk
/// corruption surfaces as a clean "checksum mismatch" error naming the
/// block instead of garbage waveform values.
constexpr uint32_t kWvxMagic = 0x31585657;  // "WVX1"
constexpr uint32_t kWvxVersion = 4;         ///< written by IndexWriter
constexpr uint32_t kWvxMinVersion = 1;      ///< oldest readable version
constexpr size_t kWvxHeaderSizeV1 = 32;
constexpr size_t kWvxHeaderSizeV2 = 36;  ///< also the v3 header size

/// Most entries one block may hold. Readers reject a directory entry
/// claiming more as kCorrupt (so an untrusted count can never size an
/// allocation), the block codecs refuse to decode more, and IndexWriter
/// refuses a larger block_capacity.
constexpr uint32_t kWvxMaxBlockEntries = 65536;

/// Most value bytes one block may decode to, counted as
/// wvx_block_value_bytes(): a delta repeat tag costs 2 payload bytes but
/// decodes to a whole value, so the entry cap alone does not bound a wide
/// signal's block. Readers reject a directory entry above it as kCorrupt
/// before decoding, the block codecs refuse to decode past it, and
/// IndexWriter shrinks a wide signal's block capacity to stay within it.
constexpr uint64_t kWvxMaxBlockValueBytes = uint64_t{8} << 20;

/// Decoded value bytes of a `count`-entry block of a `width`-bit signal:
/// one 64-bit word per started 64 bits per entry.
constexpr uint64_t wvx_block_value_bytes(uint64_t count, uint32_t width) {
  return count * ((static_cast<uint64_t>(width) + 63) / 64) * 8;
}

/// Header flag bits (v2+).
constexpr uint32_t kWvxFlagBlockChecksums = 1u << 0;
/// Block payloads use the varint/delta codec (v3+; clear = fixed codec).
constexpr uint32_t kWvxFlagDeltaCodec = 1u << 1;

/// What went wrong with a .wvx file — every reader-side failure carries
/// one of these so tools (wvx-verify, the CLI) can report a typed message
/// instead of a generic parse error.
enum class WvxFault : uint8_t {
  kNotFound,        ///< file missing / unreadable
  kBadMagic,        ///< not a waveform index at all
  kBadVersion,      ///< version outside [kWvxMinVersion, kWvxVersion]
  kNeverFinalized,  ///< writer died before the footer (footer_offset == 0)
  kTruncatedDirectory,  ///< EOF inside the signal table / block directory
  kTruncatedBlock,      ///< EOF inside a block payload
  kCorrupt,             ///< implausible metadata (bounds, counts, widths)
  kChecksum,            ///< block CRC32 mismatch
  kIo,                  ///< read/map syscall failure
};

[[nodiscard]] const char* to_string(WvxFault fault);

/// True when `path` names a waveform index by extension — the one
/// dispatch rule shared by the readers (trace::open_waveform) and the
/// writers (sim::VcdWriter's direct-emission mode).
[[nodiscard]] inline bool is_wvx_path(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".wvx") == 0;
}

/// The exception every .wvx reader path throws: a std::runtime_error (so
/// existing catch sites keep working) that also carries the typed fault.
class WvxError : public std::runtime_error {
 public:
  WvxError(WvxFault fault, const std::string& message)
      : std::runtime_error(message), fault_(fault) {}
  [[nodiscard]] WvxFault fault() const { return fault_; }

 private:
  WvxFault fault_;
};

/// Directory entry for one on-disk change block.
struct BlockInfo {
  uint64_t start_time = 0;  ///< time of the first entry
  uint64_t end_time = 0;    ///< time of the last entry
  uint64_t file_offset = 0; ///< absolute offset of the encoded payload
  uint32_t count = 0;       ///< number of entries
  uint32_t payload_bytes = 0;  ///< encoded size (v3; derived for v1/v2)
  uint32_t crc32 = 0;       ///< payload checksum (kWvxFlagBlockChecksums)
};

class BlockCodec;

/// Resident metadata for one indexed signal.
struct IndexedSignal {
  SignalInfo info;
  uint32_t value_bytes = 0;  ///< ceil(width/8): per-entry value payload
  /// Index of the signal owning the change stream (alias dedup); equals
  /// the signal's own index when it is canonical.
  size_t canonical = 0;
  /// Block codec of this signal's stream (v4 per-signal selection; the
  /// file-default codec for v1-v3). nullptr until resolved.
  const BlockCodec* codec = nullptr;
  /// Which shard file holds the stream (0 for single-file indexes).
  uint32_t shard = 0;
  std::vector<BlockInfo> blocks;  ///< empty for aliased signals
};

/// Bytes of one on-disk entry for a signal of `width` bits (fixed codec).
constexpr uint32_t wvx_value_bytes(uint32_t width) { return (width + 7) / 8; }
constexpr uint64_t wvx_entry_stride(uint32_t width) {
  return 8 + wvx_value_bytes(width);
}

struct IndexWriterOptions {
  /// Changes per block. Smaller blocks seek faster and cache finer; larger
  /// blocks amortize directory size. 256 keeps a 32-bit signal's block
  /// at ~3 KiB. At most kWvxMaxBlockEntries; 0 is treated as 1. Wide
  /// signals get fewer, so no block decodes past kWvxMaxBlockValueBytes.
  uint32_t block_capacity = 256;
  /// Write a CRC-32 per block (kWvxFlagBlockChecksums). ~4 bytes per
  /// block of overhead; on by default.
  bool block_checksums = true;
};

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_INDEX_FORMAT_H
