#include "waveform/indexed_waveform.h"

#include <algorithm>
#include <chrono>

#include "common/crc32.h"
#include "obs/trace.h"
#include "waveform/manifest.h"

namespace hgdb::waveform {

using common::BitVector;

namespace {

/// Bounds-checked little-endian parser over an in-memory footer image.
/// Running past the end means the writer died mid-footer (or the file was
/// cut): a typed truncated-directory fault, not a generic parse error.
class MemReader {
 public:
  MemReader(const uint8_t* data, size_t size, const std::string& path)
      : p_(data), end_(data + size), path_(path) {}

  uint8_t u8() {
    need(1);
    return *p_++;
  }

  uint32_t u32() {
    need(4);
    uint32_t out = 0;
    for (int i = 3; i >= 0; --i) out = (out << 8) | p_[i];
    p_ += 4;
    return out;
  }

  uint64_t u64() {
    need(8);
    uint64_t out = 0;
    for (int i = 7; i >= 0; --i) out = (out << 8) | p_[i];
    p_ += 8;
    return out;
  }

  std::string str(size_t length) {
    need(length);
    std::string out(reinterpret_cast<const char*>(p_), length);
    p_ += length;
    return out;
  }

 private:
  void need(size_t bytes) {
    if (static_cast<size_t>(end_ - p_) < bytes) {
      throw WvxError(WvxFault::kTruncatedDirectory,
                     "wvx: truncated signal directory in '" + path_ +
                         "' (footer ends mid-entry)");
    }
  }

  const uint8_t* p_;
  const uint8_t* end_;
  const std::string& path_;
};

/// Sanity bounds for untrusted on-disk metadata: a corrupt or crafted
/// index must fail with a clean error, not an unchecked huge allocation.
constexpr uint32_t kMaxSignalWidth = 1u << 20;   // 1M bits
constexpr uint32_t kMaxNameLength = 1u << 16;
/// Largest possible well-formed manifest (every field at its cap); a
/// bigger file can't parse, so don't slurp it into memory first.
constexpr uint64_t kMaxManifestBytes =
    static_cast<uint64_t>(kWvxMaxShards) * (kWvxMaxShardNameLength + 4) + 36;

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw WvxError(WvxFault::kCorrupt,
                 "wvx: corrupt index '" + path + "': " + what);
}

/// Directory prefix of `path` (with trailing '/'), "" for a bare name.
/// Shard names are resolved relative to their manifest.
std::string dir_of(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

}  // namespace

IndexedWaveform::IndexedWaveform(const std::string& path, size_t cache_blocks)
    : path_(path),
      cache_(cache_blocks),
      obs_(std::make_unique<ObsMetrics>()) {
  auto& registry = obs::MetricsRegistry::global();
  obs_->hits = &registry.counter("waveform.block_cache.hits");
  obs_->misses = &registry.counter("waveform.block_cache.misses");
  obs_->evictions = &registry.counter("waveform.block_cache.evictions");
  obs_->resident = &registry.gauge("waveform.block_cache.resident");
  obs_->load_ns = &registry.histogram("waveform.block_load_ns");

  // The constructor owns the object exclusively, but load_shard() and the
  // members it touches are annotated for the concurrent query path — hold
  // the (uncontended) lock so the analysis covers open-time parsing too.
  common::LockGuard lock(mutex_);
  auto primary = std::make_unique<StorageBackend>(path);
  const uint64_t primary_size = primary->size();
  std::string sniff;
  if (primary_size >= 4) primary->read(0, 4, sniff);
  if (is_manifest_bytes(sniff.data(), sniff.size())) {
    // Sharded dump: `path` is the manifest; every signal lives in one of
    // the shard files it names. Shards share this instance's BlockCache,
    // so cache_blocks bounds residency for the whole dump.
    sharded_ = true;
    if (primary_size > kMaxManifestBytes) {
      corrupt(path_, "manifest larger than any well-formed manifest");
    }
    primary->read(0, static_cast<size_t>(primary_size), sniff);
    const Manifest manifest = parse_manifest(sniff.data(), sniff.size());
    primary.reset();  // the manifest file itself holds no block data
    const std::string dir = dir_of(path);
    shards_.reserve(manifest.shards.size());
    for (const auto& name : manifest.shards) {
      const std::string shard_path = dir + name;
      shards_.push_back(std::make_unique<StorageBackend>(shard_path));
      shard_paths_.push_back(shard_path);
    }
    for (uint32_t k = 0; k < shards_.size(); ++k) load_shard(k);
    if (manifest.signal_count != signals_.size()) {
      corrupt(path_, "manifest signal count disagrees with its shards");
    }
    max_time_ = std::max(max_time_, manifest.max_time);
  } else {
    shards_.push_back(std::move(primary));
    shard_paths_.push_back(path);
    load_shard(0);
  }
}

IndexedWaveform::~IndexedWaveform() {
  // Settle this instance's contribution to the process-global resident
  // gauge; other open readers keep theirs.
  common::LockGuard lock(mutex_);
  obs_->resident->add(-resident_reported_);
}

void IndexedWaveform::load_shard(uint32_t shard_index) {
  const StorageBackend& storage = *shards_[shard_index];
  const std::string& path = shard_paths_[shard_index];
  const size_t base = signals_.size();
  const uint64_t file_size = storage.size();
  if (file_size < kWvxHeaderSizeV1) {
    throw WvxError(WvxFault::kBadMagic,
                   "wvx: '" + path + "' is not a waveform index (too small)");
  }
  // Header: magic + version first, the rest depends on the version.
  std::string scratch;
  uint32_t version = 0;
  {
    storage.read(0, kWvxHeaderSizeV1, scratch);
    MemReader reader(reinterpret_cast<const uint8_t*>(scratch.data()),
                     kWvxHeaderSizeV1, path);
    if (reader.u32() != kWvxMagic) {
      throw WvxError(WvxFault::kBadMagic,
                     "wvx: '" + path + "' is not a waveform index (bad magic)");
    }
    version = reader.u32();
  }
  if (version < kWvxMinVersion || version > kWvxVersion) {
    throw WvxError(WvxFault::kBadVersion,
                   "wvx: unsupported index version " + std::to_string(version) +
                       " in '" + path + "'");
  }
  version_ = std::max(version_, version);
  // v2+ adds a flags word after the version; v1 files have none, no
  // per-block checksums and the fixed codec.
  const uint64_t header_size =
      version >= 2 ? kWvxHeaderSizeV2 : kWvxHeaderSizeV1;
  if (file_size < header_size) {
    throw WvxError(WvxFault::kTruncatedDirectory,
                   "wvx: '" + path + "' ends inside the header");
  }
  storage.read(8, header_size - 8, scratch);
  MemReader reader(reinterpret_cast<const uint8_t*>(scratch.data()),
                   header_size - 8, path);
  const uint32_t flags = version >= 2 ? reader.u32() : 0;
  const bool checksums = (flags & kWvxFlagBlockChecksums) != 0;
  shard_checksums_.push_back(checksums);
  has_checksums_ = has_checksums_ && checksums;
  const BlockCodec* default_codec = &codec_for_flags(flags);
  if (codec_ == nullptr) codec_ = default_codec;
  const uint64_t footer_offset = reader.u64();
  max_time_ = std::max(max_time_, reader.u64());
  const uint64_t signal_count = reader.u64();
  if (footer_offset == 0) {
    throw WvxError(WvxFault::kNeverFinalized,
                   "wvx: '" + path + "' was never finalized (missing footer)");
  }
  if (footer_offset < header_size || footer_offset > file_size) {
    corrupt(path, "footer offset outside the file");
  }

  // The footer is small (O(signals + blocks)): read it whole, parse from
  // memory. Cheap a-priori caps so corrupt counts fail before any
  // allocation: every v1/v2 signal entry needs >= 16 footer bytes; in v3+
  // an *alias* entry can be as small as 13 (name_len + 1-char name +
  // width + canonical, no directory).
  const uint64_t footer_size = file_size - footer_offset;
  const bool v3 = version >= 3;
  const bool v4 = version >= 4;
  if (signal_count > footer_size / (v3 ? 13 : 16)) {
    corrupt(path, "signal count exceeds footer size");
  }
  const uint64_t max_shard_blocks = footer_size / 28;
  uint64_t shard_blocks = 0;
  std::string footer;
  storage.read(footer_offset, static_cast<size_t>(footer_size), footer);
  MemReader dir(reinterpret_cast<const uint8_t*>(footer.data()),
                footer.size(), path);
  signals_.reserve(base + signal_count);
  for (uint64_t i = 0; i < signal_count; ++i) {
    IndexedSignal signal;
    signal.shard = shard_index;
    const uint32_t name_len = dir.u32();
    if (name_len > kMaxNameLength) corrupt(path, "oversized signal name");
    signal.info.hier_name = dir.str(name_len);
    signal.info.width = dir.u32();
    if (signal.info.width == 0 || signal.info.width > kMaxSignalWidth) {
      corrupt(path, "implausible signal width");
    }
    signal.value_bytes = wvx_value_bytes(signal.info.width);
    // Canonical indexes are shard-local on disk; rebase into the global
    // table (shards hold disjoint, contiguous signal ranges).
    signal.canonical = base + i;
    if (v3) {
      const uint32_t canonical = dir.u32();
      if (canonical > i) corrupt(path, "alias points forward");
      signal.canonical = base + canonical;
      if (canonical != i) {
        const IndexedSignal& owner = signals_[base + canonical];
        if (owner.canonical != base + canonical) {
          corrupt(path, "alias of an alias");
        }
        // Queries on an alias are served from the owner's stream, so a
        // different declared width would mislabel every value.
        if (owner.info.width != signal.info.width) {
          corrupt(path, "alias width differs from its canonical signal");
        }
        signal.codec = owner.codec;
        ++alias_count_;
        // emplace (first wins) to match VcdTrace's duplicate-name
        // resolution.
        by_name_.emplace(signal.info.hier_name, signals_.size());
        signals_.push_back(std::move(signal));
        continue;  // aliases carry no directory of their own
      }
    }
    // v4 records the stream's codec per signal (auto-selection); earlier
    // versions encode one codec for the whole file in the header flags.
    if (v4) {
      const uint8_t codec = dir.u8();
      signal.codec = codec_by_id(codec);
      if (signal.codec == nullptr) {
        corrupt(path, "unknown codec id " + std::to_string(codec));
      }
    } else {
      signal.codec = default_codec;
    }
    const uint64_t stride = wvx_entry_stride(signal.info.width);
    const uint64_t block_count = dir.u64();
    // Subtract, never add: an untrusted count near 2^64 must not wrap.
    if (block_count > max_shard_blocks - shard_blocks) {
      corrupt(path, "block count exceeds footer size");
    }
    shard_blocks += block_count;
    signal.blocks.reserve(block_count);
    for (uint64_t b = 0; b < block_count; ++b) {
      BlockInfo block;
      block.start_time = dir.u64();
      block.end_time = dir.u64();
      block.file_offset = dir.u64();
      block.count = dir.u32();
      if (block.count > kWvxMaxBlockEntries) {
        corrupt(path, "block entry count " + std::to_string(block.count) +
                          " exceeds the format maximum");
      }
      if (wvx_block_value_bytes(block.count, signal.info.width) >
          kWvxMaxBlockValueBytes) {
        corrupt(path, "block of " + std::to_string(block.count) +
                          " entries decodes past the format maximum");
      }
      // v3 directories record the encoded size (variable-size codecs);
      // v1/v2 blocks are fixed-stride, so the size is derived. u64 math
      // throughout: a corrupt count must not truncate through the cast.
      const uint64_t payload =
          v3 ? dir.u32() : static_cast<uint64_t>(block.count) * stride;
      if (checksums) block.crc32 = dir.u32();
      // Block payloads live strictly between the header and the footer.
      if (block.count == 0 || payload == 0 ||
          block.file_offset < header_size ||
          block.file_offset > footer_offset ||
          payload > footer_offset - block.file_offset ||
          payload > UINT32_MAX) {
        corrupt(path, "block outside the data region");
      }
      // Seeks binary-search start_time: the directory must be in time
      // order, or a query silently lands in the wrong block.
      if (block.end_time < block.start_time ||
          (!signal.blocks.empty() &&
           block.start_time < signal.blocks.back().end_time)) {
        corrupt(path, "block directory out of time order");
      }
      block.payload_bytes = static_cast<uint32_t>(payload);
      signal.blocks.push_back(block);
    }
    by_name_.emplace(signal.info.hier_name, signals_.size());
    signals_.push_back(std::move(signal));
  }
  total_blocks_ += shard_blocks;
}

std::optional<size_t> IndexedWaveform::signal_index(
    const std::string& hier_name) const {
  auto it = by_name_.find(hier_name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

BlockCache::BlockPtr IndexedWaveform::load_block(size_t signal_index,
                                                 size_t block_index) const {
  // HGDB_REQUIRES(mutex_): the caller passes a *canonical* signal index,
  // so aliased names share cache entries as well as on-disk blocks. The
  // key's signal index is global (rebased across shards), so one cache
  // serves every shard without collisions.
  const BlockCache::Key key{static_cast<uint32_t>(signal_index),
                            static_cast<uint32_t>(block_index)};
  if (auto cached = cache_.lookup(key)) {
    obs_->hits->add(1);
    return cached;
  }
  obs_->misses->add(1);
  const auto t0 = std::chrono::steady_clock::now();

  const auto& signal = signals_[signal_index];
  const auto& info = signal.blocks[block_index];
  const StorageBackend& storage = *shards_[signal.shard];
  const std::string& shard_path = shard_paths_[signal.shard];
  const char* payload;
  {
    HGDB_TRACE_SPAN_VAR(read_span, "wvx", "block_read");
    read_span.set_arg(info.payload_bytes);
    storage.read(info.file_offset, info.payload_bytes, scratch_);
    payload = scratch_.data();
    // Integrity gate: verified once per load; cache hits skip it.
    if (shard_checksums_[signal.shard]) {
      const uint32_t actual = common::crc32(payload, info.payload_bytes);
      if (actual != info.crc32) {
        throw WvxError(
            WvxFault::kChecksum,
            "wvx: checksum mismatch in '" + shard_path + "' (signal '" +
                signal.info.hier_name + "', block " +
                std::to_string(block_index) + " at offset " +
                std::to_string(info.file_offset) + ")");
      }
    }
  }

  auto block = std::make_shared<BlockCache::Block>();
  {
    HGDB_TRACE_SPAN_VAR(decode_span, "wvx", "block_decode");
    decode_span.set_arg(info.count);
    signal.codec->decode(payload, info.payload_bytes, info.count,
                         signal.info.width, *block);
  }
  // The directory's time span must be the payload's (count >= 1 here).
  if (block->times.front() != info.start_time ||
      block->times.back() != info.end_time) {
    throw WvxError(WvxFault::kCorrupt,
                   "wvx: block times disagree with the directory in '" +
                       shard_path + "' (signal '" + signal.info.hier_name +
                       "', block " + std::to_string(block_index) + ")");
  }
  const uint64_t before_evictions = cache_.stats().evictions;
  cache_.insert(key, block);
  obs_->evictions->add(cache_.stats().evictions - before_evictions);
  // The gauge is shared by every open reader in the process: report this
  // instance's residency as a delta so instances aggregate instead of
  // overwriting each other's contribution.
  const int64_t resident = static_cast<int64_t>(cache_.stats().resident);
  obs_->resident->add(resident - resident_reported_);
  resident_reported_ = resident;
  obs_->load_ns->record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return block;
}

IndexedWaveform::BlockSpan IndexedWaveform::locate(size_t index,
                                                   uint64_t time) const {
  common::LockGuard lock(mutex_);
  const size_t canonical = signals_[index].canonical;
  const auto& directory = signals_[canonical].blocks;
  // Last block whose first entry is at or before `time`.
  auto it = std::upper_bound(
      directory.begin(), directory.end(), time,
      [](uint64_t t, const BlockInfo& block) { return t < block.start_time; });
  BlockSpan span;
  if (it != directory.end()) span.until = it->start_time;
  if (it == directory.begin()) return span;
  const size_t block_index =
      static_cast<size_t>(std::distance(directory.begin(), it)) - 1;
  span.from = directory[block_index].start_time;
  span.block = load_block(canonical, block_index);
  return span;
}

namespace {

/// Index one past the last entry of `block` at or before `time` (0 when
/// every entry is later). For a well-formed index the first entry equals
/// the directory's start_time, so a located block always has one; a
/// corrupt directory whose start_time understates the payload must not
/// walk before begin().
size_t entry_end(const DecodedBlock& block, uint64_t time) {
  const auto& times = block.times;
  return static_cast<size_t>(
      std::upper_bound(times.begin(), times.end(), time) - times.begin());
}

}  // namespace

BitVector IndexedWaveform::value_at(size_t index, uint64_t time) const {
  const BlockSpan span = locate(index, time);
  const size_t end = span.block ? entry_end(*span.block, time) : 0;
  if (end == 0) return BitVector(signals_[index].info.width, 0);
  return span.block->value(end - 1);
}

const BitVector& SignalCursor::seek(uint64_t time) {
  if (time >= from_ && time < until_) return value_;
  if (!span_.block || time < span_.from || time >= span_.until) {
    span_ = source_->locate(index_, time);
  }
  const size_t end = span_.block ? entry_end(*span_.block, time) : 0;
  if (end == 0) {
    value_.reset(source_->signal(index_).width, 0);
    from_ = span_.from;
    until_ = span_.block ? span_.block->times.front() : span_.until;
    return value_;
  }
  const DecodedBlock& block = *span_.block;
  if (block.narrow()) {
    value_.reset(block.width, block.words[end - 1]);
  } else {
    value_ = block.wide[end - 1];
  }
  from_ = block.times[end - 1];
  until_ = end < block.size() ? block.times[end] : span_.until;
  return value_;
}

std::vector<uint64_t> IndexedWaveform::rising_edges(size_t index) const {
  common::LockGuard lock(mutex_);
  const size_t canonical = signals_[index].canonical;
  std::vector<uint64_t> out;
  bool previous = false;
  for (size_t b = 0; b < signals_[canonical].blocks.size(); ++b) {
    auto block = load_block(canonical, b);
    for (size_t i = 0; i < block->size(); ++i) {
      const bool current = block->is_set(i);
      if (current && !previous) out.push_back(block->times[i]);
      previous = current;
    }
  }
  return out;
}

CacheStats IndexedWaveform::cache_stats() const {
  common::LockGuard lock(mutex_);
  return cache_.stats();
}

std::optional<IndexedWaveform::BlockFault> IndexedWaveform::verify_blocks()
    const {
  common::LockGuard lock(mutex_);
  for (size_t s = 0; s < signals_.size(); ++s) {
    if (signals_[s].canonical != s) continue;  // stream verified once
    for (size_t b = 0; b < signals_[s].blocks.size(); ++b) {
      try {
        load_block(s, b);
      } catch (const WvxError& error) {
        return BlockFault{signals_[s].info.hier_name, b,
                          signals_[s].blocks[b].file_offset, error.fault(),
                          error.what()};
      } catch (const std::exception& error) {
        return BlockFault{signals_[s].info.hier_name, b,
                          signals_[s].blocks[b].file_offset, WvxFault::kIo,
                          error.what()};
      }
    }
  }
  return std::nullopt;
}

}  // namespace hgdb::waveform
