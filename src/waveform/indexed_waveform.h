#ifndef HGDB_WAVEFORM_INDEXED_WAVEFORM_H
#define HGDB_WAVEFORM_INDEXED_WAVEFORM_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checked_mutex.h"
#include "obs/metrics.h"
#include "waveform/block_cache.h"
#include "waveform/block_codec.h"
#include "waveform/index_format.h"
#include "waveform/storage_backend.h"
#include "waveform/waveform_source.h"

namespace hgdb::waveform {

/// WaveformSource over a .wvx index (v1-v4). `path` may name either a
/// single-file index or a v4 shard manifest — the constructor sniffs the
/// magic, so callers never distinguish the two. Opening reads only the
/// header and the footer of every file involved (signal table + block
/// directory); change payloads stream in on demand through an LRU block
/// cache, read with pread through one StorageBackend per shard and
/// decoded by each signal's BlockCodec. A cycle seek is O(log blocks + log
/// block_capacity).
///
/// Sharded opens keep ONE BlockCache for the whole dump: `cache_blocks`
/// is a global residency budget shared by every shard, not a per-shard
/// allowance, so memory stays bounded no matter how many shard files the
/// manifest names. Cache keys are global canonical signal indexes, which
/// are unique across shards by construction.
///
/// v3+ alias dedup: signals declared as id-code aliases share one change
/// stream on disk and one set of cache entries in memory — queries on any
/// aliased name are served through the canonical signal's directory.
///
/// Thread-safe for concurrent queries (one mutex around the cache + read
/// scratch), as WaveformSource promises; kept pending a TSan proof that
/// only one thread at a time reads it (ROADMAP item 1(c)).
class IndexedWaveform final : public WaveformSource {
 public:
  static constexpr size_t kDefaultCacheBlocks = waveform::kDefaultCacheBlocks;

  /// Throws WvxError (a std::runtime_error) on missing file, bad
  /// magic/version, a truncated (unfinished) index, or corrupt metadata.
  explicit IndexedWaveform(const std::string& path,
                           size_t cache_blocks = kDefaultCacheBlocks);
  ~IndexedWaveform() override;

  // -- WaveformSource -----------------------------------------------------------
  [[nodiscard]] size_t signal_count() const override { return signals_.size(); }
  [[nodiscard]] const SignalInfo& signal(size_t index) const override {
    return signals_[index].info;
  }
  [[nodiscard]] std::optional<size_t> signal_index(
      const std::string& hier_name) const override;
  [[nodiscard]] size_t canonical_index(size_t index) const override {
    return signals_[index].canonical;
  }
  [[nodiscard]] uint64_t max_time() const override { return max_time_; }
  [[nodiscard]] common::BitVector value_at(size_t index,
                                           uint64_t time) const override;
  [[nodiscard]] std::vector<uint64_t> rising_edges(size_t index) const override;

  // -- introspection ------------------------------------------------------------
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Directory of the signal's change stream (the canonical signal's, for
  /// aliases).
  [[nodiscard]] const std::vector<BlockInfo>& blocks(size_t index) const {
    return signals_[signals_[index].canonical].blocks;
  }
  [[nodiscard]] CacheStats cache_stats() const;
  [[nodiscard]] size_t cache_capacity() const { return cache_.capacity(); }
  [[nodiscard]] uint64_t total_blocks() const { return total_blocks_; }
  /// On-disk format version of the opened file (1..4; the max across
  /// shards for a manifest open).
  [[nodiscard]] uint32_t version() const { return version_; }
  /// File-default block encoding ("fixed" / "delta"); v4 signals may
  /// override individually — see signal_codec_name().
  [[nodiscard]] const char* codec_name() const { return codec_->name(); }
  /// Block encoding of one signal's stream ("fixed" / "delta" / "rle").
  [[nodiscard]] const char* signal_codec_name(size_t index) const {
    return signals_[signals_[index].canonical].codec->name();
  }
  /// Signals that are aliases of another signal's change stream.
  [[nodiscard]] size_t alias_count() const { return alias_count_; }
  /// True when every opened file carries per-block CRC32s (v2+ flag).
  [[nodiscard]] bool has_block_checksums() const { return has_checksums_; }
  /// True when `path` named a shard manifest rather than a single file.
  [[nodiscard]] bool sharded() const { return sharded_; }
  /// Shard files backing this dump (just `path` for single-file opens).
  [[nodiscard]] const std::vector<std::string>& shard_paths() const {
    return shard_paths_;
  }
  [[nodiscard]] size_t shard_count() const { return shard_paths_.size(); }

  /// First unreadable/corrupt block, if any. Loads every block once
  /// (through the cache), verifying checksums when present.
  struct BlockFault {
    std::string signal;
    size_t block_index = 0;
    uint64_t file_offset = 0;
    WvxFault fault = WvxFault::kIo;
    std::string message;
  };
  [[nodiscard]] std::optional<BlockFault> verify_blocks() const;

 private:
  BlockCache::BlockPtr load_block(size_t signal_index, size_t block_index) const
      HGDB_REQUIRES(mutex_);
  /// Parses one shard's header + footer, appending its signals to the
  /// global table (canonical indexes rebased by the current table size).
  /// Constructor-only; takes the (uncontended) lock's annotation so the
  /// thread-safety analysis covers the guarded members it fills in.
  void load_shard(uint32_t shard_index) HGDB_REQUIRES(mutex_);

  /// Global-registry mirrors of the per-instance CacheStats, resolved
  /// once at open. Readers have no natural owner with a registry, so the
  /// `waveform.*` metrics aggregate across every open index in the
  /// process; per-instance numbers stay available via cache_stats().
  /// hits/misses/evictions are monotonic counters and add cleanly; the
  /// resident gauge aggregates via per-instance deltas (resident_reported_)
  /// so concurrent readers sharing the registry never clobber each other.
  struct ObsMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* resident = nullptr;
    obs::Histogram* load_ns = nullptr;  ///< miss-path read+decode latency
  };

  std::string path_;
  std::vector<IndexedSignal> signals_;
  std::map<std::string, size_t> by_name_;
  std::vector<std::string> shard_paths_;
  /// Per shard: does the file carry per-block CRC32s? (Shards are written
  /// together, but a reader must not trust that they agree.)
  std::vector<bool> shard_checksums_;
  uint64_t max_time_ = 0;
  uint64_t total_blocks_ = 0;
  uint32_t version_ = 0;
  size_t alias_count_ = 0;
  bool has_checksums_ = true;
  bool sharded_ = false;
  const BlockCodec* codec_ = nullptr;

  mutable common::WaveformMutex mutex_{"waveform::reader"};
  /// One StorageBackend per shard file (exactly one for single-file
  /// opens), indexed by IndexedSignal::shard.
  std::vector<std::unique_ptr<StorageBackend>> shards_
      HGDB_GUARDED_BY(mutex_);
  /// cache-miss read landing zone
  mutable std::string scratch_ HGDB_GUARDED_BY(mutex_);
  mutable BlockCache cache_ HGDB_GUARDED_BY(mutex_);
  /// Last residency this instance reported into the global gauge; the
  /// gauge moves by deltas so multiple open readers aggregate instead of
  /// overwriting one another (the destructor settles the balance).
  mutable int64_t resident_reported_ HGDB_GUARDED_BY(mutex_) = 0;
  std::unique_ptr<ObsMetrics> obs_;
};

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_INDEXED_WAVEFORM_H
