#ifndef HGDB_WAVEFORM_BLOCK_CACHE_H
#define HGDB_WAVEFORM_BLOCK_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>

#include "waveform/block_codec.h"

namespace hgdb::waveform {

/// Cache effectiveness counters, split by lifetime semantics:
///
///  - *monotonic* (never reset, survive clear()): `hits`, `misses`,
///    `evictions` count lifetime events; `peak_resident` is the lifetime
///    residency high-water mark (the bench's residency proxy: it must
///    never exceed the configured capacity). These feed monotonic
///    counters in the obs::MetricsRegistry.
///  - *instantaneous* (snapshot of now): `resident` is the current block
///    count; clear() resets it to 0. It maps to a registry gauge.
///
/// clear() drops residency without touching the monotonic fields —
/// dropping N blocks in a reset is deliberately *not* counted as N
/// evictions, because `evictions` measures capacity pressure, which a
/// reset is not.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t resident = 0;
  size_t peak_resident = 0;
};

/// LRU cache of decoded change blocks, keyed by (signal, block) index.
/// This is what bounds the resident set of an IndexedWaveform: only the
/// `capacity` most recently touched blocks stay decoded, everything else
/// lives on disk until re-read.
class BlockCache {
 public:
  using Key = std::pair<uint32_t, uint32_t>;  // (signal index, block index)
  using Block = DecodedBlock;
  using BlockPtr = std::shared_ptr<const Block>;

  explicit BlockCache(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Returns the cached block (bumping it to most-recent) or nullptr.
  BlockPtr lookup(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// Inserts a freshly decoded block, evicting least-recently-used entries
  /// beyond capacity.
  void insert(const Key& key, BlockPtr block) {
    auto it = index_.find(key);
    if (it != index_.end()) {  // raced decode: keep the existing entry fresh
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(block));
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
    stats_.resident = lru_.size();
    if (stats_.resident > stats_.peak_resident) {
      stats_.peak_resident = stats_.resident;
    }
  }

  /// Drops every resident block. Lifetime counters (hits/misses/
  /// evictions/peak_resident) are left intact — only the instantaneous
  /// `resident` resets; see CacheStats for the monotonic/instantaneous
  /// split.
  void clear() {
    lru_.clear();
    index_.clear();
    stats_.resident = 0;
  }

  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t resident() const { return lru_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  size_t capacity_;
  std::list<std::pair<Key, BlockPtr>> lru_;
  std::map<Key, std::list<std::pair<Key, BlockPtr>>::iterator> index_;
  CacheStats stats_;
};

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_BLOCK_CACHE_H
