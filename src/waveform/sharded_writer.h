#ifndef HGDB_WAVEFORM_SHARDED_WRITER_H
#define HGDB_WAVEFORM_SHARDED_WRITER_H

#include <memory>
#include <string>
#include <vector>

#include "waveform/index_writer.h"
#include "waveform/manifest.h"
#include "waveform/vcd_stream_parser.h"

namespace hgdb::waveform {

/// Knobs for the sharded VCD -> .wvx conversion.
struct ShardedConvertOptions {
  /// Per-shard writer options (version, codec, block capacity, ...).
  IndexWriterOptions index;
  /// true: split the dump into per-scope shard files behind a manifest.
  /// false: write one single-file index (the classic layout).
  bool shard_by_scope = true;
};

struct ShardedConvertResult {
  size_t signals = 0;
  uint32_t shards = 0;  ///< shard files written (0 for a single-file index)
  /// Always 1: conversion runs on the calling thread. Kept so existing
  /// readers of the result (benchmark reports) keep compiling.
  uint32_t jobs = 1;
};

/// VcdEventSink that splits a dump into per-scope shard files plus a
/// manifest at `path`. Shard k is `<stem>.shard<k>.wvx`, a complete
/// standalone index holding every signal whose *canonical* declaration's
/// top-level scope hashed to it (aliases always follow their canonical
/// signal, so a change stream never spans shards).
///
/// The writer is a plain router on the calling thread: each change goes
/// to its shard's IndexWriter. Shard assignment depends only on
/// declaration order, so the output bytes are a pure function of the dump.
class ShardedIndexWriter final : public VcdEventSink {
 public:
  ShardedIndexWriter(const std::string& path,
                     const ShardedConvertOptions& options);

  ShardedIndexWriter(const ShardedIndexWriter&) = delete;
  ShardedIndexWriter& operator=(const ShardedIndexWriter&) = delete;

  // -- VcdEventSink -------------------------------------------------------------
  void on_signal(size_t id, const SignalInfo& info) override;
  void on_alias(size_t id, size_t canonical_id) override;
  void on_definitions_done() override;
  void on_change(size_t id, uint64_t time,
                 const common::BitVector& value) override;
  void on_finish(uint64_t max_time) override;

  [[nodiscard]] size_t signal_count() const { return slots_.size(); }
  [[nodiscard]] uint32_t shard_count() const {
    return static_cast<uint32_t>(writers_.size());
  }
  [[nodiscard]] bool finished() const { return finished_; }

  /// Scopes get shards round-robin in first-appearance order, capped so a
  /// pathological scope count doesn't explode into thousands of files.
  static constexpr uint32_t kMaxShards = 64;

 private:
  struct Def {
    SignalInfo info;
    bool is_alias = false;
    size_t canonical = 0;  ///< global id, valid when is_alias
  };

  /// Where a global signal id landed: which shard, which local id.
  struct Slot {
    uint32_t shard = 0;
    uint32_t local = 0;
  };

  std::string path_;
  ShardedConvertOptions options_;
  std::vector<Def> defs_;
  std::vector<Slot> slots_;
  std::vector<std::string> shard_names_;  ///< manifest-relative basenames
  std::vector<std::unique_ptr<IndexWriter>> writers_;
  bool finished_ = false;
};

/// Streams `vcd_path` into a sharded (or single-file) index at
/// `index_path`. A parse failure propagates before the manifest is
/// written, so a failed convert leaves no manifest behind.
ShardedConvertResult convert_vcd_to_sharded_index(
    const std::string& vcd_path, const std::string& index_path,
    const ShardedConvertOptions& options = {});

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_SHARDED_WRITER_H
