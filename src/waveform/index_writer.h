#ifndef HGDB_WAVEFORM_INDEX_WRITER_H
#define HGDB_WAVEFORM_INDEX_WRITER_H

#include <memory>
#include <string>
#include <vector>

#include "waveform/block_codec.h"
#include "waveform/index_format.h"
#include "waveform/storage_backend.h"
#include "waveform/vcd_stream_parser.h"

namespace hgdb::waveform {

/// Builds a .wvx index file from an ordered trace-event stream (IndexSink).
/// Two producers feed it: a VcdStreamParser (VCD -> index conversion, which
/// never materializes the trace — resident state is one partially-filled
/// block per signal plus the growing, small directory) and sim::VcdWriter's
/// direct dump path (simulator -> index, no intermediate VCD text).
///
/// The on-disk version and block encoding are options: v4 (default) with
/// the varint/delta codec, alias dedup and per-signal codec auto-selection
/// (clock-like 1-bit streams get the rle toggle codec), or v3 / v2 for
/// compatibility with older readers. Blocks are serialized through the
/// BlockCodec seam, so the writer never touches entry layout itself.
class IndexWriter final : public VcdEventSink {
 public:
  explicit IndexWriter(const std::string& path, IndexWriterOptions options = {});
  ~IndexWriter() override;

  IndexWriter(const IndexWriter&) = delete;
  IndexWriter& operator=(const IndexWriter&) = delete;

  // -- IndexSink / VcdEventSink -------------------------------------------------
  void on_signal(size_t id, const SignalInfo& info) override;
  void on_alias(size_t id, size_t canonical_id) override;
  void on_change(size_t id, uint64_t time,
                 const common::BitVector& value) override;
  void on_finish(uint64_t max_time) override;

  /// True once on_finish() wrote the footer and closed the file.
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] size_t signal_count() const { return signals_.size(); }
  [[nodiscard]] uint64_t blocks_written() const { return blocks_written_; }
  /// Signals stored as references into another signal's change stream.
  [[nodiscard]] size_t aliases_deduped() const { return aliases_deduped_; }
  [[nodiscard]] const IndexWriterOptions& options() const { return options_; }

 private:
  struct Pending {
    std::vector<uint64_t> times;
    std::vector<common::BitVector> values;
  };

  void flush_block(size_t id);

  std::string path_;
  IndexWriterOptions options_;
  const BlockCodec* codec_;
  /// Mapped output file behind the block/directory writes.
  std::unique_ptr<WriteBackend> out_;
  std::string buffer_;  ///< scratch for block serialization + checksum
  std::vector<IndexedSignal> signals_;
  std::vector<Pending> pending_;
  /// v2 / no-dedup mode: per canonical id, the alias ids whose streams the
  /// writer fans the changes out to (the legacy duplicate layout).
  std::vector<std::vector<size_t>> fanout_;
  uint64_t blocks_written_ = 0;
  size_t aliases_deduped_ = 0;
  bool finished_ = false;
};

/// Streams `vcd_path` through a VcdStreamParser into an IndexWriter.
/// Returns the number of indexed signals.
size_t convert_vcd_to_index(const std::string& vcd_path,
                            const std::string& index_path,
                            IndexWriterOptions options = {});

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_INDEX_WRITER_H
