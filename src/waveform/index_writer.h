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
/// It writes one format: v4 with the varint/delta codec as the file
/// default, one change stream per id-code alias group, and per-signal
/// codec auto-selection (clock-like 1-bit streams get the rle toggle
/// codec). Older versions are read-only (IndexedWaveform opens v1-v4).
/// Blocks are serialized through the BlockCodec seam, so the writer never
/// touches entry layout itself.
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

  [[nodiscard]] size_t signal_count() const { return signals_.size(); }
  [[nodiscard]] const IndexWriterOptions& options() const { return options_; }

 private:
  struct Pending {
    /// Entries per block for this signal: block_capacity, lowered for
    /// wide signals so a block never decodes past kWvxMaxBlockValueBytes.
    uint32_t capacity = 1;
    std::vector<uint64_t> times;
    std::vector<common::BitVector> values;
  };

  void flush_block(size_t id);

  IndexWriterOptions options_;
  /// Mapped output file behind the block/directory writes.
  std::unique_ptr<WriteBackend> out_;
  std::string buffer_;  ///< scratch for block serialization + checksum
  std::vector<IndexedSignal> signals_;
  std::vector<Pending> pending_;
};

/// Streams `vcd_path` through a VcdStreamParser into an IndexWriter.
/// Returns the number of indexed signals.
size_t convert_vcd_to_index(const std::string& vcd_path,
                            const std::string& index_path,
                            IndexWriterOptions options = {});

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_INDEX_WRITER_H
