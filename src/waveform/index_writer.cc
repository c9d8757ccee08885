#include "waveform/index_writer.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/crc32.h"

namespace hgdb::waveform {

namespace {

void put_u32(WriteBackend& out, uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out.append(bytes, 4);
}

void put_u64(WriteBackend& out, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out.append(bytes, 8);
}

void put_u64_at(char* dest, uint64_t value) {
  for (int i = 0; i < 8; ++i) dest[i] = static_cast<char>(value >> (8 * i));
}

/// Codec auto-selection: a 1-bit stream whose first flushed block is
/// dominated by toggles (>= 90% of entries flip the previous value,
/// starting from the per-block baseline 0) is clock-like — the rle codec
/// collapses it to a few bytes per block. The sample must be large enough
/// to mean something; tiny first blocks keep the file default (delta).
constexpr size_t kAutoCodecMinSample = 16;

bool is_clock_like(const std::vector<common::BitVector>& values) {
  if (values.size() < kAutoCodecMinSample) return false;
  size_t toggles = 0;
  bool previous = false;
  for (const auto& value : values) {
    const bool current = value.to_bool();
    if (current != previous) ++toggles;
    previous = current;
  }
  return toggles * 10 >= values.size() * 9;
}

}  // namespace

IndexWriter::IndexWriter(const std::string& path, IndexWriterOptions options)
    : options_(options) {
  if (options_.block_capacity > kWvxMaxBlockEntries) {
    throw std::invalid_argument(
        "wvx: block capacity " + std::to_string(options_.block_capacity) +
        " exceeds the format maximum of " +
        std::to_string(kWvxMaxBlockEntries) + " entries");
  }
  if (options_.block_capacity == 0) options_.block_capacity = 1;
  // Throws WvxError, which callers catching runtime_error on open
  // failures still see (WvxError derives from it).
  out_ = std::make_unique<WriteBackend>(path);
  uint32_t flags = kWvxFlagDeltaCodec;
  if (options_.block_checksums) flags |= kWvxFlagBlockChecksums;
  // Header with a placeholder footer offset; patched in on_finish().
  put_u32(*out_, kWvxMagic);
  put_u32(*out_, kWvxVersion);
  put_u32(*out_, flags);
  put_u64(*out_, 0);  // footer_offset
  put_u64(*out_, 0);  // max_time
  put_u64(*out_, 0);  // signal_count
}

IndexWriter::~IndexWriter() {
  // Abandoned (exception unwound before on_finish): leave the truncated
  // file; readers reject it via the zero footer offset.
}

void IndexWriter::on_signal(size_t id, const SignalInfo& info) {
  if (id != signals_.size()) {
    throw std::runtime_error("wvx: non-contiguous signal id");
  }
  IndexedSignal signal;
  signal.info = info;
  signal.value_bytes = wvx_value_bytes(info.width);
  signal.canonical = id;
  // 1-bit codecs resolve lazily at the first flush (the choice needs
  // data); everything else uses the file default from day one.
  if (info.width != 1) signal.codec = &delta_codec();
  signals_.push_back(std::move(signal));
  Pending pending;
  pending.capacity = static_cast<uint32_t>(
      std::min<uint64_t>(options_.block_capacity,
                         kWvxMaxBlockValueBytes /
                             wvx_block_value_bytes(1, info.width)));
  pending_.push_back(std::move(pending));
}

void IndexWriter::on_alias(size_t id, size_t canonical_id) {
  if (id >= signals_.size() || canonical_id >= id) {
    throw std::runtime_error("wvx: bad alias declaration");
  }
  if (signals_[id].info.width != signals_[canonical_id].info.width) {
    // Not a pure alias: sharing a stream would serve wrong-width values.
    // Producers (the VCD parser) don't group these, but guard anyway.
    throw std::runtime_error("wvx: alias width mismatch for '" +
                             signals_[id].info.hier_name + "'");
  }
  // One change stream for the whole group: the alias points at the
  // canonical signal and owns no blocks.
  signals_[id].canonical = signals_[canonical_id].canonical;
}

void IndexWriter::on_change(size_t id, uint64_t time,
                            const common::BitVector& value) {
  if (id >= signals_.size()) throw std::runtime_error("wvx: bad signal id");
  auto& pending = pending_[id];
  // Same-timestamp glitches (0->1->0 within one #time) are kept verbatim:
  // upper_bound seeks pick the last entry at a time, matching VcdTrace
  // exactly, and rising_edges must see the intermediate values so both
  // backends report identical edge grids.
  pending.times.push_back(time);
  pending.values.push_back(value);
  if (pending.times.size() >= pending.capacity) flush_block(id);
}

void IndexWriter::flush_block(size_t id) {
  auto& pending = pending_[id];
  if (pending.times.empty()) return;
  auto& signal = signals_[id];
  if (signal.codec == nullptr) {
    // First flush of a 1-bit stream: decide from this block and stick
    // with it (the directory records one codec per stream). The decision
    // is a pure function of the change data, so re-converting the same
    // dump, sharded or not, picks identically.
    signal.codec =
        is_clock_like(pending.values) ? &rle_codec() : &delta_codec();
  }
  BlockInfo block;
  block.start_time = pending.times.front();
  block.end_time = pending.times.back();
  block.file_offset = out_->offset();
  block.count = static_cast<uint32_t>(pending.times.size());
  // Serialize through a buffer so the checksum covers exactly the bytes
  // that land on disk.
  buffer_.clear();
  signal.codec->encode(pending.times.data(), pending.values.data(),
                       pending.times.size(), signal.info.width, buffer_);
  block.payload_bytes = static_cast<uint32_t>(buffer_.size());
  if (options_.block_checksums) {
    block.crc32 = common::crc32(buffer_.data(), buffer_.size());
  }
  out_->append(buffer_.data(), buffer_.size());
  signal.blocks.push_back(block);
  pending.times.clear();
  pending.values.clear();
}

void IndexWriter::on_finish(uint64_t max_time) {
  for (size_t id = 0; id < signals_.size(); ++id) flush_block(id);
  const uint64_t footer_offset = out_->offset();
  for (size_t id = 0; id < signals_.size(); ++id) {
    auto& signal = signals_[id];
    put_u32(*out_, static_cast<uint32_t>(signal.info.hier_name.size()));
    out_->append(signal.info.hier_name.data(), signal.info.hier_name.size());
    put_u32(*out_, signal.info.width);
    put_u32(*out_, static_cast<uint32_t>(signal.canonical));
    if (signal.canonical != id) continue;  // aliases carry no directory
    // A stream that never changed had no flush to decide its codec.
    if (signal.codec == nullptr) signal.codec = &delta_codec();
    const char id_byte = static_cast<char>(codec_id(*signal.codec));
    out_->append(&id_byte, 1);
    put_u64(*out_, signal.blocks.size());
    for (const auto& block : signal.blocks) {
      put_u64(*out_, block.start_time);
      put_u64(*out_, block.end_time);
      put_u64(*out_, block.file_offset);
      put_u32(*out_, block.count);
      put_u32(*out_, block.payload_bytes);
      if (options_.block_checksums) put_u32(*out_, block.crc32);
    }
  }
  // Patch the header (footer offset lives after magic+version+flags) in
  // one positional write; the backend never moves its append cursor.
  char patch[24];
  put_u64_at(patch, footer_offset);
  put_u64_at(patch + 8, max_time);
  put_u64_at(patch + 16, signals_.size());
  out_->write_at(12, patch, sizeof(patch));
  out_->finish();  // throws WvxError(kIo) if anything failed to land
}

size_t convert_vcd_to_index(const std::string& vcd_path,
                            const std::string& index_path,
                            IndexWriterOptions options) {
  IndexWriter writer(index_path, options);
  VcdStreamParser::parse_file(vcd_path, writer);
  return writer.signal_count();
}

}  // namespace hgdb::waveform
