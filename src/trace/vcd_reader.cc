#include "trace/vcd_reader.h"

#include <algorithm>
#include <stdexcept>

#include "waveform/indexed_waveform.h"
#include "waveform/vcd_stream_parser.h"

namespace hgdb::trace {

using common::BitVector;

std::optional<size_t> VcdTrace::var_index(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

BitVector VcdTrace::value_at(size_t index, uint64_t time) const {
  const auto& list = changes_[canonical_[index]];
  // Last change with change.time <= time.
  auto it = std::upper_bound(
      list.begin(), list.end(), time,
      [](uint64_t t, const auto& change) { return t < change.first; });
  if (it == list.begin()) return BitVector(vars_[index].width, 0);
  return std::prev(it)->second;
}

std::vector<uint64_t> VcdTrace::rising_edges(size_t index) const {
  std::vector<uint64_t> out;
  bool previous = false;
  for (const auto& [time, value] : changes_[canonical_[index]]) {
    const bool current = value.to_bool();
    if (current && !previous) out.push_back(time);
    previous = current;
  }
  return out;
}

size_t VcdTrace::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& list : changes_) {
    bytes += list.capacity() * sizeof(list[0]);
    for (const auto& [time, value] : list) {
      bytes += value.num_words() * sizeof(uint64_t);
    }
  }
  return bytes;
}

/// VcdStreamParser sink that materializes the change lists.
class VcdTraceBuilder final : public waveform::VcdEventSink {
 public:
  void on_signal(size_t id, const waveform::SignalInfo& info) override {
    if (id != trace_.vars_.size()) {
      throw std::runtime_error("vcd: non-contiguous signal id");
    }
    // Aliased re-declarations of one name keep the first index.
    trace_.by_name_.emplace(info.hier_name, id);
    trace_.vars_.push_back(info);
    trace_.changes_.emplace_back();
    trace_.canonical_.push_back(id);
  }

  void on_alias(size_t id, size_t canonical_id) override {
    // The alias serves the canonical signal's change list; its own stays
    // empty (one stream's memory for the whole group).
    trace_.canonical_[id] = trace_.canonical_[canonical_id];
    ++trace_.alias_count_;
  }

  void on_change(size_t id, uint64_t time, const BitVector& value) override {
    trace_.changes_[id].emplace_back(time, value);
  }

  void on_finish(uint64_t max_time) override { trace_.max_time_ = max_time; }

  VcdTrace take() { return std::move(trace_); }

 private:
  VcdTrace trace_;
};

VcdTrace parse_vcd(std::string_view text) {
  VcdTraceBuilder builder;
  waveform::VcdStreamParser::parse_text(text, builder);
  return builder.take();
}

VcdTrace parse_vcd_file(const std::string& path) {
  VcdTraceBuilder builder;
  waveform::VcdStreamParser::parse_file(path, builder);
  return builder.take();
}

std::shared_ptr<waveform::WaveformSource> open_waveform(const std::string& path,
                                                        size_t cache_blocks) {
  if (waveform::is_wvx_path(path)) {
    return std::make_shared<waveform::IndexedWaveform>(path, cache_blocks);
  }
  return std::make_shared<VcdTrace>(parse_vcd_file(path));
}

}  // namespace hgdb::trace
