#include "waveform/sharded_writer.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace hgdb::waveform {

namespace {

/// Top-level scope of a hierarchical name ("top.u0.clk" -> "top"); the
/// empty view for unscoped names, which form a scope of their own.
std::string_view top_scope(const std::string& hier_name) {
  const size_t dot = hier_name.find('.');
  if (dot == std::string::npos) return {};
  return std::string_view(hier_name).substr(0, dot);
}

}  // namespace

ShardedIndexWriter::ShardedIndexWriter(const std::string& path,
                                       const ShardedConvertOptions& options)
    : path_(path), options_(options) {}

void ShardedIndexWriter::on_signal(size_t id, const SignalInfo& info) {
  if (id != defs_.size()) {
    throw std::runtime_error("wvx: non-contiguous signal id");
  }
  defs_.push_back(Def{info, false, 0});
}

void ShardedIndexWriter::on_alias(size_t id, size_t canonical_id) {
  if (id >= defs_.size() || canonical_id >= id) {
    throw std::runtime_error("wvx: bad alias declaration");
  }
  defs_[id].is_alias = true;
  defs_[id].canonical = canonical_id;
}

void ShardedIndexWriter::on_definitions_done() {
  // Scope -> shard: first-appearance order over *canonical* declarations,
  // round-robin over min(#scopes, kMaxShards) shards. Declaration order
  // is a property of the dump, so the layout — and therefore every
  // shard's byte content — is reproducible.
  std::map<std::string_view, uint32_t> scope_shard;
  std::vector<std::string_view> scopes;
  for (const auto& def : defs_) {
    if (def.is_alias) continue;
    const auto scope = top_scope(def.info.hier_name);
    if (scope_shard.emplace(scope, 0).second) scopes.push_back(scope);
  }
  const auto shard_count = static_cast<uint32_t>(
      std::min<size_t>(std::max<size_t>(scopes.size(), 1), kMaxShards));
  for (uint32_t i = 0; i < scopes.size(); ++i) {
    scope_shard[scopes[i]] = i % shard_count;
  }

  const std::string stem =
      is_wvx_path(path_) ? path_.substr(0, path_.size() - 4) : path_;
  const size_t slash = stem.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? stem : stem.substr(slash + 1);
  writers_.reserve(shard_count);
  for (uint32_t k = 0; k < shard_count; ++k) {
    const std::string suffix = ".shard" + std::to_string(k) + ".wvx";
    shard_names_.push_back(base + suffix);
    writers_.push_back(
        std::make_unique<IndexWriter>(stem + suffix, options_.index));
  }

  // Replay the buffered definitions into the shard writers: locals are
  // dense per shard in declaration order, aliases land on their canonical
  // signal's shard (a change stream never spans files).
  std::vector<uint32_t> next_local(shard_count, 0);
  slots_.resize(defs_.size());
  for (size_t id = 0; id < defs_.size(); ++id) {
    const auto& def = defs_[id];
    const uint32_t shard = def.is_alias
                               ? slots_[def.canonical].shard
                               : scope_shard[top_scope(def.info.hier_name)];
    const uint32_t local = next_local[shard]++;
    slots_[id] = Slot{shard, local};
    writers_[shard]->on_signal(local, def.info);
    if (def.is_alias) {
      writers_[shard]->on_alias(local, slots_[def.canonical].local);
    }
  }
}

void ShardedIndexWriter::on_change(size_t id, uint64_t time,
                                   const common::BitVector& value) {
  if (id >= slots_.size()) throw std::runtime_error("wvx: bad signal id");
  const Slot slot = slots_[id];
  writers_[slot.shard]->on_change(slot.local, time, value);
}

void ShardedIndexWriter::on_finish(uint64_t max_time) {
  // Finalize shards, then write the manifest last — a crash mid-finalize
  // leaves no manifest pointing at complete-looking shards.
  for (auto& writer : writers_) writer->on_finish(max_time);
  Manifest manifest;
  manifest.max_time = max_time;
  manifest.signal_count = defs_.size();
  manifest.shards = shard_names_;
  write_manifest(path_, manifest);
  finished_ = true;
}

ShardedConvertResult convert_vcd_to_sharded_index(
    const std::string& vcd_path, const std::string& index_path,
    const ShardedConvertOptions& options) {
  if (!options.shard_by_scope) {
    IndexWriter writer(index_path, options.index);
    VcdStreamParser::parse_file(vcd_path, writer);
    return ShardedConvertResult{writer.signal_count(), 0, 1};
  }
  ShardedIndexWriter writer(index_path, options);
  VcdStreamParser::parse_file(vcd_path, writer);
  return ShardedConvertResult{writer.signal_count(), writer.shard_count(), 1};
}

}  // namespace hgdb::waveform
