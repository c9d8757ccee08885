// EXP-W — Waveform storage engine: in-memory trace vs. the indexed store
// (the scaling step the replay path needs for production-size dumps; cf.
// Goeders & Wilton's trace-based HLS debugging, where the waveform store
// is the bottleneck).
//
// The harness synthesizes a multi-scope VCD of configurable size (with
// id-code aliases, like real dumps), then compares:
//   in_memory     trace::VcdTrace — full parse, O(trace) resident
//   indexed v4    delta codec + alias dedup, RLE auto-selected for
//                 clock-likes (the one format IndexWriter writes)
//   sharded v4    per-scope shard files behind a manifest
//
// Every store answers the same random cycle seeks and must agree with
// the in-memory trace.
//
// Expected shape: indexed open time orders of magnitude below the full
// parse; the clock's RLE stream >= 5x smaller than the delta encoding of
// the same blocks; peak resident blocks never above the LRU capacity.
// Exit is nonzero on any parity mismatch, LRU bound violation, or failed
// absolute gate, so the bench doubles as a stress check.
//
// "open_ms" is the median of kOpenReps individually timed header+footer
// opens of the v4 file, "parse_ms" the median of kParseReps full parses
// of the VCD, the two taken interleaved: one open is tens of
// microseconds, so a mean over a few opens (or one parse against them)
// moves with host jitter.
//
// "block_load" reports the cold block-load cost per codec, split into the
// stages of the reader's cache-miss path: pread, CRC-32 and decode (us
// per block), plus decode ns per entry. Reported, not gated.
//
// Output: one JSON object on stdout (and to $HGDB_BENCH_JSON when set).
// The "gates" object carries the ratios tools/check_bench_regression.py
// tracks against bench/baselines/BENCH_waveform.json; "config" records
// the hardware threads and build type the numbers were measured with.
// Environment: HGDB_WVX_SIGNALS (default 40), HGDB_WVX_ALIASES (10),
//              HGDB_WVX_CYCLES (20000), HGDB_WVX_SEEKS (2000),
//              HGDB_WVX_CACHE (32, in blocks), HGDB_WVX_BLOCK_CAP (256),
//              HGDB_WVX_SCOPES (4), HGDB_BENCH_JSON (optional output path).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "trace/vcd_reader.h"
#include "waveform/block_codec.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "waveform/sharded_writer.h"

#ifndef HGDB_BUILD_TYPE
#define HGDB_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hgdb;
using Clock = std::chrono::steady_clock;

uint64_t env_or(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Median of `samples` (reorders them).
double median(std::vector<double>& samples) {
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<uint64_t>(in.tellg());
}

/// Deterministic xorshift so runs are reproducible.
struct Rng {
  uint64_t state;
  uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Streams a synthetic VCD to disk: one clock plus `signals` data signals
/// of mixed widths spread round-robin over `scopes` top-level modules
/// (so the sharded converter has real scope structure to split on),
/// `aliases` re-declared names sharing earlier id codes in a trailing
/// `mirror` scope (cross-scope aliasing, like a netlist's port hookups),
/// `cycles` clock periods, ~25% change probability per signal per cycle.
/// Returns the number of value changes written (excluding clock).
uint64_t write_synthetic_vcd(const std::string& path, uint64_t signals,
                             uint64_t aliases, uint64_t cycles,
                             uint64_t scopes) {
  std::ofstream out(path, std::ios::trunc);
  const uint32_t widths[] = {1, 8, 32, 80};
  out << "$timescale 1ns $end\n";
  for (uint64_t s = 0; s < scopes; ++s) {
    out << "$scope module mod" << s << " $end\n";
    if (s == 0) out << "$var wire 1 ck clock $end\n";
    for (uint64_t i = s; i < signals; i += scopes) {
      out << "$var wire " << widths[i % 4] << " c" << i << " sig" << i
          << " [" << widths[i % 4] - 1 << ":0] $end\n";
    }
    out << "$upscope $end\n";
  }
  if (aliases > 0) {
    out << "$scope module mirror $end\n";
    for (uint64_t a = 0; a < aliases; ++a) {
      const uint64_t target = a % signals;
      out << "$var wire " << widths[target % 4] << " c" << target << " alias"
          << a << " [" << widths[target % 4] - 1 << ":0] $end\n";
    }
    out << "$upscope $end\n";
  }
  out << "$enddefinitions $end\n";

  Rng rng{0x9e3779b97f4a7c15ull};
  uint64_t changes = 0;
  out << "#0\n$dumpvars\n0ck\n";
  for (uint64_t i = 0; i < signals; ++i) out << "b0 c" << i << "\n";
  out << "$end\n";
  for (uint64_t t = 0; t < cycles; ++t) {
    out << "#" << (2 * t + 1) << "\n1ck\n";
    for (uint64_t i = 0; i < signals; ++i) {
      if ((rng.next() & 3) != 0) continue;  // ~25% change rate
      const uint32_t width = widths[i % 4];
      const uint64_t value = rng.next();
      out << "b";
      // Binary, MSB first, enough digits to look like real traffic.
      const uint32_t digits = width < 64 ? width : 64;
      for (uint32_t bit = digits; bit-- > 0;) out << ((value >> bit) & 1);
      out << " c" << i << "\n";
      ++changes;
    }
    out << "#" << (2 * t + 2) << "\n0ck\n";
  }
  return changes;
}

/// Answers `queries` on `source`, timing the loop and checksumming.
template <typename Source>
double run_seeks(const Source& source,
                 const std::vector<std::pair<size_t, uint64_t>>& queries,
                 uint64_t* checksum) {
  const auto t0 = Clock::now();
  uint64_t sum = 0;
  for (const auto& [signal, time] : queries) {
    sum += source.value_at(signal, time).to_uint64();
  }
  *checksum = sum;
  return ms_since(t0);
}

/// Cold block-load cost of one codec, summed over every block loaded.
struct LoadCost {
  uint64_t blocks = 0;
  uint64_t entries = 0;
  double read_ns = 0;
  double crc_ns = 0;
  double decode_ns = 0;
};

double ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

/// The block codec of signal `s`'s stream in `index`.
const waveform::BlockCodec& codec_of(const waveform::IndexedWaveform& index,
                                     size_t s) {
  const std::string_view name = index.signal_codec_name(s);
  return name == "rle"     ? waveform::rle_codec()
         : name == "delta" ? waveform::delta_codec()
                           : waveform::fixed_codec();
}

/// Loads every block of `index` `passes` times the way the reader's
/// cache-miss path does — pread into a scratch buffer, CRC-32 the
/// payload, decode into a fresh block — timing each stage per codec.
/// Returns the number of blocks whose CRC disagreed with the directory.
uint64_t measure_block_loads(const waveform::IndexedWaveform& index,
                             int passes,
                             std::map<std::string, LoadCost>& costs) {
  const waveform::StorageBackend storage(index.path());
  std::string scratch;
  uint64_t crc_mismatches = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t s = 0; s < index.signal_count(); ++s) {
      if (index.canonical_index(s) != s) continue;
      const waveform::BlockCodec& codec = codec_of(index, s);
      LoadCost& cost = costs[codec.name()];
      for (const auto& info : index.blocks(s)) {
        const auto t0 = Clock::now();
        storage.read(info.file_offset, info.payload_bytes, scratch);
        const auto t1 = Clock::now();
        const uint32_t crc = common::crc32(scratch.data(), info.payload_bytes);
        const auto t2 = Clock::now();
        if (index.has_block_checksums() && crc != info.crc32) ++crc_mismatches;
        waveform::DecodedBlock block;
        codec.decode(scratch.data(), info.payload_bytes, info.count,
                     index.signal(s).width, block);
        const auto t3 = Clock::now();
        cost.read_ns += ns_between(t0, t1);
        cost.crc_ns += ns_between(t1, t2);
        cost.decode_ns += ns_between(t2, t3);
        cost.entries += block.size();
        ++cost.blocks;
      }
    }
  }
  return crc_mismatches;
}

/// {"delta": {...}, "rle": {...}} for the JSON report.
std::string block_load_json(const std::map<std::string, LoadCost>& costs) {
  std::string out = "{";
  for (const auto& [codec, cost] : costs) {
    const double blocks = static_cast<double>(std::max<uint64_t>(1, cost.blocks));
    const double entries =
        static_cast<double>(std::max<uint64_t>(1, cost.entries));
    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s\"%s\": {\"blocks\": %" PRIu64
                  ", \"entries_per_block\": %.1f, \"read_us\": %.3f"
                  ", \"crc_us\": %.3f, \"decode_us\": %.3f"
                  ", \"decode_ns_per_entry\": %.2f}",
                  out.size() > 1 ? ",\n    " : "", codec.c_str(), cost.blocks,
                  static_cast<double>(cost.entries) / blocks,
                  cost.read_ns / blocks / 1000.0, cost.crc_ns / blocks / 1000.0,
                  cost.decode_ns / blocks / 1000.0, cost.decode_ns / entries);
    out += row;
  }
  return out + "}";
}

/// Payload bytes of `signal`'s stream in `index` re-encoded block by block
/// through the delta codec: the same block boundaries, so it is exactly
/// what a delta-coded file would store for that stream.
uint64_t delta_reencoded_bytes(const waveform::IndexedWaveform& index,
                               size_t signal) {
  const waveform::StorageBackend storage(index.path());
  const waveform::BlockCodec& codec = codec_of(index, signal);
  const uint32_t width = index.signal(signal).width;
  std::string scratch, encoded;
  uint64_t bytes = 0;
  for (const auto& info : index.blocks(signal)) {
    storage.read(info.file_offset, info.payload_bytes, scratch);
    waveform::DecodedBlock block;
    codec.decode(scratch.data(), info.payload_bytes, info.count, width, block);
    std::vector<common::BitVector> values;
    values.reserve(block.size());
    for (size_t i = 0; i < block.size(); ++i) values.push_back(block.value(i));
    encoded.clear();
    waveform::delta_codec().encode(block.times.data(), values.data(),
                                   block.size(), width, encoded);
    bytes += encoded.size();
  }
  return bytes;
}

}  // namespace

int main() {
  // At least one data signal: the seek loop excludes the clock.
  const uint64_t signals = std::max<uint64_t>(1, env_or("HGDB_WVX_SIGNALS", 40));
  const uint64_t aliases = env_or("HGDB_WVX_ALIASES", 10);
  const uint64_t cycles = env_or("HGDB_WVX_CYCLES", 20000);
  const uint64_t seeks = env_or("HGDB_WVX_SEEKS", 2000);
  const size_t cache_blocks = env_or("HGDB_WVX_CACHE", 32);
  const uint32_t block_cap = static_cast<uint32_t>(env_or("HGDB_WVX_BLOCK_CAP", 256));
  const uint64_t scopes =
      std::max<uint64_t>(1, env_or("HGDB_WVX_SCOPES", 4));

  const std::string vcd_path = "/tmp/hgdb_bench_waveform.vcd";
  const std::string v4_path = "/tmp/hgdb_bench_waveform.v4.wvx";
  const std::string sharded_path = "/tmp/hgdb_bench_waveform.sharded.wvx";

  const uint64_t changes =
      write_synthetic_vcd(vcd_path, signals, aliases, cycles, scopes);

  // -- indexed backends: one-time convert ----------------------------------------
  // v4: per-signal codec selection (the clock's toggle stream goes RLE).
  waveform::IndexWriterOptions v4_options;
  v4_options.block_capacity = block_cap;
  auto t0 = Clock::now();
  waveform::convert_vcd_to_index(vcd_path, v4_path, v4_options);
  const double convert_v4_ms = ms_since(t0);

  // Sharded v4 convert: same dump, per-scope shard files behind a
  // manifest.
  waveform::ShardedConvertOptions sharded_options;
  sharded_options.index.block_capacity = block_cap;
  t0 = Clock::now();
  const uint32_t shard_count =
      waveform::convert_vcd_to_sharded_index(vcd_path, sharded_path,
                                             sharded_options)
          .shards;
  const double sharded_convert_ms = ms_since(t0);

  const uint64_t v4_bytes = file_bytes(v4_path);
  // The clock contributes 2 changes per cycle on top of the data changes.
  const uint64_t total_changes = changes + 2 * cycles;

  // -- full-text parse vs. header+footer-only opens ------------------------------
  // Both sides of the CI-gated open-vs-parse ratio are medians of
  // individually timed runs (construction only), taken interleaved: each
  // parse is followed by a run of opens, so host jitter during the bench
  // lands on both and a one-shot syscall or page-cache stall moves
  // neither median.
  constexpr int kParseReps = 5;
  constexpr int kOpensPerParse = 13;
  constexpr int kOpenReps = kParseReps * kOpensPerParse;
  std::vector<double> parse_samples;
  std::vector<double> open_samples;
  parse_samples.reserve(kParseReps);
  open_samples.reserve(kOpenReps);
  trace::VcdTrace trace;
  for (int p = 0; p < kParseReps; ++p) {
    trace = trace::VcdTrace{};  // the previous parse is freed untimed
    t0 = Clock::now();
    trace = trace::parse_vcd_file(vcd_path);
    parse_samples.push_back(ms_since(t0));
    for (int i = 0; i < kOpensPerParse; ++i) {
      t0 = Clock::now();
      const waveform::IndexedWaveform reopen(v4_path, cache_blocks);
      open_samples.push_back(ms_since(t0));
    }
  }
  const double parse_ms = median(parse_samples);
  const double open_ms = median(open_samples);
  const size_t trace_resident = trace.resident_bytes();
  waveform::IndexedWaveform v4_indexed(v4_path, cache_blocks);
  // The manifest; one shared cache budget across every shard.
  waveform::IndexedWaveform sharded(sharded_path, cache_blocks);
  // Sharded global signal order differs from declaration order; map
  // through hierarchical names once.
  std::vector<size_t> sharded_index(trace.signal_count());
  for (size_t i = 0; i < trace.signal_count(); ++i) {
    const auto mapped_index = sharded.signal_index(trace.signal(i).hier_name);
    if (!mapped_index) {
      std::fprintf(stderr, "sharded index is missing signal '%s'\n",
                   trace.signal(i).hier_name.c_str());
      return 1;
    }
    sharded_index[i] = *mapped_index;
  }

  // Per-codec clock stream cost: v4 auto-selects RLE for the clock; the
  // same blocks re-encoded through the delta codec are what a delta-coded
  // file stores. Signal 0 is the clock in declaration order (single-file
  // indexes keep that order).
  uint64_t clock_rle_bytes = 0;
  for (const auto& block : v4_indexed.blocks(0)) {
    clock_rle_bytes += block.payload_bytes;
  }
  const uint64_t clock_delta_bytes = delta_reencoded_bytes(v4_indexed, 0);
  const bool clock_is_rle =
      std::string_view(v4_indexed.signal_codec_name(0)) == "rle";

  // -- random cycle seeks, answered by every store ----------------------------
  Rng rng{0xdeadbeefcafef00dull};
  std::vector<std::pair<size_t, uint64_t>> queries;
  queries.reserve(seeks);
  for (uint64_t i = 0; i < seeks; ++i) {
    // Skip signal 0 (the clock) so seeks hit data blocks; aliased names
    // participate (they resolve through the canonical indirection).
    const size_t signal = 1 + rng.next() % (trace.signal_count() - 1);
    const uint64_t time = rng.next() % (trace.max_time() + 1);
    queries.emplace_back(signal, time);
  }

  uint64_t checksum_memory = 0, checksum_v4 = 0;
  const double memory_seek_ms = run_seeks(trace, queries, &checksum_memory);
  // Warm once, then time steady-state seeks: the cold-block read path
  // under LRU churn, not first-touch page faults.
  (void)run_seeks(v4_indexed, queries, &checksum_v4);
  const double v4_seek_ms = run_seeks(v4_indexed, queries, &checksum_v4);

  uint64_t mismatches = 0;
  for (const auto& [signal, time] : queries) {
    const auto expected = trace.value_at(signal, time);
    if (expected != v4_indexed.value_at(signal, time) ||
        expected != sharded.value_at(sharded_index[signal], time)) {
      ++mismatches;
    }
  }
  if (checksum_v4 != checksum_memory) ++mismatches;

  const auto stats = v4_indexed.cache_stats();
  const bool lru_bounded = stats.peak_resident <= v4_indexed.cache_capacity();
  // Residency proxy for the indexed store: peak cached blocks, each at most
  // block_capacity entries of (8 time bytes + value payload + BitVector
  // overhead of one 64-bit word per started 64 bits).
  const uint64_t indexed_resident =
      static_cast<uint64_t>(stats.peak_resident) * block_cap * (8 + 16 + 16);

  // -- cold block loads, stage by stage --------------------------------------
  // v4 picks delta for data and rle for the clock.
  constexpr int kLoadPasses = 3;
  std::map<std::string, LoadCost> load_costs;
  mismatches += measure_block_loads(v4_indexed, kLoadPasses, load_costs);

  const double open_vs_parse = open_ms > 0 ? parse_ms / open_ms : 0.0;
  const double rle_clock_compression =
      clock_rle_bytes > 0 ? static_cast<double>(clock_delta_bytes) /
                                static_cast<double>(clock_rle_bytes)
                          : 0.0;

  // Absolute criterion. The RLE ratio is a property of the encodings, so
  // it holds on any machine.
  bool gates_ok = true;
  if (!clock_is_rle || rle_clock_compression < 5.0) {
    std::fprintf(stderr,
                 "GATE FAIL: clock stream codec '%s', rle compression %.1fx "
                 "(need auto-selected rle and >= 5x vs delta)\n",
                 v4_indexed.signal_codec_name(0), rle_clock_compression);
    gates_ok = false;
  }

  char json[8192];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"config\": {\"signals\": %" PRIu64 ", \"aliases\": %" PRIu64
      ", \"cycles\": %" PRIu64 ", \"changes\": %" PRIu64
      ", \"seeks\": %" PRIu64 ", \"cache_blocks\": %zu, \"block_capacity\": %u"
      ", \"scopes\": %" PRIu64 ", \"hardware_threads\": %u"
      ", \"build_type\": \"%s\"},\n"
      "  \"in_memory\": {\"parse_ms\": %.2f, \"resident_bytes\": %zu, "
      "\"seek_us_avg\": %.3f},\n"
      "  \"indexed_v4\": {\"convert_ms\": %.2f, \"file_bytes\": %" PRIu64
      ", \"bytes_per_change\": %.2f, \"open_ms\": %.4f,\n"
      "    \"seek_us_avg\": %.3f, \"resident_bytes_proxy\": %" PRIu64 ",\n"
      "    \"total_blocks\": %" PRIu64 ", \"aliases_deduped\": %zu, "
      "\"cache\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
      ", \"evictions\": %" PRIu64 ", \"peak_resident\": %zu, \"capacity\": %zu},\n"
      "    \"clock_codec\": \"%s\", \"clock_delta_payload_bytes\": %" PRIu64
      ", \"clock_rle_payload_bytes\": %" PRIu64 "},\n"
      "  \"sharded\": {\"shards\": %u, \"convert_ms\": %.2f},\n"
      "  \"block_load\": %s,\n"
      "  \"gates\": {\"open_vs_parse_speedup\": %.1f, "
      "\"rle_clock_compression\": %.1f},\n"
      "  \"parity_mismatches\": %" PRIu64 ",\n"
      "  \"lru_bounded\": %s\n"
      "}\n",
      signals, aliases, cycles, changes, seeks, cache_blocks, block_cap,
      scopes, std::thread::hardware_concurrency(), HGDB_BUILD_TYPE, parse_ms,
      trace_resident,
      memory_seek_ms * 1000.0 / static_cast<double>(seeks), convert_v4_ms,
      v4_bytes, static_cast<double>(v4_bytes) / static_cast<double>(total_changes),
      open_ms, v4_seek_ms * 1000.0 / static_cast<double>(seeks),
      indexed_resident, v4_indexed.total_blocks(), v4_indexed.alias_count(),
      stats.hits, stats.misses, stats.evictions, stats.peak_resident,
      v4_indexed.cache_capacity(), v4_indexed.signal_codec_name(0),
      clock_delta_bytes, clock_rle_bytes, shard_count, sharded_convert_ms,
      block_load_json(load_costs).c_str(), open_vs_parse,
      rle_clock_compression, mismatches, lru_bounded ? "true" : "false");

  std::fputs(json, stdout);
  if (const char* json_path = std::getenv("HGDB_BENCH_JSON")) {
    std::ofstream out(json_path);
    out << json;
  }

  std::remove(vcd_path.c_str());
  std::remove(v4_path.c_str());
  std::remove(sharded_path.c_str());
  for (const auto& shard : sharded.shard_paths()) std::remove(shard.c_str());
  if (mismatches != 0 || !lru_bounded || !gates_ok) return 1;
  return 0;
}
