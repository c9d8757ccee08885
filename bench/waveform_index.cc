// EXP-W — Waveform storage engine: in-memory trace vs. the indexed store,
// format v2 vs. v3, buffered vs. mmap reads (the scaling steps the replay
// path needs for production-size dumps; cf. Goeders & Wilton's trace-based
// HLS debugging, where the waveform store is the bottleneck).
//
// The harness synthesizes a multi-scope VCD of configurable size (with
// id-code aliases, like real dumps), then compares:
//   in_memory     trace::VcdTrace — full parse, O(trace) resident
//   indexed v2    fixed-stride codec, duplicated alias streams (legacy)
//   indexed v3    varint/delta codec + alias dedup
//   indexed v4    per-signal codec (RLE auto-selected for clock-likes)
//   sharded v4    per-scope shard files behind a manifest
//   buffered/mmap the two StorageBackends answering identical random seeks
//
// Expected shape: indexed open time orders of magnitude below the full
// parse; the v3 file >= 30% smaller than v2 on the same dump; the RLE
// stream for the clock >= 5x smaller than v3's delta stream; mmap-backed
// random block reads no slower than buffered; peak resident blocks never
// above the LRU capacity. Exit is nonzero on any parity mismatch, LRU
// bound violation, or failed absolute gate, so the bench doubles as a
// stress check.
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
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/vcd_reader.h"
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
  const std::string v2_path = "/tmp/hgdb_bench_waveform.v2.wvx";
  const std::string v3_path = "/tmp/hgdb_bench_waveform.v3.wvx";
  const std::string v4_path = "/tmp/hgdb_bench_waveform.v4.wvx";
  const std::string sharded_path = "/tmp/hgdb_bench_waveform.sharded.wvx";

  const uint64_t changes =
      write_synthetic_vcd(vcd_path, signals, aliases, cycles, scopes);

  // -- in-memory backend: full-text parse ----------------------------------------
  auto t0 = Clock::now();
  auto trace = trace::parse_vcd_file(vcd_path);
  const double parse_ms = ms_since(t0);
  const size_t trace_resident = trace.resident_bytes();

  // -- indexed backends: one-time convert per format version ---------------------
  waveform::IndexWriterOptions v2_options;
  v2_options.version = 2;
  v2_options.block_capacity = block_cap;
  t0 = Clock::now();
  waveform::convert_vcd_to_index(vcd_path, v2_path, v2_options);
  const double convert_v2_ms = ms_since(t0);

  waveform::IndexWriterOptions v3_options;
  v3_options.version = 3;  // the file default is v4 now; keep v3 tracked
  v3_options.block_capacity = block_cap;
  t0 = Clock::now();
  waveform::convert_vcd_to_index(vcd_path, v3_path, v3_options);
  const double convert_v3_ms = ms_since(t0);

  // v4: per-signal codec selection (the clock's toggle stream goes RLE).
  waveform::IndexWriterOptions v4_options;
  v4_options.block_capacity = block_cap;
  t0 = Clock::now();
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

  const uint64_t v2_bytes = file_bytes(v2_path);
  const uint64_t v3_bytes = file_bytes(v3_path);
  const uint64_t v4_bytes = file_bytes(v4_path);
  // The clock contributes 2 changes per cycle on top of the data changes.
  const uint64_t total_changes = changes + 2 * cycles;

  // -- header+footer-only opens --------------------------------------------------
  // Averaged over several opens: a single ~30 us open is dominated by
  // one-shot syscall/page-cache jitter, which would make the CI-gated
  // open-vs-parse ratio flaky on shared runners.
  constexpr int kOpenReps = 16;
  t0 = Clock::now();
  for (int i = 0; i < kOpenReps - 1; ++i) {
    waveform::IndexedWaveform reopen(
        v3_path, waveform::WaveformOpenOptions{cache_blocks,
                                               waveform::IoMode::kBuffered});
    (void)reopen.signal_count();
  }
  waveform::IndexedWaveform buffered(
      v3_path, waveform::WaveformOpenOptions{cache_blocks,
                                             waveform::IoMode::kBuffered});
  const double open_ms = ms_since(t0) / kOpenReps;
  waveform::IndexedWaveform mapped(
      v3_path,
      waveform::WaveformOpenOptions{cache_blocks, waveform::IoMode::kMmap});
  waveform::IndexedWaveform v2_indexed(
      v2_path, waveform::WaveformOpenOptions{cache_blocks,
                                             waveform::IoMode::kBuffered});
  waveform::IndexedWaveform v4_indexed(
      v4_path, waveform::WaveformOpenOptions{cache_blocks,
                                             waveform::IoMode::kBuffered});
  // The manifest; one shared cache budget across every shard.
  waveform::IndexedWaveform sharded(
      sharded_path,
      waveform::WaveformOpenOptions{cache_blocks, waveform::IoMode::kBuffered});
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

  // Per-codec clock stream cost: v3 encodes the clock with delta varints,
  // v4 auto-selects RLE for it. Signal 0 is the clock in declaration
  // order (single-file indexes keep that order).
  auto payload_sum = [](const std::vector<waveform::BlockInfo>& blocks) {
    uint64_t sum = 0;
    for (const auto& block : blocks) sum += block.payload_bytes;
    return sum;
  };
  const uint64_t clock_delta_bytes = payload_sum(buffered.blocks(0));
  const uint64_t clock_rle_bytes = payload_sum(v4_indexed.blocks(0));
  const bool clock_is_rle =
      std::string_view(v4_indexed.signal_codec_name(0)) == "rle";

  // -- random cycle seeks, answered by every backend -----------------------------
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

  uint64_t checksum_memory = 0, checksum_buffered = 0, checksum_mapped = 0,
           checksum_v2 = 0;
  const double memory_seek_ms = run_seeks(trace, queries, &checksum_memory);
  // Warm both indexed stores identically, then time steady-state seeks:
  // the mmap-vs-buffered comparison is about the cold-block read path
  // under LRU churn, not first-touch page faults.
  (void)run_seeks(buffered, queries, &checksum_buffered);
  (void)run_seeks(mapped, queries, &checksum_mapped);
  const double buffered_seek_ms = run_seeks(buffered, queries, &checksum_buffered);
  const double mmap_seek_ms = run_seeks(mapped, queries, &checksum_mapped);
  const double v2_seek_ms = run_seeks(v2_indexed, queries, &checksum_v2);

  uint64_t mismatches = 0;
  for (const auto& [signal, time] : queries) {
    const auto expected = trace.value_at(signal, time);
    if (expected != buffered.value_at(signal, time) ||
        expected != mapped.value_at(signal, time) ||
        expected != v2_indexed.value_at(signal, time) ||
        expected != v4_indexed.value_at(signal, time) ||
        expected != sharded.value_at(sharded_index[signal], time)) {
      ++mismatches;
    }
  }
  if (checksum_buffered != checksum_mapped || checksum_buffered != checksum_v2 ||
      checksum_buffered != checksum_memory) {
    ++mismatches;
  }

  const auto stats = buffered.cache_stats();
  const bool lru_bounded =
      stats.peak_resident <= buffered.cache_capacity() &&
      mapped.cache_stats().peak_resident <= mapped.cache_capacity();
  // Residency proxy for the indexed store: peak cached blocks, each at most
  // block_capacity entries of (8 time bytes + value payload + BitVector
  // overhead of one 64-bit word per started 64 bits).
  const uint64_t indexed_resident =
      static_cast<uint64_t>(stats.peak_resident) * block_cap * (8 + 16 + 16);

  const double v3_size_savings =
      v2_bytes > 0 ? 1.0 - static_cast<double>(v3_bytes) /
                               static_cast<double>(v2_bytes)
                   : 0.0;
  const double mmap_vs_buffered =
      mmap_seek_ms > 0 ? buffered_seek_ms / mmap_seek_ms : 0.0;
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
      "  \"indexed_v2\": {\"convert_ms\": %.2f, \"file_bytes\": %" PRIu64
      ", \"bytes_per_change\": %.2f, \"seek_us_avg\": %.3f},\n"
      "  \"indexed_v3\": {\"convert_ms\": %.2f, \"file_bytes\": %" PRIu64
      ", \"bytes_per_change\": %.2f, \"open_ms\": %.2f,\n"
      "    \"buffered_seek_us_avg\": %.3f, \"mmap_seek_us_avg\": %.3f, "
      "\"resident_bytes_proxy\": %" PRIu64 ",\n"
      "    \"total_blocks\": %" PRIu64 ", \"aliases_deduped\": %zu, "
      "\"cache\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
      ", \"evictions\": %" PRIu64 ", \"peak_resident\": %zu, \"capacity\": %zu}},\n"
      "  \"indexed_v4\": {\"convert_ms\": %.2f, \"file_bytes\": %" PRIu64
      ", \"bytes_per_change\": %.2f, \"clock_codec\": \"%s\",\n"
      "    \"clock_delta_payload_bytes\": %" PRIu64
      ", \"clock_rle_payload_bytes\": %" PRIu64 "},\n"
      "  \"sharded\": {\"shards\": %u, \"convert_ms\": %.2f},\n"
      "  \"gates\": {\"open_vs_parse_speedup\": %.1f, "
      "\"v3_size_savings\": %.3f, \"mmap_vs_buffered_seek\": %.2f, "
      "\"rle_clock_compression\": %.1f},\n"
      "  \"parity_mismatches\": %" PRIu64 ",\n"
      "  \"lru_bounded\": %s\n"
      "}\n",
      signals, aliases, cycles, changes, seeks, cache_blocks, block_cap,
      scopes, std::thread::hardware_concurrency(), HGDB_BUILD_TYPE, parse_ms,
      trace_resident,
      memory_seek_ms * 1000.0 / static_cast<double>(seeks), convert_v2_ms,
      v2_bytes, static_cast<double>(v2_bytes) / static_cast<double>(total_changes),
      v2_seek_ms * 1000.0 / static_cast<double>(seeks), convert_v3_ms,
      v3_bytes, static_cast<double>(v3_bytes) / static_cast<double>(total_changes),
      open_ms, buffered_seek_ms * 1000.0 / static_cast<double>(seeks),
      mmap_seek_ms * 1000.0 / static_cast<double>(seeks), indexed_resident,
      buffered.total_blocks(), buffered.alias_count(), stats.hits,
      stats.misses, stats.evictions, stats.peak_resident,
      buffered.cache_capacity(), convert_v4_ms, v4_bytes,
      static_cast<double>(v4_bytes) / static_cast<double>(total_changes),
      v4_indexed.signal_codec_name(0), clock_delta_bytes, clock_rle_bytes,
      shard_count, sharded_convert_ms, open_vs_parse, v3_size_savings,
      mmap_vs_buffered, rle_clock_compression, mismatches,
      lru_bounded ? "true" : "false");

  std::fputs(json, stdout);
  if (const char* json_path = std::getenv("HGDB_BENCH_JSON")) {
    std::ofstream out(json_path);
    out << json;
  }

  std::remove(vcd_path.c_str());
  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(v4_path.c_str());
  std::remove(sharded_path.c_str());
  for (const auto& shard : sharded.shard_paths()) std::remove(shard.c_str());
  if (mismatches != 0 || !lru_bounded || !gates_ok) return 1;
  return 0;
}
