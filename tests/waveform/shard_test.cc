// Sharded-index suite: per-scope shard files behind a manifest must hold
// exactly the same per-signal content as a single-file convert, leave no
// manifest when the convert fails, share one cache budget on the read
// side, and reject hostile manifests with typed faults.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>

#include "obs/metrics.h"
#include "trace/vcd_reader.h"
#include "waveform/indexed_waveform.h"
#include "waveform/manifest.h"
#include "waveform/sharded_writer.h"
#include "waveform/wvx_verify.h"

namespace hgdb::waveform {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

/// Multi-scope synthetic dump: `scopes` top-level modules, each with a
/// clock, a bus and a sparse flag; one cross-scope alias pair.
std::string multi_scope_vcd(size_t scopes, size_t cycles) {
  std::string out;
  for (size_t s = 0; s < scopes; ++s) {
    out += "$scope module mod" + std::to_string(s) + " $end\n";
    out += "$var wire 1 c" + std::to_string(s) + " clk $end\n";
    out += "$var wire 32 b" + std::to_string(s) + " bus $end\n";
    out += "$var wire 1 f" + std::to_string(s) + " flag $end\n";
    out += "$upscope $end\n";
  }
  // The same id code re-declared under another scope: an alias whose
  // canonical signal lives in mod0's shard.
  out += "$scope module mirror $end\n$var wire 32 b0 bus_alias $end\n";
  out += "$upscope $end\n$enddefinitions $end\n";
  std::mt19937_64 rng(17);
  for (size_t t = 0; t < cycles; ++t) {
    out += "#" + std::to_string(2 * t) + "\n";
    for (size_t s = 0; s < scopes; ++s) {
      out += "1c" + std::to_string(s) + "\n";
      if (rng() % 4 == 0 || t == 0) {
        std::string bits = "b";
        uint64_t value = rng();
        for (int bit = 31; bit >= 0; --bit) {
          bits += ((value >> bit) & 1) ? '1' : '0';
        }
        out += bits + " b" + std::to_string(s) + "\n";
      }
      if (rng() % 16 == 0 || t == 0) {
        out += (rng() % 2 == 0 ? "1f" : "0f") + std::to_string(s) + "\n";
      }
    }
    out += "#" + std::to_string(2 * t + 1) + "\n";
    for (size_t s = 0; s < scopes; ++s) out += "0c" + std::to_string(s) + "\n";
  }
  return out;
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = ::testing::TempDir() + "hgdb_shard_" + std::to_string(::getpid()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    vcd_path_ = stem_ + ".vcd";
  }

  void TearDown() override {
    std::remove(vcd_path_.c_str());
    for (const auto& path : produced_) std::remove(path.c_str());
  }

  void write_vcd(const std::string& text) {
    std::ofstream out(vcd_path_);
    out << text;
  }

  /// Sharded (or single-file) convert, tracking every output for cleanup.
  std::string convert(const std::string& tag, ShardedConvertOptions options) {
    const std::string path = stem_ + "." + tag + ".wvx";
    const auto result =
        convert_vcd_to_sharded_index(vcd_path_, path, options);
    produced_.push_back(path);
    for (uint32_t k = 0; k < result.shards; ++k) {
      produced_.push_back(stem_ + "." + tag + ".shard" + std::to_string(k) +
                          ".wvx");
    }
    return path;
  }

  std::string stem_, vcd_path_;
  std::vector<std::string> produced_;
};

TEST_F(ShardTest, ShardedConvertMatchesSingleFileContentExactly) {
  write_vcd(multi_scope_vcd(5, 120));
  auto trace = trace::parse_vcd_file(vcd_path_);

  ShardedConvertOptions single;
  single.shard_by_scope = false;
  const auto single_path = convert("single", single);

  ShardedConvertOptions sharded;
  const auto manifest_path = convert("sharded", sharded);

  IndexedWaveform one(single_path);
  IndexedWaveform many(manifest_path);
  EXPECT_FALSE(one.sharded());
  EXPECT_TRUE(many.sharded());
  // 5 scopes with canonical signals; the alias-only `mirror` scope adds
  // none (its alias rides on mod0's shard).
  EXPECT_EQ(many.shard_count(), 5u);
  ASSERT_EQ(many.signal_count(), one.signal_count());
  EXPECT_EQ(many.max_time(), one.max_time());
  EXPECT_EQ(many.alias_count(), one.alias_count());

  // Differential: every signal's stream must be *identical in content* —
  // same block boundaries, same encoded sizes, same checksums, same codec
  // — only the file it lives in differs.
  for (size_t i = 0; i < one.signal_count(); ++i) {
    const auto& name = one.signal(i).hier_name;
    auto index = many.signal_index(name);
    ASSERT_TRUE(index.has_value()) << name;
    EXPECT_STREQ(many.signal_codec_name(*index), one.signal_codec_name(i));
    const auto& single_blocks = one.blocks(i);
    const auto& shard_blocks = many.blocks(*index);
    ASSERT_EQ(shard_blocks.size(), single_blocks.size()) << name;
    for (size_t b = 0; b < single_blocks.size(); ++b) {
      EXPECT_EQ(shard_blocks[b].start_time, single_blocks[b].start_time);
      EXPECT_EQ(shard_blocks[b].end_time, single_blocks[b].end_time);
      EXPECT_EQ(shard_blocks[b].count, single_blocks[b].count);
      EXPECT_EQ(shard_blocks[b].payload_bytes, single_blocks[b].payload_bytes)
          << name << " block " << b;
      EXPECT_EQ(shard_blocks[b].crc32, single_blocks[b].crc32)
          << name << " block " << b;
    }
  }

  // And both agree with the in-memory trace on every queried value.
  std::mt19937_64 rng(29);
  for (int q = 0; q < 500; ++q) {
    const size_t signal = rng() % trace.signal_count();
    const uint64_t time = rng() % (trace.max_time() + 2);
    auto index = many.signal_index(trace.signal(signal).hier_name);
    ASSERT_TRUE(index.has_value());
    ASSERT_EQ(many.value_at(*index, time), trace.value_at(signal, time));
  }
}

TEST_F(ShardTest, FailedConvertLeavesNoManifest) {
  // A value change naming an id code no $var declared: the parser throws
  // mid-stream, after every shard file was opened.
  write_vcd(multi_scope_vcd(3, 40) + "#999\n1zz\n");
  const std::string manifest_path = stem_ + ".failed.wvx";
  const std::string shard0 = stem_ + ".failed.shard0.wvx";
  produced_.push_back(manifest_path);
  for (uint32_t k = 0; k < 3; ++k) {
    produced_.push_back(stem_ + ".failed.shard" + std::to_string(k) + ".wvx");
  }
  try {
    (void)convert_vcd_to_sharded_index(vcd_path_, manifest_path,
                                       ShardedConvertOptions{});
    FAIL() << "convert accepted an undeclared id code";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("vcd: unknown id code 'zz'"),
              std::string::npos)
        << error.what();
  }
  struct stat info{};
  EXPECT_NE(::stat(manifest_path.c_str(), &info), 0)
      << "a failed convert left a manifest behind";
  // The abandoned shards were never finalized, so readers reject them.
  ASSERT_EQ(::stat(shard0.c_str(), &info), 0);
  EXPECT_THROW((void)IndexedWaveform(shard0), WvxError);
}

TEST_F(ShardTest, CrossScopeAliasSharesItsCanonicalShardAndStream) {
  write_vcd(multi_scope_vcd(3, 60));
  const auto path = convert("alias", ShardedConvertOptions{});
  IndexedWaveform reader(path);
  auto canonical = reader.signal_index("mod0.bus");
  auto alias = reader.signal_index("mirror.bus_alias");
  ASSERT_TRUE(canonical && alias);
  EXPECT_EQ(reader.canonical_index(*alias), *canonical);
  EXPECT_EQ(reader.value_at(*alias, 41), reader.value_at(*canonical, 41));
  EXPECT_EQ(reader.alias_count(), 1u);
}

TEST_F(ShardTest, OneCacheBudgetServesEveryShard) {
  write_vcd(multi_scope_vcd(6, 100));
  const auto path = convert("cache", ShardedConvertOptions{});
  IndexedWaveform reader(path, WaveformOpenOptions{4, IoMode::kAuto});
  ASSERT_GE(reader.shard_count(), 6u);
  // Touch blocks in every shard, far more streams than cache slots: the
  // *global* budget must hold, not a per-shard one.
  std::mt19937_64 rng(7);
  for (int q = 0; q < 400; ++q) {
    const size_t signal = rng() % reader.signal_count();
    (void)reader.value_at(signal, rng() % (reader.max_time() + 1));
  }
  const auto stats = reader.cache_stats();
  EXPECT_LE(stats.resident, 4u);
  EXPECT_LE(stats.peak_resident, 4u);
  EXPECT_GT(stats.evictions, 0u);
  // Lifetime counters are monotonic and survive residency churn.
  EXPECT_EQ(stats.hits + stats.misses, 400u);
}

TEST_F(ShardTest, ResidentGaugeAggregatesAcrossReadersByDelta) {
  write_vcd(multi_scope_vcd(2, 80));
  const auto path = convert("gauge", ShardedConvertOptions{});
  auto& gauge =
      obs::MetricsRegistry::global().gauge("waveform.block_cache.resident");
  const int64_t before = gauge.value();
  {
    IndexedWaveform a(path, WaveformOpenOptions{8, IoMode::kAuto});
    IndexedWaveform b(path, WaveformOpenOptions{8, IoMode::kAuto});
    for (size_t i = 0; i < a.signal_count(); ++i) {
      (void)a.value_at(i, 3);
      (void)b.value_at(i, 3);
    }
    const auto resident_a =
        static_cast<int64_t>(a.cache_stats().resident);
    const auto resident_b =
        static_cast<int64_t>(b.cache_stats().resident);
    ASSERT_GT(resident_a, 0);
    ASSERT_GT(resident_b, 0);
    // Two live readers: the process gauge is the *sum* of both caches'
    // residency, not whichever instance reported last.
    EXPECT_EQ(gauge.value(), before + resident_a + resident_b);
  }
  // Both destroyed: each settled its contribution on the way out.
  EXPECT_EQ(gauge.value(), before);
}

TEST_F(ShardTest, VerifyWalksEveryShardAndNamesCorruptOnes) {
  write_vcd(multi_scope_vcd(3, 80));
  const auto path = convert("verify", ShardedConvertOptions{});
  auto clean = verify_index(path);
  ASSERT_TRUE(clean.ok);
  EXPECT_EQ(clean.shards, 3u);
  EXPECT_NE(describe(clean, path).find("3 shard(s)"), std::string::npos);

  // Flip one payload byte inside shard 1: verify must fail with the
  // checksum fault even though shard 0 and the manifest are pristine.
  IndexedWaveform reader(path);
  const std::string victim = reader.shard_paths()[1];
  std::string bytes = read_file(victim);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x5a);
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto corrupt = verify_index(path);
  EXPECT_FALSE(corrupt.ok);
  EXPECT_EQ(corrupt.fault, WvxFault::kChecksum);
}

TEST(ManifestFormat, RoundTripsAndRendersRelativeNames) {
  Manifest manifest;
  manifest.max_time = 12345;
  manifest.signal_count = 42;
  manifest.shards = {"dump.shard0.wvx", "dump.shard1.wvx"};
  const std::string bytes = encode_manifest(manifest);
  EXPECT_TRUE(is_manifest_bytes(bytes.data(), bytes.size()));
  const Manifest parsed = parse_manifest(bytes.data(), bytes.size());
  EXPECT_EQ(parsed.version, kWvxManifestVersion);
  EXPECT_EQ(parsed.max_time, 12345u);
  EXPECT_EQ(parsed.signal_count, 42u);
  EXPECT_EQ(parsed.shards, manifest.shards);
}

TEST(ManifestFormat, ParserRejectsHostileBytesWithTypedFaults) {
  Manifest manifest;
  manifest.shards = {"a.wvx", "b.wvx"};
  const std::string good = encode_manifest(manifest);

  auto fault_of = [](const std::string& bytes) {
    try {
      (void)parse_manifest(bytes.data(), bytes.size());
    } catch (const WvxError& error) {
      return error.fault();
    }
    return WvxFault::kNotFound;  // sentinel: "did not throw"
  };

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_EQ(fault_of(bad), WvxFault::kBadMagic);
  // Future version.
  bad = good;
  bad[4] = 9;
  EXPECT_EQ(fault_of(bad), WvxFault::kBadVersion);
  // Zero shards.
  bad = good;
  bad[8] = 0;
  EXPECT_EQ(fault_of(bad), WvxFault::kCorrupt);
  // Implausible shard count.
  bad = good;
  bad[8] = static_cast<char>(0xff);
  bad[9] = static_cast<char>(0xff);
  EXPECT_EQ(fault_of(bad), WvxFault::kCorrupt);
  // Nonzero reserved flags.
  bad = good;
  bad[12] = 1;
  EXPECT_EQ(fault_of(bad), WvxFault::kCorrupt);
  // Truncations at every prefix length must be typed, never a crash or an
  // over-read (the fuzz harness walks the same property with random cuts).
  for (size_t cut = 0; cut < good.size(); ++cut) {
    const auto fault = fault_of(good.substr(0, cut));
    EXPECT_TRUE(fault == WvxFault::kTruncatedDirectory ||
                fault == WvxFault::kBadMagic || fault == WvxFault::kCorrupt ||
                fault == WvxFault::kChecksum)
        << "cut at " << cut;
  }
  // Flipped checksum byte.
  bad = good;
  bad.back() = static_cast<char>(bad.back() ^ 1);
  EXPECT_EQ(fault_of(bad), WvxFault::kChecksum);
  // Trailing bytes after the checksum.
  bad = good + "zz";
  EXPECT_EQ(fault_of(bad), WvxFault::kCorrupt);

  // Escaping names: separators and traversal are rejected outright.
  for (const char* name : {"../a.wvx", "a/b.wvx", "a\\b.wvx", "", ".", ".."}) {
    Manifest hostile;
    hostile.shards = {name};
    const std::string bytes = encode_manifest(hostile);
    EXPECT_EQ(fault_of(bytes), WvxFault::kCorrupt) << "name '" << name << "'";
  }
}

TEST(ManifestFormat, ReaderRefusesManifestsThatPointOutsideTheirDirectory) {
  // End to end: a hostile manifest written to disk must not make the
  // reader open a path outside its directory.
  const std::string dir = ::testing::TempDir();
  const std::string path =
      dir + "hgdb_hostile_" + std::to_string(::getpid()) + ".wvx";
  Manifest hostile;
  hostile.shards = {"../../etc/passwd"};
  // write_manifest itself doesn't validate (it writes what it is told,
  // like any producer bug would); the *parser* is the trust boundary.
  write_manifest(path, hostile);
  EXPECT_THROW((void)IndexedWaveform(path), WvxError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hgdb::waveform
