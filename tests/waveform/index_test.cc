#include "waveform/indexed_waveform.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>

#include "trace/vcd_reader.h"
#include "waveform/index_writer.h"

namespace hgdb::waveform {
namespace {

/// Synthesizes a VCD with one clock and `signals` data signals over
/// `cycles` periods; deterministic values so both backends are comparable.
std::string synthetic_vcd(size_t signals, size_t cycles) {
  std::string out = "$scope module top $end\n$var wire 1 ck clk $end\n";
  for (size_t i = 0; i < signals; ++i) {
    const uint32_t width = i % 3 == 2 ? 80 : 16;  // include >64-bit lanes
    out += "$var wire " + std::to_string(width) + " c" + std::to_string(i) +
           " sig" + std::to_string(i) + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";
  std::mt19937_64 rng(7);
  for (size_t t = 0; t < cycles; ++t) {
    out += "#" + std::to_string(2 * t) + "\n1ck\n";
    for (size_t i = 0; i < signals; ++i) {
      if (rng() % 3 != 0 && t != 0) continue;
      const uint64_t value = rng();
      std::string bits = "b";
      for (int bit = 63; bit >= 0; --bit) bits += ((value >> bit) & 1) ? '1' : '0';
      out += bits + " c" + std::to_string(i) + "\n";
    }
    out += "#" + std::to_string(2 * t + 1) + "\n0ck\n";
  }
  return out;
}

class IndexedWaveformTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // pid + test name: unique across the concurrent ctest processes that
    // run this binary's cases in parallel (a `this` pointer is not — heap
    // layout repeats across processes, deterministically so under ASan).
    const std::string stem =
        ::testing::TempDir() + "hgdb_index_test_" +
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    vcd_path_ = stem + ".vcd";
    wvx_path_ = stem + ".wvx";
  }
  void TearDown() override {
    std::remove(vcd_path_.c_str());
    std::remove(wvx_path_.c_str());
  }

  void write_vcd(const std::string& text) {
    std::ofstream out(vcd_path_);
    out << text;
  }

  std::string vcd_path_;
  std::string wvx_path_;
};

TEST_F(IndexedWaveformTest, RoundTripMatchesInMemoryTrace) {
  write_vcd(synthetic_vcd(6, 50));
  auto trace = trace::parse_vcd_file(vcd_path_);
  IndexWriterOptions options;
  options.block_capacity = 8;  // force multiple blocks per signal
  EXPECT_EQ(convert_vcd_to_index(vcd_path_, wvx_path_, options),
            trace.signal_count());

  IndexedWaveform indexed(wvx_path_);
  ASSERT_EQ(indexed.signal_count(), trace.signal_count());
  EXPECT_EQ(indexed.max_time(), trace.max_time());
  for (size_t i = 0; i < trace.signal_count(); ++i) {
    EXPECT_EQ(indexed.signal(i).hier_name, trace.signal(i).hier_name);
    EXPECT_EQ(indexed.signal(i).width, trace.signal(i).width);
    for (uint64_t t = 0; t <= trace.max_time() + 2; ++t) {
      ASSERT_EQ(indexed.value_at(i, t), trace.value_at(i, t))
          << trace.signal(i).hier_name << " at time " << t;
    }
    EXPECT_EQ(indexed.rising_edges(i), trace.rising_edges(i))
        << trace.signal(i).hier_name;
  }
}

TEST_F(IndexedWaveformTest, SignalIndexLookup) {
  write_vcd(synthetic_vcd(3, 5));
  convert_vcd_to_index(vcd_path_, wvx_path_);
  IndexedWaveform indexed(wvx_path_);
  ASSERT_TRUE(indexed.signal_index("top.sig0").has_value());
  EXPECT_EQ(indexed.signal(*indexed.signal_index("top.clk")).width, 1u);
  EXPECT_FALSE(indexed.signal_index("top.ghost").has_value());
}

TEST_F(IndexedWaveformTest, DirectoryIsTimeSortedWithBoundedBlocks) {
  write_vcd(synthetic_vcd(4, 100));
  IndexWriterOptions options;
  options.block_capacity = 16;
  convert_vcd_to_index(vcd_path_, wvx_path_, options);
  IndexedWaveform indexed(wvx_path_);
  for (size_t i = 0; i < indexed.signal_count(); ++i) {
    const auto& blocks = indexed.blocks(i);
    uint64_t previous_end = 0;
    size_t total = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_LE(blocks[b].start_time, blocks[b].end_time);
      EXPECT_LE(blocks[b].count, options.block_capacity);
      EXPECT_GT(blocks[b].count, 0u);
      // >= rather than >: same-timestamp glitches may straddle a block
      // boundary, and the writer keeps them verbatim for backend parity.
      if (b > 0) {
        EXPECT_GE(blocks[b].start_time, previous_end);
      }
      previous_end = blocks[b].end_time;
      total += blocks[b].count;
    }
    EXPECT_GT(total, 0u);
  }
  // The clock toggles every step: it must span several blocks.
  EXPECT_GT(indexed.blocks(0).size(), 3u);
}

TEST_F(IndexedWaveformTest, LruResidencyIsBoundedByCapacity) {
  write_vcd(synthetic_vcd(8, 200));
  IndexWriterOptions options;
  options.block_capacity = 8;
  convert_vcd_to_index(vcd_path_, wvx_path_, options);

  constexpr size_t kCapacity = 3;
  IndexedWaveform indexed(wvx_path_, kCapacity);
  ASSERT_GT(indexed.total_blocks(), kCapacity * 4);

  std::mt19937_64 rng(11);
  for (int i = 0; i < 500; ++i) {
    const size_t signal = rng() % indexed.signal_count();
    const uint64_t time = rng() % (indexed.max_time() + 1);
    (void)indexed.value_at(signal, time);
  }
  const auto stats = indexed.cache_stats();
  EXPECT_LE(stats.peak_resident, kCapacity);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST_F(IndexedWaveformTest, HotBlockQueriesHitTheCache) {
  write_vcd(synthetic_vcd(2, 50));
  convert_vcd_to_index(vcd_path_, wvx_path_);
  IndexedWaveform indexed(wvx_path_, 16);
  for (int repeat = 0; repeat < 10; ++repeat) {
    (void)indexed.value_at(0, 5);
  }
  const auto stats = indexed.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 9u);
}

TEST_F(IndexedWaveformTest, SameTimestampGlitchesMatchInMemoryBackend) {
  // A 0->1->0 glitch within one #time: both backends must agree on the
  // final value AND the edge grid (the glitch produces a rising edge).
  write_vcd(
      "$var wire 1 c clk $end\n$enddefinitions $end\n"
      "#0\n0c\n1c\n0c\n#5\n1c\n");
  auto trace = trace::parse_vcd_file(vcd_path_);
  convert_vcd_to_index(vcd_path_, wvx_path_);
  IndexedWaveform indexed(wvx_path_);
  EXPECT_EQ(indexed.value_at(0, 0), trace.value_at(0, 0));
  EXPECT_EQ(indexed.value_at(0, 0).to_uint64(), 0u);  // last write at #0 wins
  EXPECT_EQ(indexed.rising_edges(0), trace.rising_edges(0));
  EXPECT_EQ(indexed.rising_edges(0), (std::vector<uint64_t>{0, 5}));
}

TEST_F(IndexedWaveformTest, ValueBeforeFirstChangeIsZero) {
  write_vcd(
      "$var wire 4 ! x $end\n$enddefinitions $end\n#5\nb111 !\n");
  convert_vcd_to_index(vcd_path_, wvx_path_);
  IndexedWaveform indexed(wvx_path_);
  EXPECT_EQ(indexed.value_at(0, 2).to_uint64(), 0u);
  EXPECT_EQ(indexed.value_at(0, 5).to_uint64(), 0b111u);
  EXPECT_EQ(indexed.value_at(0, 9).to_uint64(), 0b111u);
}

TEST_F(IndexedWaveformTest, WideValuesSurviveTheRoundTrip) {
  // 80-bit value with bits set above 64.
  write_vcd(
      "$var wire 80 ! wide $end\n$enddefinitions $end\n#0\nb1" +
      std::string(78, '0') + "1 !\n");
  convert_vcd_to_index(vcd_path_, wvx_path_);
  IndexedWaveform indexed(wvx_path_);
  const auto value = indexed.value_at(0, 0);
  EXPECT_EQ(value.width(), 80u);
  EXPECT_TRUE(value.bit(0));
  EXPECT_TRUE(value.bit(79));
  EXPECT_EQ(value.popcount(), 2u);
}

TEST_F(IndexedWaveformTest, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW(IndexedWaveform("/nonexistent/trace.wvx"), std::runtime_error);

  {
    std::ofstream out(wvx_path_, std::ios::binary);
    out << "this is not a waveform index at all................";
  }
  EXPECT_THROW(IndexedWaveform{wvx_path_}, std::runtime_error);

  // A header-only file (writer died before on_finish): footer offset 0.
  {
    std::ofstream out(wvx_path_, std::ios::binary | std::ios::trunc);
    const uint32_t magic = kWvxMagic, version = kWvxVersion;
    out.write(reinterpret_cast<const char*>(&magic), 4);
    out.write(reinterpret_cast<const char*>(&version), 4);
    const char zeros[24] = {};
    out.write(zeros, 24);
  }
  EXPECT_THROW(IndexedWaveform{wvx_path_}, std::runtime_error);
}

TEST_F(IndexedWaveformTest, RejectsImplausibleFooterMetadata) {
  // A structurally valid header whose footer claims absurd counts must
  // fail cleanly instead of attempting huge allocations.
  write_vcd("$var wire 4 ! x $end\n$enddefinitions $end\n#0\nb101 !\n");
  convert_vcd_to_index(vcd_path_, wvx_path_);

  // Corrupt the signal-count field (v2 header offset 28) to 2^60.
  {
    std::fstream file(wvx_path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(28);
    const uint64_t absurd = uint64_t{1} << 60;
    file.write(reinterpret_cast<const char*>(&absurd), 8);
  }
  try {
    IndexedWaveform indexed(wvx_path_);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("corrupt"), std::string::npos);
  }
}

}  // namespace
}  // namespace hgdb::waveform
