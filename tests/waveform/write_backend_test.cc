// WriteBackend: the mapped write path must grow past its initial chunk
// correctly, trim the growth slack on finish(), reject patches outside
// the appended range and refuse targets it cannot map — and the whole
// writer stack must keep reproducing a committed golden v4 index byte
// for byte.
#include "waveform/storage_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"

namespace hgdb::waveform {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Committed fixtures: a deterministic VCD (clock, 8-bit counter, 80-bit
/// wide signal, one cross-scope alias of the counter) and the v4 index
/// the library's default conversion wrote from it.
const std::string kGoldenVcd = HGDB_TEST_DATA_DIR "/fixtures/golden_v4.vcd";
const std::string kGoldenWvx = HGDB_TEST_DATA_DIR "/fixtures/golden_v4.wvx";

class WriteBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = ::testing::TempDir() + "hgdb_write_backend_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    for (const auto& path : cleanup_) std::remove(path.c_str());
  }

  std::string path(const std::string& suffix) {
    cleanup_.push_back(stem_ + suffix);
    return cleanup_.back();
  }

  std::string stem_;
  std::vector<std::string> cleanup_;
};

TEST_F(WriteBackendTest, AppendOffsetAndPatchRoundTrip) {
  const auto file = path(".bin");
  WriteBackend backend(file);
  EXPECT_EQ(backend.offset(), 0u);
  backend.append("placeholder-", 12);
  backend.append("payload", 7);
  EXPECT_EQ(backend.offset(), 19u);
  backend.write_at(0, "header-patch", 12);
  backend.finish();
  EXPECT_EQ(read_file(file), "header-patchpayload");
}

TEST_F(WriteBackendTest, MmapGrowsPastInitialChunkAndTrimsSlack) {
  const auto file = path(".grow");
  WriteBackend backend(file);
  // Push well past the initial chunk so the grow/remap path runs at
  // least twice. Every chunk carries its own byte, so a stale mapping
  // after a remap shows up as wrong content, not just a wrong size.
  std::string expected;
  for (size_t i = 0; expected.size() <= 3 * WriteBackend::kInitialCapacity;
       ++i) {
    const std::string block(64 * 1024, static_cast<char>('a' + i % 26));
    backend.append(block.data(), block.size());
    expected += block;
  }
  const uint64_t logical = backend.offset();
  EXPECT_EQ(logical, expected.size());
  backend.write_at(logical - 4, "tail", 4);
  expected.replace(expected.size() - 4, 4, "tail");
  backend.write_at(0, "head", 4);
  expected.replace(0, 4, "head");
  backend.finish();
  // finish() must truncate the chunk slack: on-disk bytes == logical bytes.
  EXPECT_TRUE(read_file(file) == expected);
}

TEST_F(WriteBackendTest, PatchPastLogicalEndThrows) {
  WriteBackend backend(path(".oob"));
  backend.append("abc", 3);
  EXPECT_THROW(backend.write_at(2, "xy", 2), WvxError);
  EXPECT_THROW(backend.write_at(4, "x", 1), WvxError);
  backend.write_at(0, "xyz", 3);  // exactly the appended range is fine
  backend.finish();
}

TEST_F(WriteBackendTest, UnmappableTargetIsATypedIoError) {
  // /dev/null opens read-write but can be neither grown nor mapped
  // shared: the writer has no fallback, so the failure must be typed.
  try {
    WriteBackend backend("/dev/null");
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kIo);
  }
  try {
    IndexWriter writer("/dev/null");
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kIo);
  }
}

TEST_F(WriteBackendTest, ConvertReproducesGoldenV4IndexByteForByte) {
  const std::string golden = read_file(kGoldenWvx);
  ASSERT_FALSE(golden.empty()) << "missing fixture " << kGoldenWvx;
  const auto out = path(".wvx");
  EXPECT_EQ(convert_vcd_to_index(kGoldenVcd, out), 4u);
  EXPECT_TRUE(read_file(out) == golden)
      << "convert output drifted from " << kGoldenWvx;

  // The fixture exercises what it claims to: v4, a deduped alias, the
  // clock auto-selected to rle, a wide signal on the default codec.
  IndexedWaveform waveform(kGoldenWvx);
  EXPECT_EQ(waveform.version(), 4u);
  EXPECT_EQ(waveform.alias_count(), 1u);
  EXPECT_FALSE(waveform.verify_blocks().has_value());
  const auto clock = waveform.signal_index("top.clk");
  const auto wide = waveform.signal_index("top.wide");
  const auto count = waveform.signal_index("top.count");
  const auto alias = waveform.signal_index("top.sub.count_alias");
  ASSERT_TRUE(clock && wide && count && alias);
  EXPECT_STREQ(waveform.signal_codec_name(*clock), "rle");
  EXPECT_STREQ(waveform.signal_codec_name(*wide), "delta");
  EXPECT_EQ(waveform.signal(*wide).width, 80u);
  EXPECT_EQ(waveform.canonical_index(*alias), *count);
  EXPECT_EQ(waveform.value_at(*count, 21).to_uint64(), 11u);
  EXPECT_EQ(waveform.value_at(*alias, 21).to_uint64(), 11u);
}

}  // namespace
}  // namespace hgdb::waveform
