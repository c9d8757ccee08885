#include <array>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "waveform/wvx_verify.h"

namespace hgdb::waveform {
namespace {

class ChecksumTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = std::string("/tmp/hgdb_checksum_") + info->name();
    vcd_path_ = base_ + ".vcd";
    wvx_path_ = base_ + ".wvx";
  }

  void TearDown() override {
    std::remove(vcd_path_.c_str());
    std::remove(wvx_path_.c_str());
  }

  void write_vcd(const std::string& body) {
    std::ofstream out(vcd_path_);
    out << body;
  }

  /// A small dump: one 8-bit signal with a handful of changes.
  void write_default_vcd() {
    write_vcd(
        "$var wire 8 ! top.data $end\n"
        "$enddefinitions $end\n"
        "#0\nb00000001 !\n"
        "#5\nb00000010 !\n"
        "#10\nb00000100 !\n"
        "#15\nb11111111 !\n");
  }

  void corrupt_byte(uint64_t offset, char value) {
    std::fstream file(wvx_path_,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(value);
  }

  std::string base_, vcd_path_, wvx_path_;
};

TEST(Crc32, MatchesKnownVectors) {
  // The canonical IEEE check value.
  EXPECT_EQ(common::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(common::crc32("", 0), 0u);
  // Incremental == one-shot.
  const std::string data = "hello, waveform";
  const uint32_t whole = common::crc32(data.data(), data.size());
  const uint32_t first = common::crc32(data.data(), 5);
  EXPECT_EQ(common::crc32(data.data() + 5, data.size() - 5, first), whole);
}

/// The bytewise table CRC-32 the sliced implementation replaced, kept as
/// the reference it must reproduce bit for bit.
uint32_t reference_crc32(const unsigned char* bytes, size_t size,
                         uint32_t seed) {
  static const auto table = [] {
    std::array<uint32_t, 256> out{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t value = i;
      for (int bit = 0; bit < 8; ++bit) {
        value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0);
      }
      out[i] = value;
    }
    return out;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xffu];
  }
  return ~crc;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Lengths 0..300 cover the empty input, sub-word tails and many whole
  // 8-byte steps; every start offset 0..7 covers each alignment of the
  // word loads; chaining covers arbitrary seeds and split points.
  std::mt19937 rng(32);
  std::vector<unsigned char> buffer(300 + 8);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* data = buffer.data() + offset;
    for (size_t length = 0; length <= 300; ++length) {
      const uint32_t expected = reference_crc32(data, length, 0);
      ASSERT_EQ(common::crc32(data, length), expected)
          << "offset " << offset << " length " << length;
      const size_t split = length == 0 ? 0 : rng() % (length + 1);
      const uint32_t head = common::crc32(data, split);
      ASSERT_EQ(common::crc32(data + split, length - split, head), expected)
          << "offset " << offset << " length " << length << " split "
          << split;
      const uint32_t seed = rng();
      ASSERT_EQ(common::crc32(data, length, seed),
                reference_crc32(data, length, seed))
          << "offset " << offset << " length " << length << " seed " << seed;
    }
  }
}

TEST_F(ChecksumTest, FreshIndexesCarryChecksumsAndVerifyClean) {
  write_default_vcd();
  convert_vcd_to_index(vcd_path_, wvx_path_);

  IndexedWaveform waveform(wvx_path_);
  EXPECT_TRUE(waveform.has_block_checksums());
  EXPECT_FALSE(waveform.verify_blocks().has_value());

  const auto result = verify_index(wvx_path_);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.checksummed);
  EXPECT_EQ(result.signals, 1u);
  EXPECT_GE(result.blocks, 1u);
}

TEST_F(ChecksumTest, CorruptBlockFailsOnLoadWithBlockDetail) {
  write_default_vcd();
  convert_vcd_to_index(vcd_path_, wvx_path_);

  // Flip a payload byte inside the first block (header is 36 bytes; the
  // block region starts right after).
  corrupt_byte(kWvxHeaderSizeV2 + 9, '\x5a');

  IndexedWaveform waveform(wvx_path_);
  try {
    (void)waveform.value_at(0, 5);
    FAIL() << "expected checksum mismatch";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos);
    EXPECT_NE(what.find("top.data"), std::string::npos);
  }

  const auto result = verify_index(wvx_path_);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.checksummed);
  EXPECT_EQ(result.signal, "top.data");
  EXPECT_EQ(result.block_index, 0u);
  EXPECT_EQ(result.file_offset, kWvxHeaderSizeV2);
  EXPECT_NE(result.error.find("checksum mismatch"), std::string::npos);
}

TEST_F(ChecksumTest, CacheHitsSkipReVerification) {
  write_default_vcd();
  convert_vcd_to_index(vcd_path_, wvx_path_);

  IndexedWaveform waveform(wvx_path_);
  // First load verifies and caches the block.
  EXPECT_EQ(waveform.value_at(0, 0).to_uint64(), 1u);
  // Corrupt the file *behind* the cache: resident blocks keep serving.
  corrupt_byte(kWvxHeaderSizeV2 + 9, '\x5a');
  EXPECT_EQ(waveform.value_at(0, 5).to_uint64(), 2u);
}

TEST_F(ChecksumTest, ChecksumsCanBeDisabled) {
  write_default_vcd();
  IndexWriterOptions options;
  options.block_checksums = false;
  convert_vcd_to_index(vcd_path_, wvx_path_, options);

  IndexedWaveform waveform(wvx_path_);
  EXPECT_FALSE(waveform.has_block_checksums());
  // Without checksums, corruption goes undetected (the legacy behavior).
  const auto result = verify_index(wvx_path_);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.checksummed);
}

TEST_F(ChecksumTest, LegacyV1FilesRemainReadable) {
  // Hand-craft a version-1 index: 32-byte header, one 8-bit signal "a"
  // with one 2-entry block, 28-byte directory entries, no checksums.
  {
    std::ofstream out(wvx_path_, std::ios::binary | std::ios::trunc);
    auto u32 = [&](uint32_t value) {
      for (int i = 0; i < 4; ++i) out.put(static_cast<char>(value >> (8 * i)));
    };
    auto u64 = [&](uint64_t value) {
      for (int i = 0; i < 8; ++i) out.put(static_cast<char>(value >> (8 * i)));
    };
    u32(kWvxMagic);
    u32(1);           // version 1: no flags word follows
    u64(32 + 18);     // footer offset: header + 2 entries * (8 + 1)
    u64(5);           // max_time
    u64(1);           // signal_count
    // Block region: entries (u64 time, 1 value byte).
    u64(0);
    out.put(static_cast<char>(0x11));
    u64(5);
    out.put(static_cast<char>(0x22));
    // Footer: name, width, block directory (28-byte entry, no crc).
    u32(1);
    out.put('a');
    u32(8);           // width
    u64(1);           // block_count
    u64(0);           // start_time
    u64(5);           // end_time
    u64(32);          // file_offset
    u32(2);           // count
  }

  IndexedWaveform waveform(wvx_path_);
  EXPECT_FALSE(waveform.has_block_checksums());
  EXPECT_EQ(waveform.signal_count(), 1u);
  EXPECT_EQ(waveform.signal(0).width, 8u);
  EXPECT_EQ(waveform.value_at(0, 0).to_uint64(), 0x11u);
  EXPECT_EQ(waveform.value_at(0, 7).to_uint64(), 0x22u);

  const auto result = verify_index(wvx_path_);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.checksummed);
}

TEST_F(ChecksumTest, VerifyReportsStructuralErrorsToo) {
  const auto missing = verify_index("/nonexistent/file.wvx");
  EXPECT_FALSE(missing.ok);
  EXPECT_TRUE(missing.signal.empty());
  EXPECT_FALSE(missing.error.empty());

  {
    std::ofstream out(wvx_path_, std::ios::binary);
    out << "garbage";
  }
  const auto garbage = verify_index(wvx_path_);
  EXPECT_FALSE(garbage.ok);
  EXPECT_FALSE(garbage.error.empty());
}

TEST_F(ChecksumTest, DescribeRendersBothOutcomes) {
  write_default_vcd();
  convert_vcd_to_index(vcd_path_, wvx_path_);
  const auto ok = verify_index(wvx_path_);
  EXPECT_NE(describe(ok, wvx_path_).find("OK"), std::string::npos);

  corrupt_byte(kWvxHeaderSizeV2 + 2, '\x7e');
  const auto bad = verify_index(wvx_path_);
  const std::string text = describe(bad, wvx_path_);
  EXPECT_NE(text.find("CORRUPT"), std::string::npos);
  EXPECT_NE(text.find("top.data"), std::string::npos);
}

}  // namespace
}  // namespace hgdb::waveform
