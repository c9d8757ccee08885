// Columnar block decoders against the pair-vector oracle
// (block_decode_oracle.h): every block of the committed golden v4 index,
// random encodes across the width classes (narrow word column, inline and
// heap BitVector columns) through every codec, and hand-built payloads
// that set value bits above the width must decode entry by entry the same
// — and every byte-truncation of each payload must still be a WvxError.
// Also the entry-count cap and the decoded-size bound: an untrusted count
// is a typed fault at the codec, the reader and the writer, never an
// allocation failure.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "block_decode_oracle.h"
#include "waveform/block_codec.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "waveform/wvx_verify.h"

namespace hgdb::waveform {
namespace {

using common::BitVector;

const std::string kGoldenWvx = HGDB_TEST_DATA_DIR "/fixtures/golden_v4.wvx";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Decodes `payload` with the production codec and the oracle, requires
/// identical entries, then requires every strict prefix to throw WvxError.
void expect_matches_oracle(const BlockCodec& codec, const std::string& payload,
                           uint32_t count, uint32_t width,
                           const std::string& what) {
  SCOPED_TRACE(what + " codec " + codec.name() + " width " +
               std::to_string(width));
  oracle::PairBlock expected;
  oracle::decode(codec_id(codec), payload.data(), payload.size(), count, width,
                 expected);
  DecodedBlock decoded;  // stale columns of another width must not leak
  decoded.reset(width > 64 ? 8 : 100);
  decoded.times.push_back(7);
  decoded.words.push_back(~uint64_t{0});
  decoded.wide.emplace_back(100, 1);
  codec.decode(payload.data(), payload.size(), count, width, decoded);
  EXPECT_EQ(decoded.width, width);
  EXPECT_EQ(oracle::compare(expected, decoded), "");
  EXPECT_EQ(decoded.narrow() ? decoded.wide.size() : decoded.words.size(), 0u);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(codec.decode(payload.data(), cut, count, width, decoded),
                 WvxError)
        << "truncated to " << cut << " of " << payload.size() << " bytes";
  }
}

const BlockCodec& codec_named(std::string_view name) {
  for (uint8_t id = 0;; ++id) {
    const BlockCodec* codec = codec_by_id(id);
    if (codec == nullptr) throw std::invalid_argument("no such codec");
    if (name == codec->name()) return *codec;
  }
}

TEST(BlockDecode, GoldenV4BlocksMatchOracle) {
  const std::string file = read_file(kGoldenWvx);
  ASSERT_FALSE(file.empty());
  IndexedWaveform index(kGoldenWvx);
  size_t blocks = 0;
  bool saw_wide = false;
  bool saw_rle = false;
  for (size_t s = 0; s < index.signal_count(); ++s) {
    if (index.canonical_index(s) != s) continue;
    const BlockCodec& codec = codec_named(index.signal_codec_name(s));
    const uint32_t width = index.signal(s).width;
    saw_wide = saw_wide || width > 64;
    saw_rle = saw_rle || &codec == &rle_codec();
    for (const auto& block : index.blocks(s)) {
      const std::string payload =
          file.substr(block.file_offset, block.payload_bytes);
      expect_matches_oracle(codec, payload, block.count, width,
                            index.signal(s).hier_name);
      ++blocks;
    }
  }
  EXPECT_EQ(blocks, index.total_blocks());
  EXPECT_TRUE(saw_wide);
  EXPECT_TRUE(saw_rle);
}

TEST(BlockDecode, RandomEncodesMatchOracle) {
  std::mt19937_64 rng(18);
  for (uint32_t width :
       {1u, 7u, 8u, 17u, 32u, 63u, 64u, 65u, 80u, 128u, 130u}) {
    std::vector<uint64_t> times;
    std::vector<BitVector> values;
    uint64_t t = rng() % 1000;
    for (int i = 0; i < 300; ++i) {
      t += rng() % 4 == 0 ? rng() % 100000 : rng() % 3;  // incl. glitches
      times.push_back(t);
      BitVector value(width, rng());
      for (uint32_t bit = 64; bit < width; ++bit) {
        value.set_bit(bit, (rng() & 1) != 0);
      }
      if (width == 1 && i % 7 != 0 && !values.empty()) {
        value = BitVector(1, values.back().to_bool() ? 0 : 1);  // clock runs
      } else if (rng() % 4 == 0 && !values.empty()) {
        value = values.back();  // repeats
      } else if (rng() % 4 == 0) {
        value = BitVector(width, 0);  // back to zero
      }
      values.push_back(std::move(value));
    }
    std::vector<const BlockCodec*> codecs{&fixed_codec(), &delta_codec()};
    if (width == 1) codecs.push_back(&rle_codec());
    for (const BlockCodec* codec : codecs) {
      for (size_t count : {size_t{1}, size_t{2}, size_t{17}, values.size()}) {
        std::string payload;
        codec->encode(times.data(), values.data(), count, width, payload);
        expect_matches_oracle(*codec, payload, static_cast<uint32_t>(count),
                              width, "random x" + std::to_string(count));
      }
    }
  }
}

TEST(BlockDecode, HighBitsAboveWidthAreMasked) {
  struct Case {
    const BlockCodec* codec;
    uint32_t width;
    uint32_t count;
    std::string payload;
  };
  auto fixed_entry = [](uint64_t time, const std::string& value) {
    std::string out;
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>(time >> (8 * b)));
    return out + value;
  };
  auto tagged = [](uint64_t delta, uint8_t tag, const std::string& body) {
    std::string out;
    append_varint(out, delta);
    out.push_back(static_cast<char>(tag));
    return out + body;
  };
  auto xor_body = [](uint64_t diff) {
    std::string out;
    append_varint(out, diff);
    return out;
  };
  const std::vector<Case> cases = {
      {&fixed_codec(), 1, 2,
       fixed_entry(1, "\xfe") + fixed_entry(2, "\xff")},
      {&fixed_codec(), 7, 2,
       fixed_entry(1, "\xff") + fixed_entry(2, "\x80")},
      {&fixed_codec(), 63, 1, fixed_entry(3, std::string(8, '\xff'))},
      {&fixed_codec(), 65, 1, fixed_entry(4, std::string(9, '\xff'))},
      {&fixed_codec(), 130, 1, fixed_entry(5, std::string(17, '\xff'))},
      {&delta_codec(), 1, 3,
       tagged(1, 2, "\xfe") + tagged(1, 1, xor_body(3)) +
           tagged(1, 1, xor_body(2))},
      {&delta_codec(), 7, 3,
       tagged(1, 2, "\xff") + tagged(1, 1, xor_body(0x3ff)) +
           tagged(1, 1, xor_body(0x80))},
      {&delta_codec(), 17, 3,
       tagged(9, 2, "\xff\xff\xff") +
           tagged(0, 1, xor_body((uint64_t{1} << 40) | 1)) +
           tagged(2, 0, "")},
      {&delta_codec(), 63, 2,
       tagged(1, 1, xor_body(~uint64_t{0})) + tagged(1, 2, std::string(8, '\xff'))},
      {&delta_codec(), 80, 2,
       tagged(1, 2, std::string(10, '\xff')) + tagged(1, 0, "")},
      {&delta_codec(), 130, 2,
       tagged(1, 0, "") + tagged(1, 2, std::string(17, '\xff'))},
  };
  for (const auto& c : cases) {
    expect_matches_oracle(*c.codec, c.payload, c.count, c.width, "high bits");
  }
  // Spot-check the masking itself, not just agreement.
  DecodedBlock out;
  fixed_codec().decode(cases[1].payload.data(), cases[1].payload.size(), 2, 7,
                       out);
  EXPECT_EQ(out.words, (std::vector<uint64_t>{0x7f, 0x00}));
  delta_codec().decode(cases[6].payload.data(), cases[6].payload.size(), 3, 7,
                       out);
  EXPECT_EQ(out.words, (std::vector<uint64_t>{0x7f, 0x00, 0x00}));
  fixed_codec().decode(cases[4].payload.data(), cases[4].payload.size(), 1,
                       130, out);
  EXPECT_EQ(out.value(0), BitVector::all_ones(130));
}

TEST(BlockDecode, DecreasingOrWrappingTimesAreCorrupt) {
  // Seeks binary-search the times column, so a block whose times go
  // backwards is corrupt, not merely odd. The oracle accepted these.
  std::string fixed;
  for (uint64_t time : {5, 4}) {
    for (int b = 0; b < 8; ++b) fixed.push_back(static_cast<char>(time >> (8 * b)));
    fixed.push_back('\x01');
  }
  std::string delta;
  append_varint(delta, 5);
  delta.push_back('\x00');
  append_varint(delta, ~uint64_t{0});  // 5 + (2^64 - 1) wraps to 4
  delta.push_back('\x00');
  std::string rle;
  append_varint(rle, 2);
  append_varint(rle, uint64_t{1} << 63);  // second toggle wraps to 0
  for (const auto& [codec, payload, width] :
       {std::tuple{&fixed_codec(), fixed, 8u}, std::tuple{&delta_codec(), delta, 8u},
        std::tuple{&rle_codec(), rle, 1u}}) {
    DecodedBlock out;
    try {
      codec->decode(payload.data(), payload.size(), 2, width, out);
      FAIL() << codec->name() << ": expected WvxError";
    } catch (const WvxError& error) {
      EXPECT_EQ(error.fault(), WvxFault::kCorrupt) << codec->name();
    }
  }
}

// -- untrusted entry counts ---------------------------------------------------

constexpr uint32_t kHugeCount = 0x7fffffff;

void expect_corrupt(const BlockCodec& codec, const std::string& payload,
                    uint32_t count, uint32_t width) {
  DecodedBlock out;
  try {
    codec.decode(payload.data(), payload.size(), count, width, out);
    FAIL() << codec.name() << ": expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kCorrupt) << error.what();
  }
}

TEST(BlockDecode, FixedRejectsOversizedEntryCount) {
  expect_corrupt(fixed_codec(), std::string(9, '\0'), kHugeCount, 8);
  // At the cap, a short payload is a truncation, checked before any
  // column is sized.
  DecodedBlock out;
  EXPECT_THROW(fixed_codec().decode("", 0, kWvxMaxBlockEntries, 8, out),
               WvxError);
  EXPECT_EQ(out.times.capacity(), 0u);
}

TEST(BlockDecode, DeltaRejectsOversizedEntryCount) {
  expect_corrupt(delta_codec(), std::string("\x01\x00", 2), kHugeCount, 8);
  DecodedBlock out;
  EXPECT_THROW(delta_codec().decode("\x01\x00", 2, kWvxMaxBlockEntries, 8, out),
               WvxError);
  EXPECT_EQ(out.times.capacity(), 0u);
}

TEST(BlockDecode, RleRejectsOversizedEntryCount) {
  // Two varints claim a run of `count` toggles: legal rle, so only the
  // cap stands between a payload like this and a multi-gigabyte block
  // (count 2^31-1). One past the cap shows the bound without risking
  // that allocation should the check ever regress.
  const uint32_t over = kWvxMaxBlockEntries + 1;
  std::string run;
  append_varint(run, over);
  append_varint(run, 1);
  expect_corrupt(rle_codec(), run, over, 1);
  // A run of exactly the cap decodes.
  std::string capped;
  append_varint(capped, kWvxMaxBlockEntries);
  append_varint(capped, 2);
  DecodedBlock out;
  rle_codec().decode(capped.data(), capped.size(), kWvxMaxBlockEntries, 1, out);
  ASSERT_EQ(out.size(), kWvxMaxBlockEntries);
  EXPECT_EQ(out.times.back(), 2ull * kWvxMaxBlockEntries);
  EXPECT_EQ(out.words.back(), 0u);  // an even number of toggles from 0
}

// -- decoded size: 2 payload bytes per entry, a whole value decoded --------

/// `count` delta entries at time 0, each a repeat tag: 2 bytes apiece, each
/// decoding to a full copy of the (zero) value.
std::string wide_repeats(uint32_t count) {
  std::string payload;
  for (uint32_t i = 0; i < count; ++i) payload += std::string("\0\0", 2);
  return payload;
}

TEST(BlockDecode, WideRepeatsPastTheValueBoundAreCorrupt) {
  // 65536 repeats on an 8192-bit signal: a 128 KiB payload under the
  // entry cap that would decode to 64 MiB of values.
  constexpr uint32_t kWidth = 8192;
  const std::string payload = wide_repeats(kWvxMaxBlockEntries);
  ASSERT_GT(wvx_block_value_bytes(kWvxMaxBlockEntries, kWidth),
            kWvxMaxBlockValueBytes);
  DecodedBlock out;
  try {
    delta_codec().decode(payload.data(), payload.size(), kWvxMaxBlockEntries,
                         kWidth, out);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kCorrupt);
    EXPECT_NE(std::string(error.what()).find("decodes past"),
              std::string::npos);
  }
  EXPECT_EQ(out.times.capacity(), 0u);
  EXPECT_EQ(out.wide.capacity(), 0u);
  expect_corrupt(fixed_codec(), payload, kWvxMaxBlockEntries, kWidth);

  // Exactly at the bound decodes; one entry more does not.
  const uint32_t at_bound = static_cast<uint32_t>(
      kWvxMaxBlockValueBytes / wvx_block_value_bytes(1, kWidth));
  const std::string fits = wide_repeats(at_bound);
  delta_codec().decode(fits.data(), fits.size(), at_bound, kWidth, out);
  ASSERT_EQ(out.size(), at_bound);
  EXPECT_TRUE(out.value(at_bound - 1).is_zero());
  const std::string over = wide_repeats(at_bound + 1);
  expect_corrupt(delta_codec(), over, at_bound + 1, kWidth);
}

class BlockCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = ::testing::TempDir() + "hgdb_block_count_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::remove((stem_ + ".vcd").c_str());
    std::remove((stem_ + ".wvx").c_str());
  }
  std::string stem_;
};

TEST_F(BlockCountTest, IndexRejectsOversizedBlockCount) {
  {
    std::ofstream vcd(stem_ + ".vcd");
    vcd << "$var wire 8 ! d $end\n$enddefinitions $end\n"
           "#0\nb1 !\n#5\nb10 !\n";
  }
  const std::string wvx = stem_ + ".wvx";
  convert_vcd_to_index(stem_ + ".vcd", wvx);
  EXPECT_EQ(IndexedWaveform(wvx).value_at(0, 5).to_uint64(), 2u);

  // v4 footer of the one signal "d": u32 name_len, name, u32 width,
  // u32 canonical, u8 codec, u64 block_count, then the first block's
  // u64 start, u64 end, u64 offset and the u32 entry count to forge.
  std::string bytes = read_file(wvx);
  uint64_t footer = 0;
  for (int i = 7; i >= 0; --i) {
    footer = (footer << 8) | static_cast<uint8_t>(bytes[12 + i]);
  }
  const size_t count_at = footer + 4 + 1 + 4 + 4 + 1 + 8 + 24;
  ASSERT_EQ(static_cast<uint8_t>(bytes[count_at]), 2u);
  for (int i = 0; i < 4; ++i) {
    bytes[count_at + i] = static_cast<char>(kHugeCount >> (8 * i));
  }
  {
    std::ofstream out(wvx, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    IndexedWaveform index(wvx);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kCorrupt);
    EXPECT_NE(std::string(error.what()).find("entry count"),
              std::string::npos);
  }
}

TEST_F(BlockCountTest, IndexRejectsWrappingBlockCount) {
  // The second signal's block count is 2^64 - 1: added to the first
  // signal's one block it wraps to 0, so the footer-size cap must be
  // checked without the addition.
  {
    std::ofstream vcd(stem_ + ".vcd");
    vcd << "$var wire 8 ! d $end\n$var wire 8 \" e $end\n"
           "$enddefinitions $end\n#0\nb1 !\nb1 \"\n";
  }
  const std::string wvx = stem_ + ".wvx";
  convert_vcd_to_index(stem_ + ".vcd", wvx);
  std::string bytes = read_file(wvx);
  uint64_t footer = 0;
  for (int i = 7; i >= 0; --i) {
    footer = (footer << 8) | static_cast<uint8_t>(bytes[12 + i]);
  }
  // Row "d": name_len, name, width, canonical, codec, block_count and one
  // 36-byte checksummed block (58 bytes); then row "e" up to its count.
  const size_t count_at = footer + 58 + 4 + 1 + 4 + 4 + 1;
  ASSERT_EQ(static_cast<uint8_t>(bytes[count_at]), 1u);
  for (int i = 0; i < 8; ++i) bytes[count_at + i] = '\xff';
  {
    std::ofstream out(wvx, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    IndexedWaveform index(wvx);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kCorrupt);
    EXPECT_NE(std::string(error.what()).find("block count"),
              std::string::npos);
  }
}

TEST_F(BlockCountTest, IndexRejectsBlockPastTheValueBound) {
  // A hand-built v4 file whose one directory entry claims 65536 repeats
  // on an 8192-bit signal: rejected at open, before any block is read.
  constexpr uint32_t kWidth = 8192;
  const std::string payload = wide_repeats(kWvxMaxBlockEntries);
  const std::string path = stem_ + ".wvx";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    auto u32 = [&](uint32_t value) {
      for (int i = 0; i < 4; ++i) out.put(static_cast<char>(value >> (8 * i)));
    };
    auto u64 = [&](uint64_t value) {
      for (int i = 0; i < 8; ++i) out.put(static_cast<char>(value >> (8 * i)));
    };
    u32(kWvxMagic);
    u32(kWvxVersion);
    u32(kWvxFlagDeltaCodec);
    u64(kWvxHeaderSizeV2 + payload.size());  // footer offset
    u64(0);                                  // max_time
    u64(1);                                  // signal_count
    out << payload;
    u32(1);
    out.put('w');
    u32(kWidth);
    u32(0);  // canonical
    out.put(static_cast<char>(codec_id(delta_codec())));
    u64(1);  // block_count
    u64(0);  // start_time
    u64(0);  // end_time
    u64(kWvxHeaderSizeV2);
    u32(kWvxMaxBlockEntries);
    u32(static_cast<uint32_t>(payload.size()));
  }
  try {
    IndexedWaveform index(path);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kCorrupt);
    EXPECT_NE(std::string(error.what()).find("decodes past"),
              std::string::npos);
  }
  const auto result = verify_index(path);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fault, WvxFault::kCorrupt);
}

TEST_F(BlockCountTest, WriterCapsWideSignalBlocksAtTheValueBound) {
  // At the largest block capacity, a wide signal's blocks still end at
  // the value bound, so the writer never produces what the reader
  // rejects.
  constexpr uint32_t kWidth = 8192;
  const uint32_t at_bound = static_cast<uint32_t>(
      kWvxMaxBlockValueBytes / wvx_block_value_bytes(1, kWidth));
  IndexWriterOptions options;
  options.block_capacity = kWvxMaxBlockEntries;
  const std::string path = stem_ + ".wvx";
  {
    IndexWriter writer(path, options);
    writer.on_signal(0, SignalInfo{"wide", kWidth});
    writer.on_signal(1, SignalInfo{"narrow", 8});
    const BitVector one(kWidth, 1);
    for (uint64_t t = 0; t < at_bound + 100; ++t) {
      writer.on_change(0, t, one);
      writer.on_change(1, t, BitVector(8, t));
    }
    writer.on_finish(at_bound + 99);
  }
  IndexedWaveform index(path);
  ASSERT_EQ(index.blocks(0).size(), 2u);
  EXPECT_EQ(index.blocks(0)[0].count, at_bound);
  EXPECT_EQ(index.blocks(0)[1].count, 100u);
  // Narrow signals keep the requested capacity.
  ASSERT_EQ(index.blocks(1).size(), 1u);
  EXPECT_EQ(index.blocks(1)[0].count, at_bound + 100);
  EXPECT_EQ(index.value_at(0, at_bound + 50), BitVector(kWidth, 1));
  EXPECT_EQ(index.value_at(1, 300).to_uint64(), 300u % 256);
  EXPECT_TRUE(verify_index(path).ok);
}

TEST_F(BlockCountTest, WriterRejectsOversizedBlockCapacity) {
  IndexWriterOptions options;
  options.block_capacity = kWvxMaxBlockEntries + 1;
  EXPECT_THROW(IndexWriter(stem_ + ".wvx", options), std::invalid_argument);
  options.block_capacity = kWvxMaxBlockEntries;
  IndexWriter writer(stem_ + ".wvx", options);
  EXPECT_EQ(writer.options().block_capacity, kWvxMaxBlockEntries);
}

}  // namespace
}  // namespace hgdb::waveform
