// Format-compatibility suite for the layered storage engine: committed
// v2/v3 fixtures written by older releases, and a hand-built v1 file,
// must keep opening, verifying and replaying bit-identically through the
// codec layer; v4 must dedupe aliases and pick rle for clocks; files too
// small to be an index, short reads and reads past EOF fail with typed
// faults.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>

#include "trace/replay.h"
#include "trace/vcd_reader.h"
#include "waveform/block_codec.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "waveform/storage_backend.h"
#include "waveform/wvx_verify.h"

namespace hgdb::waveform {
namespace {

/// Committed fixtures: a deterministic VCD (clock, 8-bit counter, 80-bit
/// wide signal, one cross-scope alias of the counter) and the indexes an
/// older release's `hgdb-cli wvx-convert` wrote from it at each legacy
/// layout (--v2, --v3, --v3 --fixed-codec, --fixed-codec).
const std::string kGoldenVcd = HGDB_TEST_DATA_DIR "/fixtures/golden_v4.vcd";
std::string fixture(const std::string& name) {
  return HGDB_TEST_DATA_DIR "/fixtures/" + name;
}

uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<uint64_t>(in.tellg());
}

/// Mixed-width synthetic VCD; `alias_ratio` of the vars are re-declared
/// names of earlier ones (shared id codes), like heavily aliased nets in
/// real dumps.
std::string synthetic_vcd(size_t signals, size_t cycles, size_t aliases) {
  std::string out = "$scope module top $end\n$var wire 1 ck clk $end\n";
  for (size_t i = 0; i < signals; ++i) {
    const uint32_t width = i % 3 == 2 ? 80 : (i % 3 == 1 ? 32 : 8);
    out += "$var wire " + std::to_string(width) + " c" + std::to_string(i) +
           " sig" + std::to_string(i) + " $end\n";
  }
  for (size_t a = 0; a < aliases; ++a) {
    const size_t target = a % signals;
    const uint32_t width = target % 3 == 2 ? 80 : (target % 3 == 1 ? 32 : 8);
    out += "$var wire " + std::to_string(width) + " c" + std::to_string(target) +
           " alias" + std::to_string(a) + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";
  std::mt19937_64 rng(21);
  for (size_t t = 0; t < cycles; ++t) {
    out += "#" + std::to_string(2 * t) + "\n1ck\n";
    for (size_t i = 0; i < signals; ++i) {
      if (rng() % 3 != 0 && t != 0) continue;
      const uint64_t value = rng();
      std::string bits = "b";
      for (int bit = 31; bit >= 0; --bit) bits += ((value >> bit) & 1) ? '1' : '0';
      out += bits + " c" + std::to_string(i) + "\n";
    }
    out += "#" + std::to_string(2 * t + 1) + "\n0ck\n";
  }
  return out;
}

class FormatCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = ::testing::TempDir() + "hgdb_compat_" + std::to_string(::getpid()) +
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

  /// Converts vcd_path_, tracking the file for cleanup.
  std::string convert(const std::string& tag) {
    const std::string path = stem_ + "." + tag + ".wvx";
    convert_vcd_to_index(vcd_path_, path);
    produced_.push_back(path);
    return path;
  }

  /// Every signal/time query must agree with the in-memory trace.
  void expect_parity(const IndexedWaveform& indexed, const trace::VcdTrace& trace) {
    ASSERT_EQ(indexed.signal_count(), trace.signal_count());
    EXPECT_EQ(indexed.max_time(), trace.max_time());
    for (size_t i = 0; i < trace.signal_count(); ++i) {
      EXPECT_EQ(indexed.signal(i).hier_name, trace.signal(i).hier_name);
      for (uint64_t t = 0; t <= trace.max_time() + 1; t += 3) {
        ASSERT_EQ(indexed.value_at(i, t), trace.value_at(i, t))
            << trace.signal(i).hier_name << " at " << t;
      }
      EXPECT_EQ(indexed.rising_edges(i), trace.rising_edges(i));
    }
  }

  std::string stem_, vcd_path_;
  std::vector<std::string> produced_;
};

TEST_F(FormatCompatTest, V2FilesStillOpenVerifyAndReplayIdentically) {
  auto trace = trace::parse_vcd_file(kGoldenVcd);
  const auto v2_path = fixture("golden_v2.wvx");
  IndexedWaveform indexed(v2_path);
  EXPECT_EQ(indexed.version(), 2u);
  EXPECT_STREQ(indexed.codec_name(), "fixed");
  // v2 has no alias table: the alias is a duplicated stream of its own.
  EXPECT_EQ(trace.alias_count(), 1u);
  EXPECT_EQ(indexed.alias_count(), 0u);
  expect_parity(indexed, trace);

  const auto result = verify_index(v2_path);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.version, 2u);
  EXPECT_EQ(result.codec, "fixed");
  EXPECT_TRUE(result.checksummed);

  // And a v2 trace replays on the full engine, byte-for-byte with memory.
  trace::ReplayEngine engine(std::make_shared<IndexedWaveform>(v2_path));
  trace::ReplayEngine memory_engine(
      std::make_shared<trace::VcdTrace>(std::move(trace)));
  EXPECT_EQ(engine.edges(), memory_engine.edges());
}

TEST_F(FormatCompatTest, V1FixtureStillOpensAndReplays) {
  // Hand-crafted version-1 fixture: 32-byte header, no flags, fixed
  // codec, one 8-bit signal with a 2-entry block.
  const std::string path = stem_ + ".v1.wvx";
  produced_.push_back(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    auto u32 = [&](uint32_t value) {
      for (int i = 0; i < 4; ++i) out.put(static_cast<char>(value >> (8 * i)));
    };
    auto u64 = [&](uint64_t value) {
      for (int i = 0; i < 8; ++i) out.put(static_cast<char>(value >> (8 * i)));
    };
    u32(kWvxMagic);
    u32(1);
    u64(32 + 18);  // footer offset
    u64(9);        // max_time
    u64(1);        // signal_count
    u64(0);
    out.put(static_cast<char>(0x2a));
    u64(9);
    out.put(static_cast<char>(0x55));
    u32(1);
    out.put('x');
    u32(8);
    u64(1);
    u64(0);
    u64(9);
    u64(32);
    u32(2);
  }
  IndexedWaveform indexed(path);
  EXPECT_EQ(indexed.version(), 1u);
  EXPECT_STREQ(indexed.codec_name(), "fixed");
  EXPECT_FALSE(indexed.has_block_checksums());
  EXPECT_EQ(indexed.value_at(0, 0).to_uint64(), 0x2au);
  EXPECT_EQ(indexed.value_at(0, 9).to_uint64(), 0x55u);

  const auto result = verify_index(path);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.version, 1u);
}

TEST_F(FormatCompatTest, V3DefaultsToDeltaCodecAndMatchesV2BitForBit) {
  auto trace = trace::parse_vcd_file(kGoldenVcd);
  const auto v2_path = fixture("golden_v2.wvx");
  const auto v3_path = fixture("golden_v3.wvx");
  IndexedWaveform two(v2_path), three(v3_path);
  EXPECT_EQ(three.version(), 3u);
  EXPECT_STREQ(three.codec_name(), "delta");
  EXPECT_EQ(three.alias_count(), 1u);
  expect_parity(two, trace);
  expect_parity(three, trace);

  // The varint/delta encoding must be materially smaller on this
  // near-sequential mixed-width traffic.
  EXPECT_LT(file_size(v3_path), file_size(v2_path));
}

TEST_F(FormatCompatTest, V3FixedCodecContainerIsAlsoReadable) {
  auto trace = trace::parse_vcd_file(kGoldenVcd);
  IndexedWaveform indexed(fixture("golden_v3_fixed.wvx"));
  EXPECT_EQ(indexed.version(), 3u);
  EXPECT_STREQ(indexed.codec_name(), "fixed");
  expect_parity(indexed, trace);
}

TEST_F(FormatCompatTest, V4FixedCodecFixtureIsAlsoReadable) {
  // Written with codec auto-selection off: every stream, the clock
  // included, carries the fixed codec id in its footer row.
  auto trace = trace::parse_vcd_file(kGoldenVcd);
  const auto path = fixture("golden_v4_fixed.wvx");
  IndexedWaveform indexed(path);
  EXPECT_EQ(indexed.version(), 4u);
  EXPECT_STREQ(indexed.codec_name(), "fixed");
  for (size_t i = 0; i < indexed.signal_count(); ++i) {
    EXPECT_STREQ(indexed.signal_codec_name(i), "fixed") << i;
  }
  expect_parity(indexed, trace);

  const auto result = verify_index(path);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.version, 4u);
  EXPECT_EQ(result.codec, "fixed");
}

TEST_F(FormatCompatTest, AliasDedupKeepsParityAndShrinksTheFile) {
  // Heavy aliasing: 3 extra names per net. Queries through every aliased
  // name must match the in-memory backend exactly, while the file stores
  // one stream per net.
  write_vcd(synthetic_vcd(6, 80, 0));
  const auto plain_path = convert("plain");
  write_vcd(synthetic_vcd(6, 80, 18));
  auto trace = trace::parse_vcd_file(vcd_path_);
  EXPECT_EQ(trace.alias_count(), 18u);
  const auto dedup_path = convert("dedup");

  IndexedWaveform deduped(dedup_path);
  EXPECT_EQ(deduped.alias_count(), 18u);
  expect_parity(deduped, trace);

  // Aliased queries resolve to the canonical signal's stream and share
  // its cache entries.
  auto canonical = deduped.signal_index("top.sig0");
  auto alias = deduped.signal_index("top.alias0");
  ASSERT_TRUE(canonical && alias);
  EXPECT_EQ(deduped.canonical_index(*alias), *canonical);
  EXPECT_EQ(deduped.value_at(*alias, 33), deduped.value_at(*canonical, 33));

  // The same dump without the aliases differs by their footer rows only
  // (u32 name_len, name, u32 width, u32 canonical each): 18 names cost
  // no change stream.
  uint64_t alias_rows = 0;
  for (size_t i = 0; i < trace.signal_count(); ++i) {
    if (trace.canonical_index(i) != i) {
      alias_rows += 12 + trace.signal(i).hier_name.size();
    }
  }
  EXPECT_EQ(file_size(dedup_path) - file_size(plain_path), alias_rows);

  const auto result = verify_index(dedup_path);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.aliases, 18u);
}

TEST_F(FormatCompatTest, AliasWidthMismatchIsCorrupt) {
  // The fixture's last footer row is the alias top.sub.count_alias:
  // u32 name_len, name, u32 width, u32 canonical. An alias is served from
  // its owner's 8-bit stream, so any other declared width is corrupt.
  for (const char* name : {"golden_v3.wvx", "golden_v4.wvx"}) {
    SCOPED_TRACE(name);
    std::ifstream in(fixture(name), std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    ASSERT_EQ(static_cast<uint8_t>(bytes[bytes.size() - 8]), 8u);
    bytes[bytes.size() - 8] = 16;
    const std::string path = stem_ + ".alias_width.wvx";
    produced_.push_back(path);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    try {
      IndexedWaveform indexed(path);
      FAIL() << "expected WvxError";
    } catch (const WvxError& error) {
      EXPECT_EQ(error.fault(), WvxFault::kCorrupt);
      EXPECT_NE(std::string(error.what()).find("alias width"),
                std::string::npos);
    }
  }
}

TEST_F(FormatCompatTest, DirectoryTimesMustMatchTheBlocks) {
  // The fixture's first footer row is the clock (3 blocks: 0-255,
  // 256-511, 512-600): u32 name_len, name, u32 width, u32 canonical,
  // u8 codec, u64 block_count, then per block u64 start, u64 end, ...
  // (36 bytes with checksums).
  std::ifstream in(fixture("golden_v4.wvx"), std::ios::binary);
  const std::string golden(std::istreambuf_iterator<char>(in), {});
  auto u64_at = [&](size_t at) {
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
      value = value << 8 | static_cast<uint8_t>(golden[at + i]);
    }
    return value;
  };
  const size_t footer = u64_at(12);
  const size_t blocks = footer + 4 + golden[footer] + 4 + 4 + 1 + 8;
  ASSERT_EQ(u64_at(blocks + 36), 256u);
  const std::string path = stem_ + ".times.wvx";
  produced_.push_back(path);
  auto write_patched = [&](size_t at, uint64_t value) {
    std::string bytes = golden;
    for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>(value >> (8 * i));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  // Block 1 claims to start after block 2: seeks would binary-search an
  // unsorted directory and silently answer from the wrong block.
  write_patched(blocks + 36, uint64_t{1} << 32);
  try {
    IndexedWaveform indexed(path);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kCorrupt);
    EXPECT_NE(std::string(error.what()).find("out of time order"),
              std::string::npos);
  }

  // Block 0 claims to end at 254, still in order, but its payload ends
  // at 255: the first load of that block is corrupt.
  write_patched(blocks + 8, 254);
  IndexedWaveform indexed(path);
  EXPECT_THROW((void)indexed.value_at(0, 100), WvxError);
  const auto result = verify_index(path);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fault, WvxFault::kCorrupt);
}

TEST_F(FormatCompatTest, InMemoryTraceDedupesAliasStorageToo) {
  write_vcd(synthetic_vcd(4, 60, 12));
  auto aliased = trace::parse_vcd_file(vcd_path_);

  write_vcd(synthetic_vcd(4, 60, 0));
  auto plain = trace::parse_vcd_file(vcd_path_);

  // 12 aliased names add footer entries but no change-list memory.
  EXPECT_EQ(aliased.alias_count(), 12u);
  EXPECT_EQ(aliased.resident_bytes(), plain.resident_bytes());
  // Aliased and canonical names answer identically.
  auto a = aliased.var_index("top.alias0");
  auto c = aliased.var_index("top.sig0");
  ASSERT_TRUE(a && c);
  EXPECT_EQ(aliased.canonical_index(*a), *c);
  EXPECT_EQ(aliased.value_at(*a, 17), aliased.value_at(*c, 17));
  EXPECT_EQ(&aliased.changes(*a), &aliased.changes(*c));
}

TEST_F(FormatCompatTest, EmptyAndShortFilesAreBadMagic) {
  // Neither can hold a header; the reader must say "not an index"
  // (bad-magic), not a truncation or an I/O error.
  for (const size_t size : {size_t{0}, size_t{10}}) {
    SCOPED_TRACE(size);
    const std::string path = stem_ + ".short" + std::to_string(size) + ".wvx";
    produced_.push_back(path);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << std::string(size, 'w');
    }
    try {
      IndexedWaveform indexed(path);
      FAIL() << "expected WvxError";
    } catch (const WvxError& error) {
      EXPECT_EQ(error.fault(), WvxFault::kBadMagic);
    }
    const auto result = verify_index(path);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.fault, WvxFault::kBadMagic);
    EXPECT_NE(describe(result, path).find("[bad-magic]"), std::string::npos);
  }
}

TEST_F(FormatCompatTest, TruncatedDirectoryFailsWithTypedFault) {
  write_vcd(synthetic_vcd(3, 30, 0));
  const auto path = convert("trunc");

  // Cut the last 5 bytes: the footer now ends mid-directory-entry, which
  // must surface as the typed truncated-directory fault, not a generic
  // parse error.
  const uint64_t size = file_size(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(size - 5));
  }

  try {
    IndexedWaveform indexed(path);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kTruncatedDirectory);
    EXPECT_NE(std::string(error.what()).find("truncated signal directory"),
              std::string::npos);
  }

  const auto result = verify_index(path);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fault, WvxFault::kTruncatedDirectory);
  EXPECT_NE(describe(result, path).find("truncated-directory"),
            std::string::npos);
}

TEST_F(FormatCompatTest, AliasHeavyShortNameFilesPassTheFooterSanityCap) {
  // Alias footer entries are only 12 + name_len bytes; with one-char
  // unscoped names the a-priori signal-count cap must not misclassify a
  // valid writer output as corrupt.
  std::string vcd = "$var wire 8 d a $end\n";
  const std::string aliases = "bcdefghijklmnop";
  for (char name : aliases) {
    vcd += std::string("$var wire 8 d ") + name + " $end\n";
  }
  vcd += "$enddefinitions $end\n#0\nb101 d\n#5\nb111 d\n";
  write_vcd(vcd);
  const auto path = convert("short");
  IndexedWaveform indexed(path);
  EXPECT_EQ(indexed.signal_count(), 1 + aliases.size());
  EXPECT_EQ(indexed.alias_count(), aliases.size());
  EXPECT_EQ(indexed.value_at(*indexed.signal_index("p"), 5).to_uint64(), 7u);
  EXPECT_TRUE(verify_index(path).ok);
}

TEST_F(FormatCompatTest, VerifyReportsVersionAndCodec) {
  const auto path = fixture("golden_v3.wvx");
  const auto result = verify_index(path);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.version, 3u);
  EXPECT_EQ(result.codec, "delta");
  EXPECT_EQ(result.aliases, 1u);
  const std::string text = describe(result, path);
  EXPECT_NE(text.find("format v3"), std::string::npos);
  EXPECT_NE(text.find("delta codec"), std::string::npos);
}

TEST_F(FormatCompatTest, V4AutoSelectsRlePerSignalAndKeepsParity) {
  // A real clock (toggles every step, >= the selection sample), a sparse
  // 1-bit signal and a bus: v4 must pick rle for the clock only, record
  // the choice per signal in the footer, and answer every query exactly
  // like the in-memory trace.
  std::string vcd =
      "$scope module top $end\n"
      "$var wire 1 c clk $end\n"
      "$var wire 1 s sparse $end\n"
      "$var wire 8 d bus $end\n"
      "$upscope $end\n$enddefinitions $end\n";
  for (int t = 0; t < 200; ++t) {
    vcd += "#" + std::to_string(t) + "\n";
    vcd += (t % 2 == 0 ? "1c\n" : "0c\n");
    if (t % 37 == 0) vcd += (t % 74 == 0 ? "1s\n" : "0s\n");
    if (t % 5 == 0) vcd += "b" + std::to_string(t % 2) + "01 d\n";
  }
  write_vcd(vcd);
  auto trace = trace::parse_vcd_file(vcd_path_);

  const auto v4_path = convert("v4");
  IndexedWaveform four(v4_path);
  EXPECT_EQ(four.version(), 4u);
  EXPECT_STREQ(four.codec_name(), "delta");  // the file default
  EXPECT_STREQ(four.signal_codec_name(*four.signal_index("top.clk")), "rle");
  EXPECT_STREQ(four.signal_codec_name(*four.signal_index("top.sparse")),
               "delta");
  EXPECT_STREQ(four.signal_codec_name(*four.signal_index("top.bus")), "delta");
  expect_parity(four, trace);

  // The clock stream collapses to a few bytes per block: smaller than the
  // delta encoding of the same changes.
  const size_t clk = *four.signal_index("top.clk");
  uint64_t rle_bytes = 0;
  for (const auto& block : four.blocks(clk)) rle_bytes += block.payload_bytes;
  std::vector<uint64_t> times;
  std::vector<common::BitVector> values;
  for (const auto& [time, value] : trace.changes(clk)) {
    times.push_back(time);
    values.push_back(value);
  }
  std::string delta;
  delta_codec().encode(times.data(), values.data(), values.size(), 1, delta);
  EXPECT_LT(rle_bytes, delta.size());

  const auto result = verify_index(v4_path);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.version, 4u);
}

TEST_F(FormatCompatTest, V4ShortOneBitStreamsKeepTheFileDefault) {
  // Below the selection sample (16 changes in the first block) the choice
  // must fall back to the file default — a 4-entry "clock" is noise.
  std::string vcd =
      "$var wire 1 c tick $end\n$enddefinitions $end\n"
      "#0\n1c\n#1\n0c\n#2\n1c\n#3\n0c\n";
  write_vcd(vcd);
  const auto path = convert("short1");
  IndexedWaveform indexed(path);
  EXPECT_STREQ(indexed.signal_codec_name(0), "delta");
  EXPECT_TRUE(verify_index(path).ok);
}

TEST(BlockCodecs, RleRoundTripsClockAndLiteralMixes) {
  // Pure toggling runs, interrupted by repeats (non-toggles, which must
  // take the literal escape) and irregular gaps.
  std::vector<uint64_t> times;
  std::vector<common::BitVector> values;
  bool bit = false;
  uint64_t t = 5;
  for (int i = 0; i < 64; ++i) {  // regular clock: one run
    bit = !bit;
    times.push_back(t += 2);
    values.push_back(common::BitVector(1, bit ? 1 : 0));
  }
  times.push_back(t += 7);  // repeat: literal escape
  values.push_back(common::BitVector(1, bit ? 1 : 0));
  for (int i = 0; i < 5; ++i) {  // irregular deltas: short runs
    bit = !bit;
    times.push_back(t += 1 + i);
    values.push_back(common::BitVector(1, bit ? 1 : 0));
  }
  std::string encoded;
  rle_codec().encode(times.data(), values.data(), values.size(), 1, encoded);
  // The 64-entry clock run costs ~3 bytes; everything must round-trip.
  EXPECT_LT(encoded.size(), values.size());
  DecodedBlock decoded;
  rle_codec().decode(encoded.data(), encoded.size(),
                     static_cast<uint32_t>(values.size()), 1, decoded);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded.times[i], times[i]) << i;
    EXPECT_EQ(decoded.value(i), values[i]) << i;
  }
}

TEST(BlockCodecs, RleRejectsWideSignalsAndCorruptPayloads) {
  std::vector<uint64_t> times{1, 2};
  std::vector<common::BitVector> values{common::BitVector(8, 1),
                                        common::BitVector(8, 2)};
  std::string out;
  EXPECT_THROW(rle_codec().encode(times.data(), values.data(), 2, 8, out),
               std::invalid_argument);
  DecodedBlock decoded;
  EXPECT_THROW(rle_codec().decode("", 0, 1, 8, decoded), WvxError);

  // A valid 1-bit encoding, then mutilations.
  std::vector<common::BitVector> bits{common::BitVector(1, 1),
                                      common::BitVector(1, 0),
                                      common::BitVector(1, 1)};
  std::string encoded;
  rle_codec().encode(times.data(), bits.data(), 2, 1, encoded);
  // Truncation mid-payload.
  EXPECT_THROW(
      rle_codec().decode(encoded.data(), encoded.size() - 1, 2, 1, decoded),
      WvxError);
  // Trailing garbage.
  std::string padded = encoded + '\x01';
  EXPECT_THROW(rle_codec().decode(padded.data(), padded.size(), 2, 1, decoded),
               WvxError);
  // A run longer than the block's entry count.
  std::string overflow;
  append_varint(overflow, 100);  // run of 100 toggles...
  append_varint(overflow, 1);
  EXPECT_THROW(
      rle_codec().decode(overflow.data(), overflow.size(), 3, 1, decoded),
      WvxError);  // ...into a 3-entry block
  // A literal escape whose value byte is not 0/1.
  std::string literal;
  append_varint(literal, 0);
  append_varint(literal, 4);
  literal += '\x07';
  EXPECT_THROW(
      rle_codec().decode(literal.data(), literal.size(), 1, 1, decoded),
      WvxError);
}

TEST(BlockCodecs, CodecRegistryMapsIdsBothWays) {
  EXPECT_EQ(codec_id(fixed_codec()), 0);
  EXPECT_EQ(codec_id(delta_codec()), 1);
  EXPECT_EQ(codec_id(rle_codec()), 2);
  EXPECT_EQ(codec_by_id(0), &fixed_codec());
  EXPECT_EQ(codec_by_id(1), &delta_codec());
  EXPECT_EQ(codec_by_id(2), &rle_codec());
  EXPECT_EQ(codec_by_id(3), nullptr);
  EXPECT_EQ(codec_by_id(255), nullptr);
}

TEST(BlockCodecs, VarintRoundTripAndBounds) {
  std::string buffer;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20, ~uint64_t{0}};
  for (uint64_t value : values) {
    buffer.clear();
    append_varint(buffer, value);
    EXPECT_EQ(buffer.size(), varint_size(value));
    const auto* p = reinterpret_cast<const uint8_t*>(buffer.data());
    const auto* end = p + buffer.size();
    EXPECT_EQ(read_varint(&p, end), value);
    EXPECT_EQ(p, end);
  }
  // Truncated varint throws the typed fault.
  buffer.assign(1, '\x80');
  const auto* p = reinterpret_cast<const uint8_t*>(buffer.data());
  EXPECT_THROW((void)read_varint(&p, p + 1), WvxError);
  // Overlong encodings (a run of continuation bytes past the 10-byte u64
  // maximum, or a 10th byte carrying more than bit 0) are rejected before
  // any out-of-range shift can happen.
  buffer.assign(11, '\x80');
  p = reinterpret_cast<const uint8_t*>(buffer.data());
  EXPECT_THROW((void)read_varint(&p, p + buffer.size()), WvxError);
  buffer.assign(9, '\x80');
  buffer += '\x02';  // shift 63 with payload > 1
  p = reinterpret_cast<const uint8_t*>(buffer.data());
  EXPECT_THROW((void)read_varint(&p, p + buffer.size()), WvxError);
  buffer.assign(9, '\x81');
  buffer += '\x01';  // bit set at every 7th position + bit 63: legal
  p = reinterpret_cast<const uint8_t*>(buffer.data());
  EXPECT_EQ(read_varint(&p, p + buffer.size()), 0x8102040810204081ull);
}

TEST(BlockCodecs, DeltaRoundTripsMixedWidths) {
  std::mt19937_64 rng(3);
  for (uint32_t width : {1u, 8u, 17u, 32u, 64u, 80u, 130u}) {
    std::vector<uint64_t> times;
    std::vector<common::BitVector> values;
    uint64_t t = 1000;
    for (int i = 0; i < 200; ++i) {
      t += rng() % 3;  // nondecreasing incl. same-time glitches
      times.push_back(t);
      common::BitVector value(width, rng());
      if (width > 64 && rng() % 2 == 0) value.set_bit(width - 1, true);
      if (rng() % 4 == 0 && !values.empty()) value = values.back();  // runs
      values.push_back(std::move(value));
    }
    std::string encoded;
    delta_codec().encode(times.data(), values.data(), values.size(), width,
                         encoded);
    DecodedBlock decoded;
    delta_codec().decode(encoded.data(), encoded.size(),
                         static_cast<uint32_t>(values.size()), width, decoded);
    ASSERT_EQ(decoded.size(), values.size()) << "width " << width;
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(decoded.times[i], times[i]);
      EXPECT_EQ(decoded.value(i), values[i]) << "width " << width << " @" << i;
    }
    // Fixed codec agrees with itself too, and delta is never larger on
    // this clustered traffic.
    std::string fixed;
    fixed_codec().encode(times.data(), values.data(), values.size(), width,
                         fixed);
    EXPECT_LT(encoded.size(), fixed.size()) << "width " << width;
  }
}

TEST(BlockCodecs, DecodeRejectsCorruptPayloads) {
  std::vector<uint64_t> times{1, 2};
  std::vector<common::BitVector> values{common::BitVector(8, 3),
                                        common::BitVector(8, 200)};
  std::string encoded;
  delta_codec().encode(times.data(), values.data(), 2, 8, encoded);
  DecodedBlock out;
  // Truncation: chop the tail.
  EXPECT_THROW(
      delta_codec().decode(encoded.data(), encoded.size() - 1, 2, 8, out),
      WvxError);
  // Trailing garbage after the last entry.
  std::string padded = encoded + '\x00';
  EXPECT_THROW(delta_codec().decode(padded.data(), padded.size(), 2, 8, out),
               WvxError);
  // Unknown value tag.
  std::string bad = encoded;
  bad[1] = '\x7f';
  EXPECT_THROW(delta_codec().decode(bad.data(), bad.size(), 2, 8, out),
               WvxError);
}

TEST(StorageBackends, PreadReadsRangesAndTypedErrors) {
  try {
    StorageBackend missing("/nonexistent/trace.wvx");
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kNotFound);
  }
  const std::string path = ::testing::TempDir() + "hgdb_storage_" +
                           std::to_string(::getpid()) + ".bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "0123456789";
  }
  StorageBackend storage(path);
  EXPECT_EQ(storage.size(), 10u);
  std::string out = "stale contents longer than the read";
  storage.read(2, 3, out);
  EXPECT_EQ(out, "234");
  storage.read(10, 0, out);  // an empty range at EOF is in bounds
  EXPECT_EQ(out, "");
  // Reads past EOF are typed truncation faults, not garbage.
  try {
    storage.read(8, 4, out);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kTruncatedBlock);
  }
  // So is a file that shrank after open: size() is the size at open.
  ASSERT_EQ(::truncate(path.c_str(), 4), 0);
  try {
    storage.read(2, 6, out);
    FAIL() << "expected WvxError";
  } catch (const WvxError& error) {
    EXPECT_EQ(error.fault(), WvxFault::kTruncatedBlock);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hgdb::waveform
