// Fuzz harness for the .wvx block decoders (waveform/block_codec.h): a
// block payload and its entry count come straight from an untrusted file,
// so decode's contract is "fill the columns or throw WvxError" — a crash,
// sanitizer report, allocation failure or any other exception is a bug.
//
// Input layout: byte 0 picks the codec (id modulo 3: fixed, delta, rle),
// bytes 1..2 are the little-endian u16 width - 1 (1..65536 bits: the
// narrow word column, inline and heap BitVector columns, and widths wide
// enough to reach kWvxMaxBlockValueBytes), bytes 3..6 are the
// little-endian u32 entry count (uncapped, so the kWvxMaxBlockEntries
// check is reachable), and the rest is the payload.
//
// On success the block must hold exactly `count` entries in the column
// its width selects, within both caps, times nondecreasing, narrow words
// within the width, and must agree entry by entry with the reference
// decoder in tests/waveform/block_decode_oracle.h.
//
// Built two ways:
//   - libFuzzer (clang, -fsanitize=fuzzer,address, -DHGDB_FUZZ_LIBFUZZER):
//     the CI fuzz-smoke job explores from the committed corpus.
//   - standalone (any compiler): main() replays the corpus files given as
//     argv, making the seeds a ctest regression suite.

#include <cstdint>
#include <cstdlib>

#include "../waveform/block_decode_oracle.h"
#include "waveform/block_codec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace hgdb::waveform;
  if (size < 7) return 0;
  const uint8_t codec_index = data[0] % 3;
  const uint32_t width = 1u + (data[1] | static_cast<uint32_t>(data[2]) << 8);
  const uint32_t count = static_cast<uint32_t>(data[3]) |
                         static_cast<uint32_t>(data[4]) << 8 |
                         static_cast<uint32_t>(data[5]) << 16 |
                         static_cast<uint32_t>(data[6]) << 24;
  const char* payload = reinterpret_cast<const char*>(data + 7);
  const size_t payload_bytes = size - 7;
  const BlockCodec& codec = *codec_by_id(codec_index);

  DecodedBlock block;
  try {
    codec.decode(payload, payload_bytes, count, width, block);
  } catch (const WvxError&) {
    return 0;  // malformed/truncated/corrupt payload: the documented failure
  }
  if (count > kWvxMaxBlockEntries ||
      wvx_block_value_bytes(count, width) > kWvxMaxBlockValueBytes) {
    std::abort();
  }
  if (block.width != width || block.size() != count) std::abort();
  if (block.narrow()) {
    if (block.words.size() != count || !block.wide.empty()) std::abort();
    const uint64_t mask =
        width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (const uint64_t word : block.words) {
      if ((word & ~mask) != 0) std::abort();
    }
  } else {
    if (block.wide.size() != count || !block.words.empty()) std::abort();
    for (const auto& value : block.wide) {
      if (value.width() != width) std::abort();
    }
  }
  for (size_t i = 1; i < block.size(); ++i) {
    if (block.times[i] < block.times[i - 1]) std::abort();
  }
  // Whatever the production decoder accepts, the reference decodes to the
  // same entries (the count is capped, so the oracle's allocation is too).
  oracle::PairBlock expected;
  try {
    oracle::decode(codec_index, payload, payload_bytes, count, width,
                   expected);
  } catch (const WvxError&) {
    std::abort();
  }
  if (!oracle::compare(expected, block).empty()) std::abort();
  return 0;
}

#ifndef HGDB_FUZZ_LIBFUZZER
#include "standalone_driver.h"
int main(int argc, char** argv) { return hgdb_fuzz_replay(argc, argv); }
#endif
