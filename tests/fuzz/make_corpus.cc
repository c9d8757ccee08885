// Seed-corpus generator: emits one file per interesting wire shape into
// the corpus directories, using the real encoders so seeds stay valid as
// the formats evolve. Run manually after a wire-format or
// expression-grammar change:
//
//   cmake --build build --target fuzz_make_corpus
//   ./build/tests/fuzz_make_corpus tests/fuzz/corpus
//
// The generated files are committed; ctest replays them (standalone
// driver) and the CI fuzz-smoke job mutates from them (libFuzzer).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/json.h"
#include "rpc/event_frame.h"
#include "rpc/protocol_v2.h"
#include "runtime/expression.h"
#include "session/dap_protocol.h"
#include "waveform/block_codec.h"
#include "waveform/index_format.h"
#include "waveform/manifest.h"

namespace {

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct Change {
  std::string signal;
  std::string value;
  uint32_t width = 0;
};

/// One fuzz_expression input: the text, a NUL, then per symbol in the
/// compiled program's slot order a header byte (width - 1, or 0xff when
/// the symbol is absent from `env`) and the value's little-endian bytes.
/// Text that does not parse gets no environment.
std::string expression_input(
    const std::string& text,
    const std::map<std::string, std::pair<uint32_t, uint64_t>>& env) {
  std::string bytes = text;
  bytes.push_back('\0');
  std::vector<std::string> symbols;
  try {
    symbols = hgdb::runtime::Expression::parse(text).compile().symbols();
  } catch (const std::invalid_argument&) {
    return bytes;
  }
  for (const auto& symbol : symbols) {
    const auto it = env.find(symbol);
    if (it == env.end()) {
      bytes.push_back(static_cast<char>(0xff));
      continue;
    }
    const auto [width, value] = it->second;
    bytes.push_back(static_cast<char>(width - 1));
    for (uint32_t byte = 0; byte < (width + 7) / 8; ++byte) {
      bytes.push_back(
          static_cast<char>(byte < 8 ? (value >> (8 * byte)) & 0xff : 0));
    }
  }
  return bytes;
}

/// One fuzz_wvx_block input: codec id, u16 width - 1, u32 entry count,
/// then the block payload.
std::string block_input(uint8_t codec, uint32_t width, uint32_t count,
                        const std::string& payload) {
  std::string bytes;
  bytes.push_back(static_cast<char>(codec));
  bytes.push_back(static_cast<char>(width - 1));
  bytes.push_back(static_cast<char>((width - 1) >> 8));
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(count >> (8 * i)));
  return bytes + payload;
}

/// `count` changes of a `width`-bit signal: clustered times, with repeats
/// and toggles so every delta tag and rle run shape shows up.
std::string encoded_block(const hgdb::waveform::BlockCodec& codec,
                          uint32_t width, uint32_t count) {
  using hgdb::common::BitVector;
  std::vector<uint64_t> times;
  std::vector<BitVector> values;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  uint64_t time = 3;
  for (uint32_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    time += i % 7 == 6 ? 0 : (i % 5 == 4 ? 9 : 2);  // glitches, gaps
    times.push_back(time);
    BitVector value(width, state >> 11);
    if (width > 64) value.set_bit(width - 1, (state & 1) != 0);
    if (width == 1) value = BitVector(1, i % 6 == 5 ? i % 2 : (i + 1) % 2);
    if (width > 1 && i % 4 == 3) value = values.back();
    values.push_back(std::move(value));
  }
  std::string out;
  codec.encode(times.data(), values.data(), count, width, out);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    std::exit(1);
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A version-1 index: 32-byte header (no flags word), fixed codec, no
/// checksums, one 8-bit signal "x" with a 2-entry block (0x2a at 0, 0x55
/// at 9). No writer emits v1, so it is built by hand.
std::string v1_index() {
  std::string out;
  auto u32 = [&](uint32_t value) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
  };
  auto u64 = [&](uint64_t value) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
  };
  u32(hgdb::waveform::kWvxMagic);
  u32(1);
  u64(32 + 18);  // footer offset
  u64(9);        // max_time
  u64(1);        // signal_count
  u64(0);
  out.push_back(0x2a);
  u64(9);
  out.push_back(0x55);
  u32(1);
  out.push_back('x');
  u32(8);
  u64(1);  // block_count
  u64(0);
  u64(9);
  u64(32);
  u32(2);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <corpus-root>\n";
    return 2;
  }
  const std::string root = argv[1];
  using namespace hgdb::rpc;
  using hgdb::common::Json;

  // -- event_frame: one seed per FrameKind plus edge shapes ----------------
  {
    const std::string dir = root + "/event_frame/";
    StopEvent stop;
    stop.time = 1234;
    Frame frame;
    frame.breakpoint_id = 7;
    frame.instance_id = 3;
    frame.instance_name = "top.dut";
    frame.filename = "design.sv";
    frame.line = 42;
    frame.column = 8;
    frame.matched_conditions.push_back("a == b");
    stop.frames.push_back(frame);
    WatchHit hit;
    hit.id = 9;
    hit.expression = "counter";
    hit.old_value = "4";
    hit.new_value = "5";
    stop.watch_hits.push_back(hit);
    const std::string stop_bytes =
        make_event_frame(FrameKind::Stop, encode_stop_body(stop))
            .channel_message();
    write_file(dir + "stop", stop_bytes);

    write_file(dir + "stop_empty",
               make_event_frame(FrameKind::Stop, encode_stop_body(StopEvent{}))
                   .channel_message());

    const std::vector<Change> changes = {{"top.clk", "1", 1},
                                         {"top.bus", "3735928559", 32}};
    write_file(dir + "value_change",
               make_value_change_frame(
                   11, encode_value_change_body(5678, changes))
                   .channel_message());

    write_file(dir + "lifecycle",
               make_event_frame(FrameKind::Lifecycle,
                                encode_lifecycle_body("simulation-done"))
                   .channel_message());

    BreakpointChangeEvent bp;
    bp.action = "armed";
    bp.filename = "design.sv";
    bp.line = 42;
    bp.condition = "a == b";
    bp.client = 2;
    write_file(dir + "breakpoint_changed",
               make_event_frame(FrameKind::BreakpointChanged,
                                encode_breakpoint_change_body(bp))
                   .channel_message());

    // truncated body: exercises every Reader bounds check
    write_file(dir + "stop_truncated",
               stop_bytes.substr(0, stop_bytes.size() / 2));
  }

  // -- protocol_v2: envelopes the session and client parsers must survive --
  {
    const std::string dir = root + "/protocol_v2/";
    RequestV2 request;
    request.command = "evaluate";
    request.token = 1;
    request.payload["expression"] = Json("a + b");
    write_file(dir + "request", serialize_request_v2(request));

    write_file(dir + "no_payload",
               R"({"version": 2, "token": 2, "command": "info"})");

    write_file(dir + "bad_version",
               R"({"version": 1, "token": 3, "command": "info"})");
    // A number no int64 holds: decodes to a typed error, never a cast.
    write_file(dir + "huge_token",
               R"({"version": 2, "token": 1e300, "command": "info"})");
    write_file(dir + "not_object", R"([1, 2, 3])");
    write_file(dir + "not_json", "hello, world");
    write_file(dir + "empty", "");

    RequestV2 subscribe;
    subscribe.command = "subscribe";
    subscribe.token = 4;
    Json signals = Json::array();
    signals.push_back(Json("a"));
    signals.push_back(Json("b"));
    subscribe.payload["signals"] = std::move(signals);
    subscribe.payload["decimation"] = Json(int64_t{10});
    write_file(dir + "nested", serialize_request_v2(subscribe));

    // Runtime->client messages, for the client-side decode.
    StopEvent stop;
    stop.time = 1234;
    Frame frame;
    frame.breakpoint_id = 7;
    frame.instance_id = 3;
    frame.instance_name = "top.dut";
    frame.filename = "design.sv";
    frame.line = 42;
    frame.column = 8;
    insert_nested(frame.locals, "io.out.bits", Json("5"));
    insert_nested(frame.generator, "width", Json("32"));
    frame.matched_conditions.push_back("a == b");
    stop.frames.push_back(frame);
    stop.watch_hits.push_back(WatchHit{9, "counter", "4", "5"});
    write_file(dir + "stop_event",
               serialize_event_v2(EventV2{"stop", stop_event_payload(stop)}));

    ResponseV2 error;
    error.command = "jump";
    error.token = 5;
    error.fail(ErrorCode::UnsupportedCapability, "no time travel");
    write_file(dir + "error_response", serialize_response_v2(error));
  }

  // -- dap_codec: Content-Length framings -----------------------------------
  {
    const std::string dir = root + "/dap_codec/";
    using hgdb::session::dap::FrameCodec;
    write_file(dir + "single",
               FrameCodec::encode(R"({"seq": 1, "type": "request"})"));
    write_file(dir + "coalesced",
               FrameCodec::encode(R"({"seq": 1})") +
                   FrameCodec::encode(R"({"seq": 2})"));
    write_file(dir + "empty_payload", FrameCodec::encode(""));
    write_file(dir + "garbage_then_frame",
               "HTTP/1.1 200 OK\r\n\r\n" + FrameCodec::encode(R"({"s":3})"));
    write_file(dir + "bad_length", "Content-Length: banana\r\n\r\n{}");
    write_file(dir + "huge_length", "Content-Length: 4294967295\r\n\r\n{}");
    write_file(dir + "truncated", "Content-Length: 100\r\n\r\n{\"partial\":");
  }

  // -- wvx_manifest: shard manifests the waveform reader must survive ------
  {
    const std::string dir = root + "/wvx_manifest/";
    using hgdb::waveform::Manifest;
    using hgdb::waveform::encode_manifest;

    Manifest single;
    single.max_time = 1000;
    single.signal_count = 12;
    single.shards = {"dump.shard0.wvx"};
    write_file(dir + "single_shard", encode_manifest(single));

    Manifest multi;
    multi.max_time = 987654321;
    multi.signal_count = 4096;
    multi.shards = {"dump.shard0.wvx", "dump.shard1.wvx", "dump.shard2.wvx",
                    "dump.shard3.wvx"};
    const std::string multi_bytes = encode_manifest(multi);
    write_file(dir + "four_shards", multi_bytes);

    Manifest long_name;
    long_name.shards = {std::string(200, 'n') + ".wvx"};
    write_file(dir + "long_name", encode_manifest(long_name));

    // Invalid shapes, built from the real encoder so every prefix up to
    // the defect is well-formed (deep coverage, not an early bail-out).
    Manifest hostile;
    hostile.shards = {"../escape.wvx"};
    write_file(dir + "traversal_name", encode_manifest(hostile));

    Manifest empty;  // zero shards: rejected after the fixed header
    write_file(dir + "zero_shards", encode_manifest(empty));

    write_file(dir + "truncated",
               multi_bytes.substr(0, multi_bytes.size() / 2));

    std::string bad_crc = multi_bytes;
    bad_crc.back() = static_cast<char>(bad_crc.back() ^ 1);
    write_file(dir + "bad_crc", bad_crc);

    write_file(dir + "trailing_bytes", multi_bytes + "??");

    std::string bad_magic = multi_bytes;
    bad_magic[0] = 'Z';
    write_file(dir + "bad_magic", bad_magic);
  }

  // -- expression: condition texts over derived environments -------------
  {
    const std::string dir = root + "/expression/";
    const std::map<std::string, std::pair<uint32_t, uint64_t>> env = {
        {"a", {8, 200}},         {"b", {8, 3}},
        {"zero", {8, 0}},        {"sum", {16, 40000}},
        {"data[0]", {8, 5}},     {"io.out.bits", {32, 0xdeadbeef}},
        {"when_cond0", {1, 1}},  {"when_cond1", {1, 0}},
        {"wide", {150, 0x0123456789abcdefull}},
    };
    write_file(dir + "user_condition",
               expression_input("data[0] % 2 == 1 && sum > 10", env));
    write_file(dir + "ssa_enable",
               expression_input("and(when_cond0, not(when_cond1))", env));
    write_file(dir + "typed_literals",
               expression_input("UInt<8>(42) + SInt<4>(-3) == a", env));
    write_file(dir + "wide_values",
               expression_input("cat(wide, a) ^ pad(io.out.bits, 130)", env));
    write_file(dir + "prim_calls",
               expression_input("mux(orr(b), dshl(a, b), asSInt(neg(b)))",
                                env));
    write_file(dir + "shifts", expression_input("(0xff >> b) << 2 | ~a", env));
    write_file(dir + "division_by_zero",
               expression_input("a / zero + a % zero", env));
    // Faults both evaluators must agree on.
    write_file(dir + "bad_slice", expression_input("bits(a, 9, 0)", env));
    write_file(dir + "unresolved", expression_input("ghost + 1", env));
    write_file(dir + "short_circuit",
               expression_input("zero && bits(a, 100, 0) || !b", env));
    // Text the parser must reject with std::invalid_argument.
    write_file(dir + "unbalanced", expression_input("a + (b", env));
    write_file(dir + "bad_arity", expression_input("add(a)", env));
    write_file(dir + "zero_width", expression_input("UInt<0>(1)", env));
    write_file(dir + "negative_width", expression_input("UInt<-1>(0)", env));
    write_file(dir + "huge_pad", expression_input("pad(a, 4294967296)", env));
  }

  // -- wvx_block: block payloads the columnar decoders must survive -------
  {
    const std::string dir = root + "/wvx_block/";
    using hgdb::waveform::append_varint;
    using hgdb::waveform::delta_codec;
    using hgdb::waveform::fixed_codec;
    using hgdb::waveform::rle_codec;
    write_file(dir + "fixed_8", block_input(0, 8, 12,
                                            encoded_block(fixed_codec(), 8, 12)));
    write_file(dir + "fixed_80",
               block_input(0, 80, 6, encoded_block(fixed_codec(), 80, 6)));
    write_file(dir + "delta_1",
               block_input(1, 1, 20, encoded_block(delta_codec(), 1, 20)));
    write_file(dir + "delta_32",
               block_input(1, 32, 24, encoded_block(delta_codec(), 32, 24)));
    write_file(dir + "delta_64",
               block_input(1, 64, 16, encoded_block(delta_codec(), 64, 16)));
    write_file(dir + "delta_130",
               block_input(1, 130, 8, encoded_block(delta_codec(), 130, 8)));
    write_file(dir + "rle_clock",
               block_input(2, 1, 40, encoded_block(rle_codec(), 1, 40)));
    // Invalid shapes, from the real encoders so the prefix is well-formed.
    const std::string delta = encoded_block(delta_codec(), 17, 10);
    write_file(dir + "truncated",
               block_input(1, 17, 10, delta.substr(0, delta.size() / 2)));
    write_file(dir + "trailing_bytes", block_input(1, 17, 10, delta + "?"));
    write_file(dir + "count_mismatch", block_input(1, 17, 11, delta));
    // Raw and xor values with bits above a 7-bit width.
    std::string high_bits;
    append_varint(high_bits, 1);
    high_bits += "\x02\xff";  // raw 0xff
    append_varint(high_bits, 1);
    high_bits += '\x01';       // xor 0x3ff
    append_varint(high_bits, 0x3ff);
    write_file(dir + "high_bits", block_input(1, 7, 2, high_bits));
    // A 2^31 - 1 entry claim over a two-entry payload: rejected before
    // any column is sized.
    write_file(dir + "huge_count",
               block_input(1, 17, 0x7fffffff, delta.substr(0, 4)));
    // A legal rle run one past the entry cap: only the cap rejects it
    // (a run of 2^31 - 1 would be the same two bytes, too).
    std::string over_cap_run;
    append_varint(over_cap_run, hgdb::waveform::kWvxMaxBlockEntries + 1);
    append_varint(over_cap_run, 1);
    write_file(dir + "over_cap_run",
               block_input(2, 1, hgdb::waveform::kWvxMaxBlockEntries + 1,
                           over_cap_run));
    std::string wrap;
    append_varint(wrap, 2);
    append_varint(wrap, uint64_t{1} << 63);
    write_file(dir + "time_wrap", block_input(2, 1, 2, wrap));
    // 65536 two-byte repeat tags on an 8192-bit signal: under the entry
    // cap, but 64 MiB decoded, past kWvxMaxBlockValueBytes.
    std::string wide_repeats;
    for (uint32_t i = 0; i < hgdb::waveform::kWvxMaxBlockEntries; ++i) {
      wide_repeats += std::string("\0\0", 2);
    }
    write_file(dir + "wide_repeats",
               block_input(1, 8192, hgdb::waveform::kWvxMaxBlockEntries,
                           wide_repeats));
  }

  // -- wvx_index: whole files through the header/footer/directory parse --
  {
    const std::string dir = root + "/wvx_index/";
    // The committed fixtures, one per layout the reader accepts.
    for (const char* name : {"golden_v2", "golden_v3", "golden_v3_fixed",
                             "golden_v4", "golden_v4_fixed"}) {
      write_file(dir + name, read_file(std::string(HGDB_WAVEFORM_FIXTURES) +
                                       "/" + name + ".wvx"));
    }
    write_file(dir + "v1_fixed", v1_index());

    // Corrupt variants of the v4 fixture. Its footer row is u32 name_len,
    // name, u32 width, u32 canonical, then for canonical signals u8 codec,
    // u64 block_count and 36 bytes per checksummed block; the clock's row
    // comes first and the alias's last.
    const std::string golden =
        read_file(std::string(HGDB_WAVEFORM_FIXTURES) + "/golden_v4.wvx");
    const auto u32_at = [&](size_t at) {
      uint32_t value = 0;
      for (int i = 3; i >= 0; --i) {
        value = value << 8 | static_cast<uint8_t>(golden[at + i]);
      }
      return value;
    };
    const size_t clock_count_at =
        u32_at(12) + 4 + u32_at(u32_at(12)) + 4 + 4 + 1;
    const size_t clock_blocks_at = clock_count_at + 8;
    const size_t second_row = clock_blocks_at + 36 * u32_at(clock_count_at);
    // The alias declared 65537 bits wide over the 8-bit stream it shares.
    std::string alias_width = golden;
    alias_width[alias_width.size() - 8] = 0x01;
    alias_width[alias_width.size() - 6] = 0x01;
    write_file(dir + "alias_width", alias_width);
    // The second canonical signal claiming 2^64 - 1 blocks: added to the
    // clock's count it wraps past zero.
    std::string wrap_count = golden;
    const size_t count_at = second_row + 4 + u32_at(second_row) + 4 + 4 + 1;
    for (size_t i = 0; i < 8; ++i) wrap_count[count_at + i] = '\xff';
    write_file(dir + "wrapping_block_count", wrap_count);
    // The clock's second block claiming to start at 2^32: the directory
    // is no longer in time order.
    std::string unsorted = golden;
    unsorted[clock_blocks_at + 36 + 4] = 0x01;
    write_file(dir + "unsorted_directory", unsorted);
  }

  std::cout << "seed corpus written under " << root << "\n";
  return 0;
}
