// Seed-corpus generator: emits one file per interesting wire shape into
// the corpus directories, using the real encoders so seeds stay valid as
// the formats evolve. Run manually after a wire-format change:
//
//   cmake --build build --target fuzz_make_corpus
//   ./build/tests/fuzz_make_corpus tests/fuzz/corpus
//
// The generated files are committed; ctest replays them (standalone
// driver) and the CI fuzz-smoke job mutates from them (libFuzzer).

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "rpc/event_frame.h"
#include "rpc/protocol_v2.h"
#include "session/dap_protocol.h"
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

  std::cout << "seed corpus written under " << root << "\n";
  return 0;
}
