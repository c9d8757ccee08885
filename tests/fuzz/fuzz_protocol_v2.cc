// Fuzz harness for both directions of the v2 JSON protocol.
//
// Server side: rpc::parse_request_v2 is the first thing that touches
// untrusted session input, and its contract is total — every input yields
// a DecodedRequestV2 (with an error code for garbage), never an exception
// or a crash.
//
// Client side: DebugClient decodes every JSON message from the runtime
// with rpc::parse_server_message_v2 and, for stop events, with
// rpc::stop_event_fields. Their contract is "returns or throws
// std::runtime_error"; any other exception escapes this harness and is
// reported as a crash.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "rpc/protocol_v2.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto decoded = hgdb::rpc::parse_request_v2(text);
  (void)decoded;

  try {
    const auto message = hgdb::rpc::parse_server_message_v2(text);
    if (message.kind == hgdb::rpc::ServerMessageV2::Kind::Event &&
        message.event.event == "stop") {
      const auto stop = hgdb::rpc::stop_event_fields(message.event.payload);
      (void)stop;
    }
  } catch (const std::runtime_error&) {
    // The documented failure mode.
  }
  return 0;
}

#ifndef HGDB_FUZZ_LIBFUZZER
#include "standalone_driver.h"
int main(int argc, char** argv) { return hgdb_fuzz_replay(argc, argv); }
#endif
