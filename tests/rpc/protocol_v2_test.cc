#include "rpc/protocol_v2.h"

#include <gtest/gtest.h>

namespace hgdb::rpc {
namespace {

TEST(ProtocolV2, RequestRoundTrip) {
  RequestV2 request;
  request.command = "breakpoint-add";
  request.token = 42;
  request.payload["filename"] = common::Json("gen.cc");
  request.payload["line"] = common::Json(int64_t{7});
  const auto decoded = parse_request_v2(serialize_request_v2(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.request.command, "breakpoint-add");
  EXPECT_EQ(decoded.request.token, 42);
  EXPECT_EQ(decoded.request.payload.get_string("filename"), "gen.cc");
  EXPECT_EQ(decoded.request.payload.get_int("line"), 7);
}

TEST(ProtocolV2, MalformedEnvelopesDecodeToTypedErrorsWithoutThrowing) {
  // None of these may throw; all must produce malformed-request.
  for (const char* text : {
           "not json at all",
           "[1,2,3]",
           "42",
           R"({"command":"x","token":1})",              // no version
           R"({"version":1,"command":"x","token":1})",  // v1 version
           R"({"version":2,"token":1})",                // no command
           R"({"version":2,"command":"","token":1})",   // empty command
           R"({"version":2,"command":5,"token":1})",    // non-string command
           R"({"version":2,"command":"x","token":"a"})",
           R"({"version":2,"command":"x","token":1,"payload":[]})",
       }) {
    const auto decoded = parse_request_v2(text);
    EXPECT_FALSE(decoded.ok()) << text;
    EXPECT_EQ(decoded.error, ErrorCode::MalformedRequest) << text;
    EXPECT_FALSE(decoded.reason.empty()) << text;
  }
}

TEST(ProtocolV2, TokenSurvivesBrokenEnvelope) {
  // Error responses must correlate back to the request when possible.
  const auto decoded = parse_request_v2(R"({"version":2,"token":9})");
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.request.token, 9);
}

TEST(ProtocolV2, ResponseRoundTrip) {
  ResponseV2 response;
  response.command = "evaluate";
  response.token = 17;
  response.payload["result"] = common::Json("255");
  const auto message = parse_server_message_v2(serialize_response_v2(response));
  EXPECT_EQ(message.kind, ServerMessageV2::Kind::Response);
  EXPECT_TRUE(message.response.ok());
  EXPECT_EQ(message.response.command, "evaluate");
  EXPECT_EQ(message.response.token, 17);
  EXPECT_EQ(message.response.payload.get_string("result"), "255");
}

TEST(ProtocolV2, ErrorResponseCarriesTypedCode) {
  ResponseV2 response;
  response.command = "jump";
  response.token = 3;
  response.fail(ErrorCode::UnsupportedCapability, "no time travel");
  const auto message = parse_server_message_v2(serialize_response_v2(response));
  EXPECT_FALSE(message.response.ok());
  EXPECT_EQ(message.response.error, ErrorCode::UnsupportedCapability);
  EXPECT_EQ(message.response.reason, "no time travel");
}

TEST(ProtocolV2, EveryErrorCodeHasAStableWireName) {
  for (auto code : {ErrorCode::None, ErrorCode::MalformedRequest,
                    ErrorCode::UnknownCommand, ErrorCode::InvalidPayload,
                    ErrorCode::UnsupportedCapability, ErrorCode::InvalidState,
                    ErrorCode::NoSuchLocation, ErrorCode::NoSuchEntity,
                    ErrorCode::EvaluationFailed, ErrorCode::InternalError}) {
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_EQ(error_code_from_name("totally-unknown"), ErrorCode::InternalError);
}

TEST(ProtocolV2, EventRoundTripWithStopPayload) {
  StopEvent stop;
  stop.time = 64;
  Frame frame;
  frame.breakpoint_id = 2;
  frame.instance_name = "Top.child";
  frame.filename = "gen.cc";
  frame.line = 9;
  insert_nested(frame.locals, "io.a", common::Json("5"));
  stop.frames.push_back(frame);
  stop.watch_hits.push_back(WatchHit{4, "sum", "10", "11"});

  EventV2 event{"stop", stop_event_payload(stop)};
  const auto message = parse_server_message_v2(serialize_event_v2(event));
  EXPECT_EQ(message.kind, ServerMessageV2::Kind::Event);
  EXPECT_EQ(message.event.event, "stop");
  const StopEvent parsed = stop_event_fields(message.event.payload);
  EXPECT_EQ(parsed.time, 64u);
  ASSERT_EQ(parsed.frames.size(), 1u);
  EXPECT_EQ(parsed.frames[0].instance_name, "Top.child");
  EXPECT_EQ(
      parsed.frames[0].locals.get("io")->get().get_string("a"), "5");
  ASSERT_EQ(parsed.watch_hits.size(), 1u);
  EXPECT_EQ(parsed.watch_hits[0].id, 4);
  EXPECT_EQ(parsed.watch_hits[0].old_value, "10");
  EXPECT_EQ(parsed.watch_hits[0].new_value, "11");
}

TEST(ProtocolV2, WatchHitsAppearInStopPayloadOnlyWhenPresent) {
  StopEvent stop;
  stop.time = 8;
  // No watches: the stop payload must not mention them at all.
  EXPECT_FALSE(stop_event_payload(stop).contains("watches"));

  stop.watch_hits.push_back(WatchHit{1, "x", "0", "1"});
  const auto message = parse_server_message_v2(
      serialize_event_v2(EventV2{"stop", stop_event_payload(stop)}));
  const StopEvent parsed = stop_event_fields(message.event.payload);
  ASSERT_EQ(parsed.watch_hits.size(), 1u);
  EXPECT_EQ(parsed.watch_hits[0].id, 1);
  EXPECT_EQ(parsed.watch_hits[0].expression, "x");
  EXPECT_EQ(parsed.watch_hits[0].old_value, "0");
  EXPECT_EQ(parsed.watch_hits[0].new_value, "1");
}

TEST(ProtocolV2, CapabilitiesRoundTrip) {
  Capabilities caps;
  caps.backend = "replay";
  caps.time_travel = true;
  caps.set_value = false;
  const auto parsed = Capabilities::from_json(caps.to_json());
  EXPECT_EQ(parsed.backend, "replay");
  EXPECT_TRUE(parsed.time_travel);
  EXPECT_FALSE(parsed.set_value);
  EXPECT_TRUE(parsed.multi_client);
  EXPECT_EQ(parsed.protocol_version, kProtocolV2);
}

TEST(ProtocolV2, IsV2EnvelopeSniffsVersions) {
  EXPECT_TRUE(is_v2_envelope(common::Json::parse(
      R"({"version":2,"command":"x"})")));
  EXPECT_FALSE(is_v2_envelope(common::Json::parse(R"({"type":"command"})")));
  EXPECT_FALSE(is_v2_envelope(common::Json::parse(R"({"version":1})")));
  EXPECT_FALSE(is_v2_envelope(common::Json::parse("[]")));
}

TEST(ProtocolV2, ServerMessageParserRejectsGarbage) {
  for (const char* text : {
           "nope",
           "{}",
           R"({"version":2})",
           R"({"version":2,"type":"bogus"})",
           R"({"version":2,"type":"response","status":"maybe"})",
           R"({"version":2,"type":"event"})",
       }) {
    EXPECT_THROW(parse_server_message_v2(text), std::runtime_error) << text;
  }
}

}  // namespace
}  // namespace hgdb::rpc
