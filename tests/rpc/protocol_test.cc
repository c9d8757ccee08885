#include "rpc/protocol.h"

#include <gtest/gtest.h>

#include <set>

#include "rpc/protocol_v2.h"

namespace hgdb::rpc {
namespace {

/// Sends a stop through the whole wire path a JSON client sees:
/// stop_event_payload -> serialize_event_v2 -> parse_server_message_v2 ->
/// stop_event_fields.
StopEvent round_trip(const StopEvent& event) {
  const auto message = parse_server_message_v2(
      serialize_event_v2(EventV2{"stop", stop_event_payload(event)}));
  EXPECT_EQ(message.kind, ServerMessageV2::Kind::Event);
  EXPECT_EQ(message.event.event, "stop");
  return stop_event_fields(message.event.payload);
}

TEST(Protocol, AllCommandsRoundTrip) {
  // Every execution command has its own wire name, and the name survives
  // the request envelope.
  std::set<std::string> names;
  for (Command command :
       {Command::Continue, Command::Pause, Command::StepOver, Command::StepBack,
        Command::ReverseContinue, Command::Jump, Command::Detach}) {
    RequestV2 request;
    request.command = command_name(command);
    const auto decoded = parse_request_v2(serialize_request_v2(request));
    ASSERT_TRUE(decoded.ok()) << request.command;
    EXPECT_EQ(decoded.request.command, request.command);
    names.insert(request.command);
  }
  EXPECT_EQ(names.size(), 7u);
  EXPECT_STREQ(command_name(Command::StepOver), "step-over");
}

TEST(Protocol, TruncatedRequestPrefixesNeverCrash) {
  RequestV2 request;
  request.command = "breakpoint-add";
  request.token = 3;
  request.payload["filename"] = common::Json("gen.cc");
  request.payload["line"] = common::Json(int64_t{12});
  request.payload["condition"] = common::Json("sum > 4");
  const std::string full = serialize_request_v2(request);
  // parse_request_v2 never throws: every strict prefix is an incomplete
  // JSON object and decodes to a typed error.
  for (size_t length = 0; length < full.size(); ++length) {
    const auto decoded = parse_request_v2(full.substr(0, length));
    EXPECT_EQ(decoded.error, ErrorCode::MalformedRequest)
        << "prefix length " << length;
  }
  EXPECT_TRUE(parse_request_v2(full).ok());
}

TEST(Protocol, MalformedServerMessagesAlwaysThrowRuntimeError) {
  // Hardening guarantee for the client side: a stop event whose payload
  // has wrong-typed fields is a std::runtime_error, never another
  // exception type (broken envelopes: ServerMessageParserRejectsGarbage).
  for (const char* text : {
           R"({"version":2,"type":"event","event":"stop","payload":[]})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"time":"later"}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"time":1,"frames":5}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"time":1,"frames":[42]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"frames":[{"locals":[]}]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"frames":[{"generator":"x"}]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"frames":[{"line":"seven"}]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"frames":[{"instance_name":4}]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"frames":[{"matched_conditions":"a"}]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"frames":[{"matched_conditions":[1]}]}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"watches":{}}})",
           R"({"version":2,"type":"event","event":"stop",)"
           R"("payload":{"watches":[{"old":5}]}})",
       }) {
    try {
      const auto message = parse_server_message_v2(text);
      (void)stop_event_fields(message.event.payload);
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error&) {
    } catch (...) {
      FAIL() << "wrong exception type for: " << text;
    }
  }
}

TEST(Protocol, OptionalFieldsStayOptional) {
  // Absent stop fields default; only present but ill-typed ones throw.
  const auto empty = stop_event_fields(common::Json::object());
  EXPECT_EQ(empty.time, 0u);
  EXPECT_TRUE(empty.frames.empty());
  EXPECT_TRUE(empty.watch_hits.empty());

  const auto stop = stop_event_fields(
      common::Json::parse(R"({"time":5,"frames":[{"line":7}]})"));
  ASSERT_EQ(stop.frames.size(), 1u);
  const Frame& frame = stop.frames[0];
  EXPECT_EQ(frame.line, 7u);
  EXPECT_EQ(frame.column, 0u);
  EXPECT_TRUE(frame.filename.empty());
  EXPECT_TRUE(frame.locals.is_object());
  EXPECT_EQ(frame.locals.size(), 0u);
  EXPECT_TRUE(frame.matched_conditions.empty());
}

TEST(Protocol, StopEventRoundTripWithFrames) {
  StopEvent event;
  event.time = 1024;
  Frame frame;
  frame.breakpoint_id = 3;
  frame.instance_id = 2;
  frame.instance_name = "Top.child";
  frame.filename = "gen.cc";
  frame.line = 21;
  frame.column = 4;
  insert_nested(frame.locals, "sum", common::Json("42"));
  insert_nested(frame.locals, "i", common::Json("1"));
  insert_nested(frame.generator, "io.out.bits", common::Json("7"));
  event.frames.push_back(frame);

  const StopEvent parsed_event = round_trip(event);
  EXPECT_EQ(parsed_event.time, 1024u);
  ASSERT_EQ(parsed_event.frames.size(), 1u);
  const Frame& parsed = parsed_event.frames[0];
  EXPECT_EQ(parsed.breakpoint_id, 3);
  EXPECT_EQ(parsed.instance_id, 2);
  EXPECT_EQ(parsed.instance_name, "Top.child");
  EXPECT_EQ(parsed.filename, "gen.cc");
  EXPECT_EQ(parsed.line, 21u);
  EXPECT_EQ(parsed.column, 4u);
  EXPECT_EQ(parsed.locals.get_string("sum"), "42");
  EXPECT_EQ(parsed.locals.get_string("i"), "1");
  // Bundle re-aggregation survives the wire format.
  EXPECT_EQ(parsed.generator.get("io")->get().get("out")->get().get_string("bits"),
            "7");
}

TEST(Protocol, MatchedConditionsOmittedWhenEmpty) {
  StopEvent event;
  event.time = 12;
  Frame frame;
  frame.line = 7;
  event.frames.push_back(frame);
  // Unconditional stop: the key is absent from the wire, not an empty list.
  EXPECT_FALSE(stop_event_payload(event)["frames"].at(0).contains(
      "matched_conditions"));
  EXPECT_TRUE(round_trip(event).frames[0].matched_conditions.empty());

  event.frames[0].matched_conditions = {"sum > 4", "i == 1"};
  const StopEvent parsed = round_trip(event);
  EXPECT_EQ(parsed.frames[0].matched_conditions,
            (std::vector<std::string>{"sum > 4", "i == 1"}));
}

TEST(Protocol, InsertNestedBuildsBundleTree) {
  common::Json object = common::Json::object();
  insert_nested(object, "io.a.b", common::Json("1"));
  insert_nested(object, "io.a.c", common::Json("2"));
  insert_nested(object, "flat", common::Json("3"));
  EXPECT_EQ(object.dump(), R"({"flat":"3","io":{"a":{"b":"1","c":"2"}}})");
}

TEST(Protocol, InsertNestedOverwritesLeaf) {
  common::Json object = common::Json::object();
  insert_nested(object, "x.y", common::Json("1"));
  insert_nested(object, "x.y", common::Json("2"));
  EXPECT_EQ(object.get("x")->get().get_string("y"), "2");
}

TEST(Protocol, EmptyStopEventAllowed) {
  // Reverse execution bottoming out sends a frame-less stop.
  StopEvent event;
  event.time = 3;
  const StopEvent parsed = round_trip(event);
  EXPECT_EQ(parsed.time, 3u);
  EXPECT_TRUE(parsed.frames.empty());
}

}  // namespace
}  // namespace hgdb::rpc
