#include "session/debug_session.h"

#include "common/json.h"
#include "rpc/event_frame.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"

namespace hgdb::session {

using common::Json;

bool Connection::enqueue(rpc::OutboundFrame frame, bool force) {
  if (!alive()) return false;
  switch (writer_.enqueue(writer_target_, std::move(frame), force)) {
    case rpc::EventWriter::Enqueue::Queued:
    case rpc::EventWriter::Enqueue::Dropped:
      return true;
    case rpc::EventWriter::Enqueue::Dead:
      mark_dead();
      return false;
  }
  return false;
}

Json value_change_payload(const ServiceEvent::ValueChange& change) {
  Json payload = Json::object();
  payload["subscription"] = Json(static_cast<int64_t>(change.subscription));
  payload["time"] = Json(static_cast<int64_t>(change.time));
  Json changes = Json::array();
  for (const auto& entry : change.changes) {
    Json item = Json::object();
    item["signal"] = Json(entry.signal);
    item["value"] = Json(entry.value);
    item["width"] = Json(static_cast<int64_t>(entry.width));
    changes.push_back(std::move(item));
  }
  payload["changes"] = std::move(changes);
  return payload;
}

Json breakpoint_change_payload(const rpc::BreakpointChangeEvent& change) {
  Json payload = Json::object();
  payload["action"] = Json(change.action);
  payload["filename"] = Json(change.filename);
  payload["line"] = Json(static_cast<int64_t>(change.line));
  payload["condition"] = Json(change.condition);
  payload["client"] = Json(static_cast<int64_t>(change.client));
  return payload;
}

DebugSession::DebugSession(std::unique_ptr<rpc::Channel> channel,
                           rpc::EventWriter& writer)
    : Connection(writer, channel->native_handle(),
                 [raw = channel.get()] { raw->close(); }),
      channel_(std::move(channel)) {}

bool DebugSession::send(const std::string& text) {
  return enqueue(rpc::make_text_frame(text), /*force=*/true);
}

bool DebugSession::send_event(const std::string& text) {
  return enqueue(rpc::make_text_frame(text), /*force=*/false);
}

bool DebugSession::deliver(const ServiceEvent& event) {
  const bool binary = binary_events();
  switch (event.kind) {
    case ServiceEvent::Kind::Stop: {
      if (binary) {
        // The fan-out normally pre-encodes once for all binary clients;
        // a direct deliver (tests) encodes on demand.
        rpc::SharedFrame body = event.binary_body
                                    ? event.binary_body
                                    : rpc::encode_stop_body(event.stop);
        return enqueue(
            rpc::make_event_frame(rpc::FrameKind::Stop, std::move(body)),
            /*force=*/false);
      }
      return send_event(rpc::serialize_event_v2(
          rpc::EventV2{"stop", rpc::stop_event_payload(event.stop)}));
    }
    case ServiceEvent::Kind::ValueChange: {
      if (binary) {
        rpc::SharedFrame body =
            event.binary_body
                ? event.binary_body
                : rpc::encode_value_change_body(event.value_change.time,
                                                event.value_change.changes);
        return enqueue(
            rpc::make_value_change_frame(event.value_change.subscription,
                                         std::move(body)),
            /*force=*/false);
      }
      return send_event(rpc::serialize_event_v2(
          rpc::EventV2{"values", value_change_payload(event.value_change)}));
    }
    case ServiceEvent::Kind::Lifecycle:
      if (binary) {
        return enqueue(
            rpc::make_event_frame(rpc::FrameKind::Lifecycle,
                                  rpc::encode_lifecycle_body(event.lifecycle)),
            /*force=*/false);
      }
      return true;  // not part of the native JSON wire format
    case ServiceEvent::Kind::BreakpointChanged: {
      if (binary) {
        rpc::SharedFrame body =
            event.binary_body
                ? event.binary_body
                : rpc::encode_breakpoint_change_body(event.breakpoint_change);
        return enqueue(rpc::make_event_frame(rpc::FrameKind::BreakpointChanged,
                                             std::move(body)),
                       /*force=*/false);
      }
      return send_event(rpc::serialize_event_v2(
          rpc::EventV2{"breakpoint-changed",
                       breakpoint_change_payload(event.breakpoint_change)}));
    }
  }
  return true;
}

}  // namespace hgdb::session
