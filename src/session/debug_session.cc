#include "session/debug_session.h"

#include "common/json.h"
#include "rpc/event_frame.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"

namespace hgdb::session {

using common::Json;

DebugSession::DebugSession(ClientId id, std::unique_ptr<rpc::Channel> channel,
                           rpc::EventWriter& writer, uint64_t writer_target)
    : id_(id),
      channel_(std::move(channel)),
      writer_(writer),
      writer_target_(writer_target) {}

bool DebugSession::send(const std::string& text) {
  // force: responses are request-paced, they bypass the event-queue
  // bound rather than vanish mid-handshake.
  return enqueue(rpc::make_text_frame(text), /*force=*/true);
}

bool DebugSession::send_event(const std::string& text) {
  return enqueue(rpc::make_text_frame(text), /*force=*/false);
}

bool DebugSession::enqueue(rpc::OutboundFrame frame, bool force) {
  if (!alive()) return false;
  switch (writer_.enqueue(writer_target_, std::move(frame), force)) {
    case rpc::EventWriter::Enqueue::Queued:
      return true;
    case rpc::EventWriter::Enqueue::Dropped:
      // Slow-client policy fired: the event is gone (and counted in
      // rpc.writer.events_dropped) but the client stays attached.
      return true;
    case rpc::EventWriter::Enqueue::Dead:
      mark_dead();
      return false;
  }
  return false;
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
      Json payload = Json::object();
      payload["subscription"] =
          Json(static_cast<int64_t>(event.value_change.subscription));
      payload["time"] = Json(static_cast<int64_t>(event.value_change.time));
      Json changes = Json::array();
      for (const auto& change : event.value_change.changes) {
        Json entry = Json::object();
        entry["signal"] = Json(change.signal);
        entry["value"] = Json(change.value);
        entry["width"] = Json(static_cast<int64_t>(change.width));
        changes.push_back(std::move(entry));
      }
      payload["changes"] = std::move(changes);
      return send_event(
          rpc::serialize_event_v2(rpc::EventV2{"values", std::move(payload)}));
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
      Json payload = Json::object();
      payload["action"] = Json(event.breakpoint_change.action);
      payload["filename"] = Json(event.breakpoint_change.filename);
      payload["line"] =
          Json(static_cast<int64_t>(event.breakpoint_change.line));
      payload["condition"] = Json(event.breakpoint_change.condition);
      payload["client"] =
          Json(static_cast<int64_t>(event.breakpoint_change.client));
      return send_event(rpc::serialize_event_v2(
          rpc::EventV2{"breakpoint-changed", std::move(payload)}));
    }
  }
  return true;
}

}  // namespace hgdb::session
