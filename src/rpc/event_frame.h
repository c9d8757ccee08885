#ifndef HGDB_RPC_EVENT_FRAME_H
#define HGDB_RPC_EVENT_FRAME_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpc/protocol.h"

namespace hgdb::rpc {

/// Length-prefixed binary event framing — the hot-event data plane.
///
/// JSON stop/value-change frames dominate event-path bandwidth once many
/// subscribers are attached, and every subscriber pays a full re-render.
/// Clients that opt in via the `connect` capability (`binary_events`)
/// receive pushed events as compact binary frames instead, while the
/// command channel stays JSON v2. On the wire one frame is
///
///   offset  size  field
///   0       4     payload length N (big-endian, bytes after this field)
///   4       1     magic 0xEB
///   5       1     frame format version (1)
///   6       1     kind (FrameKind)
///   7       1     flags (0, reserved)
///   8       ...   kind-specific per-client prefix
///   ...     ...   shared body (serialize-once, fanned out by reference)
///
/// The leading length field doubles as the SocketChannel's 4-byte framing:
/// writing a frame's raw bytes to the socket means the peer's ordinary
/// Channel::receive() hands back `[magic .. body]` as one message, and a
/// JSON message can never be confused with one (no JSON text starts with
/// 0xEB). Inside the body all integers are little-endian fixed-width and
/// strings are u32-length-prefixed bytes.
///
/// The split between prefix and body is what makes zero-copy fan-out work:
/// the body is serialized once per event into a refcounted SharedFrame and
/// every subscriber's queue holds only the small per-client prefix plus a
/// reference to that body (OutboundFrame).

constexpr uint8_t kEventFrameMagic = 0xEB;
constexpr uint8_t kEventFrameVersion = 1;

enum class FrameKind : uint8_t {
  Stop = 1,
  ValueChange = 2,
  Lifecycle = 3,
  BreakpointChanged = 4,
};

/// A `breakpoint-changed` notification: one client edited a shared
/// location and the other attached sessions are told. `action` is
/// "armed" or "disarmed"; `client` is the editing session's id.
struct BreakpointChangeEvent {
  std::string action;
  std::string filename;
  uint32_t line = 0;
  std::string condition;
  uint64_t client = 0;
};

/// Immutable refcounted frame body: serialized once, shared by every
/// subscriber's outbound queue. Copying a SharedFrame bumps a refcount,
/// never the bytes.
class SharedFrame {
 public:
  SharedFrame() = default;

  static SharedFrame take(std::string&& bytes) {
    SharedFrame frame;
    frame.bytes_ = std::make_shared<const std::string>(std::move(bytes));
    return frame;
  }

  [[nodiscard]] const std::string& bytes() const { return *bytes_; }
  [[nodiscard]] size_t size() const { return bytes_ ? bytes_->size() : 0; }
  explicit operator bool() const { return bytes_ != nullptr; }

 private:
  std::shared_ptr<const std::string> bytes_;
};

/// One queued outbound message: a small inline header (the 4-byte length
/// prefix, the frame preamble, and any per-client prefix) plus a shared
/// body. JSON passthrough messages (responses on a binary session) use a
/// length-only header with the JSON text as the body.
struct OutboundFrame {
  static constexpr size_t kMaxHeader = 24;
  std::array<uint8_t, kMaxHeader> header{};
  uint32_t header_size = 0;
  SharedFrame body;

  [[nodiscard]] size_t size() const {
    return header_size + body.size();
  }
  /// The frame as the peer's Channel::receive returns it (everything
  /// after the 4-byte length prefix).
  [[nodiscard]] std::string channel_message() const;
};

// -- body encoders (serialize once, share via SharedFrame) --------------------

SharedFrame encode_stop_body(const StopEvent& event);
SharedFrame encode_lifecycle_body(std::string_view reason);
SharedFrame encode_breakpoint_change_body(const BreakpointChangeEvent& event);

/// Encodes a value-change body from any container of entries carrying
/// `signal` (string), `value` (string) and `width` (u32) — the session
/// layer's Change type and the decoder's entry type both qualify.
namespace detail {
void append_u32(std::string& out, uint32_t value);
void append_u64(std::string& out, uint64_t value);
void append_str(std::string& out, std::string_view value);
}  // namespace detail

template <typename Changes>
SharedFrame encode_value_change_body(uint64_t time, const Changes& changes) {
  std::string out;
  detail::append_u64(out, time);
  detail::append_u32(out, static_cast<uint32_t>(changes.size()));
  for (const auto& change : changes) {
    detail::append_str(out, change.signal);
    detail::append_str(out, change.value);
    detail::append_u32(out, change.width);
  }
  return SharedFrame::take(std::move(out));
}

// -- frame assembly (per-client header + shared body) -------------------------

/// Frames a shared body for kinds with no per-client prefix (Stop,
/// Lifecycle, BreakpointChanged).
OutboundFrame make_event_frame(FrameKind kind, SharedFrame body);
/// Frames a value-change body; the subscription id rides in the
/// per-client prefix so the body stays shareable across subscribers.
OutboundFrame make_value_change_frame(uint64_t subscription, SharedFrame body);
/// Wraps JSON text (a response or a legacy event) for a binary session's
/// queue: length-only header, text as body.
OutboundFrame make_text_frame(std::string text);
/// Wraps already-framed bytes for a writer queue verbatim — no length
/// prefix at all. For transports with their own framing (the DAP front
/// end's Content-Length messages) that still need the writer's bounded
/// queues and non-blocking flush.
OutboundFrame make_raw_frame(std::string bytes);

// -- client-side decode -------------------------------------------------------

/// True when a received Channel message is a binary event frame (first
/// byte is the magic). JSON messages can never match.
[[nodiscard]] bool is_event_frame(std::string_view message);

/// A decoded event frame; `kind` selects which member is meaningful.
struct DecodedEventFrame {
  FrameKind kind = FrameKind::Stop;
  StopEvent stop;
  struct ValueChange {
    uint64_t subscription = 0;
    uint64_t time = 0;
    struct Change {
      std::string signal;
      std::string value;
      uint32_t width = 0;
    };
    std::vector<Change> changes;
  } value_change;
  std::string lifecycle;
  BreakpointChangeEvent breakpoint_change;
};

/// Decodes a binary event frame (the Channel message, i.e. bytes after
/// the 4-byte length prefix). Throws std::runtime_error on malformed or
/// truncated input.
DecodedEventFrame decode_event_frame(std::string_view message);

}  // namespace hgdb::rpc

#endif  // HGDB_RPC_EVENT_FRAME_H
