#ifndef HGDB_SESSION_DEBUG_SESSION_H
#define HGDB_SESSION_DEBUG_SESSION_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/json.h"
#include "rpc/channel.h"
#include "rpc/event_writer.h"
#include "session/debug_service.h"

namespace hgdb::session {

/// One attached client of either protocol front end: the lifecycle half
/// that SessionManager's single registration, cleanup and shutdown path
/// drives — the DebugService client id, the EventWriter target for the
/// connection's socket, and the liveness flags. A front end derives from
/// it, owns its transport, runs its reader loop and renders pushed events
/// in deliver().
///
/// All debugging state — breakpoint/watch ownership, engagement,
/// subscriptions — lives in the DebugService client registry. All
/// outbound traffic goes through the writer target, so the reader and
/// simulation threads never write the socket directly.
class Connection : public EventSink {
 public:
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] ClientId id() const { return id_; }
  /// Set when the service rejected the client (session limit): the first
  /// request is answered with the typed error, then the connection closes.
  [[nodiscard]] bool rejected() const { return rejected_; }
  [[nodiscard]] uint64_t writer_target() const { return writer_target_; }
  /// The socket the writer target flushes to.
  [[nodiscard]] int fd() const { return fd_; }

  /// Closes the transport; a blocked reader wakes. Safe from any thread.
  void close() { close_(); }

  [[nodiscard]] bool alive() const {
    return alive_.load(std::memory_order_acquire);
  }
  void mark_dead() { alive_.store(false, std::memory_order_release); }

  /// Set by a `disconnect` request (or a limit rejection): the reader loop
  /// exits after the response is queued.
  std::atomic<bool> close_requested{false};

  /// The reader thread sets this as its final statement: past this point
  /// it holds no locks, so joining the thread cannot deadlock.
  void set_reapable() { reapable_.store(true, std::memory_order_release); }
  [[nodiscard]] bool reapable() const {
    return reapable_.load(std::memory_order_acquire);
  }

 protected:
  /// `fd` is the transport's socket; `close` closes that transport.
  Connection(rpc::EventWriter& writer, int fd, std::function<void()> close)
      : writer_(writer), fd_(fd), close_(std::move(close)) {}

  /// Queues a frame on the writer; Dead marks the connection dead. Dropped
  /// returns true — the client stays attached, the event was sacrificed by
  /// the slow-client policy (and counted in rpc.writer.events_dropped).
  /// `force` (responses) bypasses the event-queue bound: request-paced
  /// answers must not vanish mid-handshake.
  bool enqueue(rpc::OutboundFrame frame, bool force);

 private:
  friend class SessionManager;  // fills in the registration fields

  rpc::EventWriter& writer_;
  const int fd_;
  const std::function<void()> close_;
  ClientId id_ = 0;
  bool rejected_ = false;
  uint64_t writer_target_ = 0;
  std::atomic<bool> alive_{true};
  std::atomic<bool> reapable_{false};
};

/// The body of a pushed value-change event (`values` on the native wire,
/// `hgdbValues` over DAP).
common::Json value_change_payload(const ServiceEvent::ValueChange& change);
/// The body of a pushed breakpoint-change event (`breakpoint-changed` on
/// the native wire, `hgdbBreakpointChanged` over DAP).
common::Json breakpoint_change_payload(
    const rpc::BreakpointChangeEvent& change);

/// One attached native-protocol client: a message Channel carrying v2
/// JSON requests, with pushed events rendered as v2 JSON events or, once
/// the client opted in, as compact binary frames. SessionManager runs its
/// reader loop; send() is safe from any thread (responses from the reader
/// thread, pushed events from the simulation thread).
class DebugSession final : public Connection {
 public:
  DebugSession(std::unique_ptr<rpc::Channel> channel,
               rpc::EventWriter& writer);

  // -- transport ---------------------------------------------------------------
  /// Thread-safe send for responses; returns false (and marks the session
  /// dead) once the peer is gone. Enqueues with force=true — a second
  /// direct writer on the same fd would interleave with event frames and
  /// corrupt the framing.
  bool send(const std::string& text);
  /// Thread-safe send for pushed events: subject to the bounded-queue
  /// slow-client policy (force=false), so a stalled JSON subscriber sheds
  /// events instead of blocking the delivery thread.
  bool send_event(const std::string& text);
  /// Blocking receive on the session's reader thread.
  std::optional<std::string> receive() { return channel_->receive(); }

  // -- binary events -----------------------------------------------------------
  /// Switches pushed events to the compact binary frame encoding (the
  /// `connect {"binary_events": true}` capability opt-in). Transport
  /// routing is unchanged — the writer carries JSON sessions too.
  void enable_binary_events() {
    binary_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool binary_events() const {
    return binary_.load(std::memory_order_acquire);
  }

  // -- EventSink ---------------------------------------------------------------
  /// Renders a pushed service event in this session's event encoding and
  /// sends it. Lifecycle events reach binary sessions as frames but are
  /// not on the native JSON wire.
  bool deliver(const ServiceEvent& event) override;

 private:
  std::unique_ptr<rpc::Channel> channel_;
  std::atomic<bool> binary_{false};
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_DEBUG_SESSION_H
