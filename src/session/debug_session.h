#ifndef HGDB_SESSION_DEBUG_SESSION_H
#define HGDB_SESSION_DEBUG_SESSION_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "rpc/channel.h"
#include "rpc/event_writer.h"
#include "session/debug_service.h"

namespace hgdb::session {

/// One attached native-protocol client: its transport endpoint and event
/// encoding. Created and driven by SessionManager, which runs one reader
/// thread per session; send() is safe from any thread (responses from the
/// session thread, pushed events from the simulation thread). All
/// outbound traffic goes through the EventWriter target the manager
/// registered for the channel's socket.
///
/// All debugging state — breakpoint/watch ownership, engagement,
/// subscriptions — lives in the DebugService client registry; the session
/// is purely the transport + wire-format half, and receives pushed events
/// as the client's EventSink (rendering them as v2 JSON events, or
/// enqueuing binary frames once the client opted in).
class DebugSession final : public EventSink {
 public:
  /// `writer_target` is `writer`'s target for `channel`'s socket; the
  /// caller removes it before the session is destroyed.
  DebugSession(ClientId id, std::unique_ptr<rpc::Channel> channel,
               rpc::EventWriter& writer, uint64_t writer_target);

  DebugSession(const DebugSession&) = delete;
  DebugSession& operator=(const DebugSession&) = delete;

  [[nodiscard]] ClientId id() const { return id_; }

  /// Set when the service rejected the client (session limit): the first
  /// request is answered with the stored error, then the session closes.
  [[nodiscard]] bool rejected() const { return rejected_; }
  void mark_rejected() { rejected_ = true; }

  // -- transport ---------------------------------------------------------------
  /// Thread-safe send for responses; returns false (and marks the session
  /// dead) once the peer is gone. Enqueues with force=true (responses are
  /// request-paced, they must not vanish mid-handshake) — a second direct
  /// writer on the same fd would interleave with event frames and corrupt
  /// the framing.
  bool send(const std::string& text);
  /// Thread-safe send for pushed events: same routing as send() but
  /// subject to the bounded-queue slow-client policy (force=false), so a
  /// stalled JSON subscriber sheds events instead of blocking the
  /// delivery thread.
  bool send_event(const std::string& text);
  /// Blocking receive on the session's reader thread.
  std::optional<std::string> receive() { return channel_->receive(); }
  void close() { channel_->close(); }

  [[nodiscard]] bool alive() const {
    return alive_.load(std::memory_order_acquire);
  }
  void mark_dead() { alive_.store(false, std::memory_order_release); }

  /// Set by the `disconnect` handler: the reader loop exits after the
  /// response is flushed.
  std::atomic<bool> close_requested{false};

  /// The reader thread sets this as its final statement: past this point
  /// it holds no locks, so joining the thread cannot deadlock.
  void set_reapable() { reapable_.store(true, std::memory_order_release); }
  [[nodiscard]] bool reapable() const {
    return reapable_.load(std::memory_order_acquire);
  }

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
  [[nodiscard]] uint64_t writer_target() const { return writer_target_; }

  // -- EventSink ---------------------------------------------------------------
  /// Renders a pushed service event in this session's event encoding and
  /// sends it. Lifecycle events reach binary sessions as frames but are
  /// not on the native JSON wire.
  bool deliver(const ServiceEvent& event) override;

 private:
  /// Queues a frame on the writer; Dead marks the session dead. Dropped
  /// returns true — the client stays attached, the event was sacrificed
  /// by the slow-client policy (and counted).
  bool enqueue(rpc::OutboundFrame frame, bool force);

  const ClientId id_;
  std::unique_ptr<rpc::Channel> channel_;
  std::atomic<bool> alive_{true};
  std::atomic<bool> reapable_{false};
  std::atomic<bool> binary_{false};
  bool rejected_ = false;
  rpc::EventWriter& writer_;
  const uint64_t writer_target_;
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_DEBUG_SESSION_H
