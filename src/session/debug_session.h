#ifndef HGDB_SESSION_DEBUG_SESSION_H
#define HGDB_SESSION_DEBUG_SESSION_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "rpc/channel.h"
#include "rpc/event_writer.h"
#include "session/debug_service.h"

namespace hgdb::session {

/// One attached native-protocol client: its transport endpoint and event
/// encoding. Created and driven by SessionManager, which runs one reader
/// thread per session; send() is safe from any thread (responses from the
/// session thread, pushed events from the simulation thread).
///
/// All debugging state — breakpoint/watch ownership, engagement,
/// subscriptions — lives in the DebugService client registry; the session
/// is purely the transport + wire-format half, and receives pushed events
/// as the client's EventSink (rendering them as v2 JSON events, or
/// enqueuing binary frames once the client opted in).
class DebugSession final : public EventSink {
 public:
  DebugSession(ClientId id, std::unique_ptr<rpc::Channel> channel);

  DebugSession(const DebugSession&) = delete;
  DebugSession& operator=(const DebugSession&) = delete;

  [[nodiscard]] ClientId id() const { return id_; }

  /// Set when the service rejected the client (session limit): the first
  /// request is answered with the stored error, then the session closes.
  [[nodiscard]] bool rejected() const { return rejected_; }
  void mark_rejected() { rejected_ = true; }

  // -- transport ---------------------------------------------------------------
  /// Thread-safe send for responses; returns false (and marks the session
  /// dead) once the peer is gone. With a writer attached this enqueues
  /// with force=true (responses are request-paced, they must not vanish
  /// mid-handshake) — a second direct writer on the same fd would
  /// interleave with event frames and corrupt the framing.
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

  // -- async writer / binary events --------------------------------------------
  /// Routes all outbound traffic through `writer` target `target`: events
  /// enqueue under the bounded slow-client policy, responses with force.
  /// Called once per session by the manager, before the reader thread
  /// starts and before the service sink is attached, so every send and
  /// every delivered event observes it.
  void attach_writer(rpc::EventWriter* writer, uint64_t target) {
    writer_ = writer;
    writer_target_.store(target, std::memory_order_release);
  }
  [[nodiscard]] bool has_writer() const {
    return writer_target_.load(std::memory_order_acquire) != 0;
  }
  /// Switches pushed events to the compact binary frame encoding (the
  /// `connect {"binary_events": true}` capability opt-in). Transport
  /// routing is unchanged — the writer carries JSON sessions too.
  void enable_binary_events() {
    binary_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool binary_events() const {
    return binary_.load(std::memory_order_acquire);
  }
  [[nodiscard]] uint64_t writer_target() const {
    return writer_target_.load(std::memory_order_acquire);
  }
  /// The channel's socket descriptor (-1 for in-process channels).
  [[nodiscard]] int native_handle() const { return channel_->native_handle(); }
  /// Direct channel send, bypassing the writer: the EventWriter's
  /// fallback flush path for in-process channels, and the send() body for
  /// sessions with no writer attached (direct-construction tests).
  /// Returns false once the peer is gone.
  bool send_on_channel(const std::string& text);
  /// Counter for bytes written on the channel path (socket-path bytes are
  /// accounted by the writer's Target). Optional.
  void set_bytes_counter(obs::Counter* counter) { bytes_sent_ = counter; }

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
  /// Binary-events plumbing: writer_ is written before the release-store
  /// of writer_target_, and only ever read after an acquire-load sees the
  /// target — the usual publish pattern, no lock needed.
  rpc::EventWriter* writer_ = nullptr;
  std::atomic<uint64_t> writer_target_{0};
  obs::Counter* bytes_sent_ = nullptr;
};

}  // namespace hgdb::session

#endif  // HGDB_SESSION_DEBUG_SESSION_H
