#ifndef HGDB_RPC_EVENT_WRITER_H
#define HGDB_RPC_EVENT_WRITER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string_view>
#include <thread>
#include <vector>

#include "common/checked_mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "rpc/event_frame.h"

namespace hgdb::rpc {

/// Async batched event writer: per-target bounded outbound queues drained
/// by one poll() readiness loop that coalesces queued frames into single
/// scatter writes.
///
/// The producer side (the simulation / delivery thread) never touches a
/// socket: enqueue() is a bounded push under the writer mutex plus a wake
/// write. The loop thread flushes each target with non-blocking
/// sendmsg(iov[]) until EAGAIN, then polls the still-pending fds for
/// POLLOUT — one stalled subscriber parks *its own queue* against its own
/// socket buffer while every other target keeps draining.
///
/// Slow-client policy: a queue is bounded by frames and bytes
/// (EventWriterOptions). An enqueue that would exceed either bound drops
/// the frame (newest-dropped), bumps the shared `rpc.writer.events_dropped`
/// counter, and — when `disconnect_on_overflow` — marks the target dead
/// and fires its on_dead callback. Responses are enqueued with
/// `force = true`: they are request-paced, so they bypass the bound
/// rather than vanish mid-handshake.
///
/// Every target is a socket: TCP connections and in-process socketpairs
/// (rpc::make_channel_pair) flush through the same sendmsg path.
///
/// Locking: one WriterMutex (rank rpc::writer, 15) guards the target
/// table and all queues. Flushes run *with the mutex held* — sendmsg is
/// non-blocking by construction (MSG_DONTWAIT) — so no fd is in use once
/// remove_target() returns. on_dead callbacks are deferred and run with
/// the mutex released; remove_target() waits for any that are in flight.
class EventWriter {
 public:
  struct Options {
    /// Per-target queue bound in frames; 0 = unbounded (not recommended).
    size_t max_queue_frames = 1024;
    /// Per-target queue bound in bytes (headers + shared-body sizes).
    size_t max_queue_bytes = 8u << 20;
    /// Kill a target on overflow instead of silently thinning its stream.
    bool disconnect_on_overflow = false;
    /// Registry for queue-depth / drop metrics; nullptr disables them.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// One delivery endpoint: a connected socket the writer flushes with
  /// non-blocking sendmsg.
  struct Target {
    int fd = -1;
    /// Fired (off-lock) when the target dies: a write error on the
    /// writer thread, or an overflow disconnect on the enqueuing thread.
    /// Keep it minimal — mark the session dead and close its channel;
    /// never call back into the service layer or into remove_target().
    std::function<void()> on_dead;
    /// Per-front-end byte counter, bumped by flushed bytes. Optional.
    obs::Counter* bytes_sent = nullptr;
  };

  enum class Enqueue : uint8_t {
    Queued,   ///< accepted, will flush asynchronously
    Dropped,  ///< bounded queue full — frame sacrificed per policy
    Dead,     ///< target already dead or removed
  };

  explicit EventWriter(const Options& options);
  ~EventWriter();

  EventWriter(const EventWriter&) = delete;
  EventWriter& operator=(const EventWriter&) = delete;

  /// Registers a delivery endpoint; starts the loop thread on first use.
  /// Returns the id enqueue()/remove_target() address it by. Throws
  /// std::invalid_argument when `target.fd` is negative.
  uint64_t add_target(Target target) HGDB_EXCLUDES(mutex_);

  /// Queues a frame for a target. `force` bypasses the queue bound
  /// (responses / handshake traffic — request-paced, must not vanish).
  Enqueue enqueue(uint64_t id, OutboundFrame frame, bool force = false)
      HGDB_EXCLUDES(mutex_);

  /// Unregisters a target and discards its queue. On return the writer
  /// holds no reference to the target's fd and no on_dead callback is
  /// running or will run. Idempotent.
  void remove_target(uint64_t id) HGDB_EXCLUDES(mutex_);

  /// Blocks until the target's queue is empty, the target is dead or
  /// unknown, or `timeout` elapses; true when the queue fully flushed.
  /// Teardown helper: a session's final response (disconnect ack,
  /// session-limit rejection) is still queued when the reader thread
  /// reaches cleanup, and remove_target would discard it.
  bool drain(uint64_t id, std::chrono::milliseconds timeout)
      HGDB_EXCLUDES(mutex_);

 private:
  struct Pending {
    OutboundFrame frame;
    size_t offset = 0;  ///< bytes of `frame` already written
  };

  struct TargetState {
    int fd = -1;
    std::function<void()> on_dead;
    obs::Counter* bytes_sent = nullptr;
    std::deque<Pending> queue;
    size_t queued_bytes = 0;
    bool dead = false;
  };

  void loop();
  /// Flushes every target with pending frames; targets that error are
  /// marked dead and their on_dead moved into `deferred`.
  void flush_all_locked(std::vector<std::function<void()>>& deferred)
      HGDB_REQUIRES(mutex_);
  /// Writes as much of one fd-target's queue as the socket accepts,
  /// coalescing up to kMaxIov spans per sendmsg. Returns false on a dead
  /// socket (caller marks the target dead).
  bool flush_fd_locked(TargetState& target) HGDB_REQUIRES(mutex_);
  /// Marks a target dead and moves its on_dead into `deferred`, counting
  /// it in callbacks_in_flight_.
  void mark_dead_locked(TargetState& target,
                        std::vector<std::function<void()>>& deferred)
      HGDB_REQUIRES(mutex_);
  /// Runs deferred on_dead callbacks off-lock, then retires them from
  /// callbacks_in_flight_.
  void run_deferred(std::vector<std::function<void()>>& deferred)
      HGDB_EXCLUDES(mutex_);
  void wake();

  const size_t max_queue_frames_;
  const size_t max_queue_bytes_;
  const bool disconnect_on_overflow_;
  // Resolved from the registry in the constructor (the registry map locks
  // at rank obs, *above* the writer mutex — never resolve under mutex_).
  // Counter::add / Histogram::record themselves are lock-free, so
  // recording under mutex_ is fine.
  obs::Counter* events_dropped_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;

  common::WriterMutex mutex_{"rpc::writer"};
  std::map<uint64_t, TargetState> targets_ HGDB_GUARDED_BY(mutex_);
  uint64_t next_id_ HGDB_GUARDED_BY(mutex_) = 1;
  bool thread_started_ HGDB_GUARDED_BY(mutex_) = false;
  /// on_dead callbacks taken from dead targets and not yet finished.
  size_t callbacks_in_flight_ HGDB_GUARDED_BY(mutex_) = 0;
  std::condition_variable_any callbacks_done_;

  std::atomic<bool> stop_{false};
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
};

}  // namespace hgdb::rpc

#endif  // HGDB_RPC_EVENT_WRITER_H
