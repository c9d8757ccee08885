#include "rpc/event_writer.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace hgdb::rpc {

namespace {

/// iovec spans coalesced into one sendmsg. Each queued frame contributes
/// up to two spans (inline header + shared body), so 64 spans flush up
/// to 32 frames per syscall.
constexpr size_t kMaxIov = 64;

}  // namespace

EventWriter::EventWriter(const Options& options)
    : max_queue_frames_(options.max_queue_frames),
      max_queue_bytes_(options.max_queue_bytes),
      disconnect_on_overflow_(options.disconnect_on_overflow) {
  if (options.metrics != nullptr) {
    events_dropped_ = &options.metrics->counter("rpc.writer.events_dropped");
    queue_depth_ = &options.metrics->histogram("rpc.writer.queue_depth");
  }
  if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("event writer: pipe2 failed");
  }
}

EventWriter::~EventWriter() {
  stop_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

uint64_t EventWriter::add_target(Target target) {
  if (target.fd < 0) {
    throw std::invalid_argument("event writer: target has no socket");
  }
  const common::LockGuard lock(mutex_);
  const uint64_t id = next_id_++;
  TargetState& state = targets_[id];
  state.fd = target.fd;
  state.on_dead = std::move(target.on_dead);
  state.bytes_sent = target.bytes_sent;
  if (!thread_started_) {
    thread_started_ = true;
    thread_ = std::thread([this] { loop(); });
  }
  return id;
}

EventWriter::Enqueue EventWriter::enqueue(uint64_t id, OutboundFrame frame,
                                          bool force) {
  std::vector<std::function<void()>> deferred;
  bool disconnected = false;
  {
    const common::LockGuard lock(mutex_);
    auto it = targets_.find(id);
    if (it == targets_.end() || it->second.dead) return Enqueue::Dead;
    TargetState& state = it->second;
    const size_t frame_size = frame.size();
    const bool over_frames =
        max_queue_frames_ != 0 && state.queue.size() >= max_queue_frames_;
    const bool over_bytes =
        max_queue_bytes_ != 0 &&
        state.queued_bytes + frame_size > max_queue_bytes_;
    if (!force && (over_frames || over_bytes)) {
      if (events_dropped_ != nullptr) events_dropped_->add();
      if (!disconnect_on_overflow_) return Enqueue::Dropped;
      mark_dead_locked(state, deferred);
      disconnected = true;
    } else {
      state.queued_bytes += frame_size;
      state.queue.push_back(Pending{std::move(frame), 0});
      if (queue_depth_ != nullptr) queue_depth_->record(state.queue.size());
    }
  }
  if (disconnected) {
    if (!deferred.empty()) run_deferred(deferred);
    return Enqueue::Dropped;
  }
  wake();
  return Enqueue::Queued;
}

void EventWriter::remove_target(uint64_t id) {
  common::UniqueLock lock(mutex_);
  targets_.erase(id);
  // A callback taken before the erase may still be running off-lock;
  // once it retires, nothing of this target can run.
  while (callbacks_in_flight_ != 0) callbacks_done_.wait(lock);
}

bool EventWriter::drain(uint64_t id, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  wake();
  while (true) {
    {
      const common::LockGuard lock(mutex_);
      auto it = targets_.find(id);
      if (it == targets_.end() || it->second.dead) return false;
      if (it->second.queue.empty()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    // The loop thread flushes as fast as the socket accepts; polling here
    // (off-lock) is a teardown-only cost.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void EventWriter::wake() {
  const char byte = 0;
  // Full pipe means a wake is already pending — that is all we need.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

bool EventWriter::flush_fd_locked(TargetState& target) {
  while (!target.queue.empty()) {
    struct iovec iov[kMaxIov];
    size_t iov_count = 0;
    size_t span_bytes = 0;
    for (const Pending& pending : target.queue) {
      if (iov_count + 2 > kMaxIov) break;
      const OutboundFrame& frame = pending.frame;
      size_t skip = pending.offset;
      if (skip < frame.header_size) {
        iov[iov_count].iov_base =
            const_cast<uint8_t*>(frame.header.data()) + skip;
        iov[iov_count].iov_len = frame.header_size - skip;
        span_bytes += iov[iov_count].iov_len;
        ++iov_count;
        skip = 0;
      } else {
        skip -= frame.header_size;
      }
      if (frame.body.size() > skip) {
        iov[iov_count].iov_base =
            const_cast<char*>(frame.body.bytes().data()) + skip;
        iov[iov_count].iov_len = frame.body.size() - skip;
        span_bytes += iov[iov_count].iov_len;
        ++iov_count;
      }
    }
    if (iov_count == 0) break;
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t written =
        ::sendmsg(target.fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // peer gone / hard error
    }
    if (target.bytes_sent != nullptr) {
      target.bytes_sent->add(static_cast<uint64_t>(written));
    }
    size_t remaining = static_cast<size_t>(written);
    while (remaining > 0 && !target.queue.empty()) {
      Pending& front = target.queue.front();
      const size_t left = front.frame.size() - front.offset;
      if (remaining >= left) {
        remaining -= left;
        target.queued_bytes -= front.frame.size();
        target.queue.pop_front();
      } else {
        front.offset += remaining;
        remaining = 0;
      }
    }
    // Short write: the socket buffer is full — wait for POLLOUT.
    if (static_cast<size_t>(written) < span_bytes) return true;
  }
  return true;
}

void EventWriter::flush_all_locked(
    std::vector<std::function<void()>>& deferred) {
  for (auto& [id, target] : targets_) {
    if (target.dead || target.queue.empty()) continue;
    if (!flush_fd_locked(target)) mark_dead_locked(target, deferred);
  }
}

void EventWriter::mark_dead_locked(
    TargetState& target, std::vector<std::function<void()>>& deferred) {
  target.dead = true;
  target.queue.clear();
  target.queued_bytes = 0;
  if (target.on_dead) {
    deferred.push_back(std::move(target.on_dead));
    ++callbacks_in_flight_;
  }
}

void EventWriter::run_deferred(std::vector<std::function<void()>>& deferred) {
  for (auto& callback : deferred) callback();
  const size_t ran = deferred.size();
  deferred.clear();
  {
    const common::LockGuard lock(mutex_);
    callbacks_in_flight_ -= ran;
  }
  callbacks_done_.notify_all();
}

void EventWriter::loop() {
  std::vector<std::function<void()>> deferred;
  std::vector<struct pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    {
      const common::LockGuard lock(mutex_);
      flush_all_locked(deferred);
      for (auto& [id, target] : targets_) {
        if (!target.dead && !target.queue.empty()) {
          fds.push_back({target.fd, POLLOUT, 0});
        }
      }
    }
    if (!deferred.empty()) run_deferred(deferred);
    if (stop_.load(std::memory_order_acquire)) break;
    (void)::poll(fds.data(), fds.size(), -1);
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
  }
}

}  // namespace hgdb::rpc
