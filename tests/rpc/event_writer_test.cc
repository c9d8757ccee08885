// EventWriter over Unix socketpair fds: the bounded-queue slow-client
// policy, forced responses, drain, target removal and dead-peer handling.
#include "rpc/event_writer.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "rpc/event_frame.h"

namespace hgdb::rpc {
namespace {

using namespace std::chrono_literals;
using Enqueue = EventWriter::Enqueue;

/// A connected socketpair: the writer flushes into `local`, the test
/// reads (or refuses to read) at `peer`. Declare it before the writer so
/// the writer stops touching `local` before the fds close.
struct SocketPair {
  int local = -1;
  int peer = -1;

  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    local = fds[0];
    peer = fds[1];
  }
  ~SocketPair() {
    if (local >= 0) ::close(local);
    close_peer();
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  void close_peer() {
    if (peer >= 0) ::close(peer);
    peer = -1;
  }

  /// Writes into `local` until the kernel refuses more, so every frame
  /// the writer queues afterwards stays queued until the peer reads.
  void fill_local() const {
    const std::string chunk(4096, 'f');
    while (::send(local, chunk.data(), chunk.size(),
                  MSG_DONTWAIT | MSG_NOSIGNAL) > 0) {
    }
  }

  /// Reads exactly `size` bytes at the peer; false on EOF or timeout.
  [[nodiscard]] bool read_peer(char* out, size_t size) const {
    size_t got = 0;
    while (got < size) {
      pollfd pfd{peer, POLLIN, 0};
      if (::poll(&pfd, 1, 2000) <= 0) return false;
      const ssize_t n = ::recv(peer, out + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<size_t>(n);
    }
    return true;
  }

  /// One length-prefixed message as the peer's Channel would see it.
  [[nodiscard]] std::optional<std::string> receive_message() const {
    unsigned char prefix[4];
    if (!read_peer(reinterpret_cast<char*>(prefix), sizeof(prefix))) {
      return std::nullopt;
    }
    const size_t length = (size_t{prefix[0]} << 24) |
                          (size_t{prefix[1]} << 16) |
                          (size_t{prefix[2]} << 8) | size_t{prefix[3]};
    std::string message(length, '\0');
    if (!read_peer(message.data(), length)) return std::nullopt;
    return message;
  }
};

/// Polls `done` for up to two seconds.
template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

EventWriter::Target target_for(int fd, std::function<void()> on_dead = {},
                               obs::Counter* bytes_sent = nullptr) {
  EventWriter::Target target;
  target.fd = fd;
  target.on_dead = std::move(on_dead);
  target.bytes_sent = bytes_sent;
  return target;
}

EventWriter::Options bounded(obs::MetricsRegistry& metrics, size_t frames) {
  EventWriter::Options options;
  options.max_queue_frames = frames;
  options.metrics = &metrics;
  return options;
}

TEST(EventWriter, FullQueueDropsAndCounts) {
  SocketPair pair;
  pair.fill_local();
  obs::MetricsRegistry metrics;
  EventWriter writer(bounded(metrics, 2));
  const uint64_t id = writer.add_target(target_for(pair.local));

  EXPECT_EQ(writer.enqueue(id, make_text_frame("a")), Enqueue::Queued);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("b")), Enqueue::Queued);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("c")), Enqueue::Dropped);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("d")), Enqueue::Dropped);
  EXPECT_EQ(metrics.counter("rpc.writer.events_dropped").value(), 2u);
  // Dropping thins the stream; the target stays attached.
  EXPECT_FALSE(writer.drain(id, 20ms));
  writer.remove_target(id);
}

TEST(EventWriter, ForceBypassesTheBound) {
  SocketPair pair;
  pair.fill_local();
  obs::MetricsRegistry metrics;
  EventWriter writer(bounded(metrics, 1));
  const uint64_t id = writer.add_target(target_for(pair.local));

  EXPECT_EQ(writer.enqueue(id, make_text_frame("event")), Enqueue::Queued);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("response"), /*force=*/true),
            Enqueue::Queued);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("late event")),
            Enqueue::Dropped);
  EXPECT_EQ(metrics.counter("rpc.writer.events_dropped").value(), 1u);
  writer.remove_target(id);
}

TEST(EventWriter, DrainReturnsTrueOnceFlushed) {
  SocketPair pair;
  obs::MetricsRegistry metrics;
  obs::Counter bytes_sent;
  EventWriter writer(bounded(metrics, 16));
  const uint64_t id =
      writer.add_target(target_for(pair.local, {}, &bytes_sent));

  size_t total = 0;
  for (const char* text : {"one", "two", "three"}) {
    OutboundFrame frame = make_text_frame(text);
    total += frame.size();
    ASSERT_EQ(writer.enqueue(id, std::move(frame)), Enqueue::Queued);
  }
  EXPECT_TRUE(writer.drain(id, 2000ms));
  EXPECT_EQ(bytes_sent.value(), total);
  EXPECT_EQ(pair.receive_message(), "one");
  EXPECT_EQ(pair.receive_message(), "two");
  EXPECT_EQ(pair.receive_message(), "three");
  writer.remove_target(id);
  EXPECT_FALSE(writer.drain(id, 20ms));  // unknown target
}

TEST(EventWriter, DrainWaitsForASlowPeer) {
  SocketPair pair;
  pair.fill_local();
  obs::MetricsRegistry metrics;
  EventWriter writer(bounded(metrics, 16));
  const uint64_t id = writer.add_target(target_for(pair.local));
  ASSERT_EQ(writer.enqueue(id, make_text_frame("behind the backlog")),
            Enqueue::Queued);
  EXPECT_FALSE(writer.drain(id, 20ms));

  // The peer catches up with the backlog; the writer's POLLOUT wakes and
  // the frame leaves the queue.
  char sink[4096];
  while (::recv(pair.peer, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
  }
  EXPECT_TRUE(writer.drain(id, 2000ms));
  writer.remove_target(id);
}

TEST(EventWriter, RemoveTargetIsIdempotentAndSilencesOnDead) {
  SocketPair pair;
  obs::MetricsRegistry metrics;
  std::atomic<int> deaths{0};
  EventWriter writer(bounded(metrics, 16));
  const uint64_t id =
      writer.add_target(target_for(pair.local, [&] { ++deaths; }));
  writer.remove_target(id);
  writer.remove_target(id);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("gone")), Enqueue::Dead);
  pair.close_peer();
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(deaths.load(), 0);
}

TEST(EventWriter, RemoveTargetWaitsForARunningOnDead) {
  SocketPair pair;
  obs::MetricsRegistry metrics;
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  EventWriter writer(bounded(metrics, 16));
  const uint64_t id = writer.add_target(target_for(pair.local, [&] {
    started = true;
    std::this_thread::sleep_for(50ms);
    finished = true;
  }));
  pair.close_peer();
  ASSERT_EQ(writer.enqueue(id, make_text_frame("into the void")),
            Enqueue::Queued);
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  writer.remove_target(id);
  EXPECT_TRUE(finished.load());
}

TEST(EventWriter, PeerCloseFiresOnDeadOnce) {
  SocketPair pair;
  obs::MetricsRegistry metrics;
  std::atomic<int> deaths{0};
  EventWriter writer(bounded(metrics, 16));
  const uint64_t id =
      writer.add_target(target_for(pair.local, [&] { ++deaths; }));
  pair.close_peer();
  for (int i = 0; i < 4; ++i) {
    (void)writer.enqueue(id, make_text_frame("frame " + std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] { return deaths.load() > 0; }));
  EXPECT_EQ(writer.enqueue(id, make_text_frame("after")), Enqueue::Dead);
  EXPECT_FALSE(writer.drain(id, 20ms));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(deaths.load(), 1);
  writer.remove_target(id);
}

TEST(EventWriter, DisconnectOnOverflowYieldsDead) {
  SocketPair pair;
  pair.fill_local();
  obs::MetricsRegistry metrics;
  std::atomic<int> deaths{0};
  EventWriter::Options options = bounded(metrics, 1);
  options.disconnect_on_overflow = true;
  EventWriter writer(options);
  const uint64_t id =
      writer.add_target(target_for(pair.local, [&] { ++deaths; }));

  EXPECT_EQ(writer.enqueue(id, make_text_frame("fits")), Enqueue::Queued);
  // The overflowing frame is dropped and the target dies on the spot: its
  // on_dead runs on the enqueuing thread before enqueue returns.
  EXPECT_EQ(writer.enqueue(id, make_text_frame("overflows")), Enqueue::Dropped);
  EXPECT_EQ(deaths.load(), 1);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("after")), Enqueue::Dead);
  EXPECT_EQ(writer.enqueue(id, make_text_frame("forced"), /*force=*/true),
            Enqueue::Dead);
  EXPECT_EQ(metrics.counter("rpc.writer.events_dropped").value(), 1u);
  writer.remove_target(id);
  EXPECT_EQ(deaths.load(), 1);
}

TEST(EventWriter, AddTargetRejectsAMissingSocket) {
  obs::MetricsRegistry metrics;
  EventWriter writer(bounded(metrics, 16));
  EXPECT_THROW(writer.add_target(target_for(-1)), std::invalid_argument);
}

}  // namespace
}  // namespace hgdb::rpc
