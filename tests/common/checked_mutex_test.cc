#include "common/checked_mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <thread>
#include <vector>

namespace hgdb::common {
namespace {

// Rank checking is compiled out in NDEBUG builds unless the build forces
// it (-DHGDB_FORCE_LOCK_RANK_CHECKS=ON); the checks-dependent tests skip
// themselves rather than assert behaviour the build cannot exhibit.
constexpr bool kChecksEnabled = HGDB_CHECK_LOCK_RANKS != 0;

TEST(CheckedMutex, LockUnlockRoundTrip) {
  StateMutex mutex{"test::state"};
  mutex.lock();
  mutex.unlock();
  mutex.lock();
  mutex.unlock();
}

TEST(CheckedMutex, TryLockReportsContention) {
  StateMutex mutex{"test::state"};
  ASSERT_TRUE(mutex.try_lock());
  std::atomic<bool> other_got{true};
  // try_lock from another thread must fail while held here (same-thread
  // try_lock on a std::mutex would be UB).
  std::thread prober([&] { other_got.store(mutex.try_lock()); });
  prober.join();
  EXPECT_FALSE(other_got.load());
  mutex.unlock();
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(CheckedMutex, DescendingRanksNest) {
  CommandMutex command{"test::command"};
  ClientsMutex clients{"test::clients"};
  StateMutex state{"test::state"};
  RpcMutex rpc{"test::rpc"};
  // command(80) -> clients(70) -> state(50) -> rpc(10): the full descent
  // the session stack actually performs.
  LockGuard a(command);
  LockGuard b(clients);
  LockGuard c(state);
  LockGuard d(rpc);
}

TEST(CheckedMutex, SequentialEqualRanksAllowed) {
  TransportMutex send{"test::send"};
  TransportMutex state{"test::state"};
  // Same rank is fine when not nested (DAP connections hold send_mutex
  // and state_mutex strictly one-at-a-time).
  { LockGuard lock(state); }
  { LockGuard lock(send); }
}

TEST(CheckedMutexDeathTest, AscendingAcquireAborts) {
  if (!kChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StateMutex state{"test::state"};
  CommandMutex command{"test::command"};
  // state(50) held, then command(80): an inversion against the hierarchy.
  // The abort message must name both locks and show the held list.
  EXPECT_DEATH(
      {
        LockGuard inner(state);
        LockGuard outer(command);
      },
      "lock rank inversion.*test::command.*test::state");
}

TEST(CheckedMutexDeathTest, EqualRankNestingAborts) {
  if (!kChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TransportMutex send{"test::send"};
  TransportMutex state{"test::state"};
  EXPECT_DEATH(
      {
        LockGuard a(state);
        LockGuard b(send);
      },
      "lock rank inversion.*test::send.*test::state");
}

TEST(CheckedMutex, OutOfOrderReleaseIsLegal) {
  // Hand-over-hand: acquire A then B, release A before B. The held-stack
  // must tolerate non-LIFO release (UniqueLock + condition_variable_any
  // does this inside every wait).
  ClientsMutex a{"test::a"};
  StateMutex b{"test::b"};
  a.lock();
  b.lock();
  a.unlock();
  b.unlock();
}

TEST(CheckedMutex, UniqueLockWorksWithConditionVariableAny) {
  RpcMutex mutex{"test::queue"};
  std::condition_variable_any ready;
  bool flag = false;
  std::thread producer([&] {
    {
      LockGuard lock(mutex);
      flag = true;
    }
    ready.notify_one();
  });
  {
    UniqueLock lock(mutex);
    while (!flag) ready.wait(lock);
    EXPECT_TRUE(lock.owns_lock());
  }
  producer.join();
}

TEST(CheckedMutex, EightThreadsDriveTheHierarchy) {
  // TSan-facing stress: 8 threads repeatedly walk a descending chain of
  // the real hierarchy while two more hammer try_lock on the middle rank.
  // Under -fsanitize=thread this doubles as a data-race check on the
  // rank bookkeeping itself.
  CommandMutex command{"test::command"};
  ClientsMutex clients{"test::clients"};
  StateMutex state{"test::state"};
  WaveformMutex waveform{"test::waveform"};
  RpcMutex rpc{"test::rpc"};
  std::atomic<uint64_t> counter{0};
  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        LockGuard a(command);
        LockGuard b(clients);
        LockGuard c(state);
        LockGuard d(waveform);
        LockGuard e(rpc);
        counter.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        if (state.try_lock()) {
          counter.fetch_add(1, std::memory_order_relaxed);
          state.unlock();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GE(counter.load(), static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(CheckedMutex, NamesSurviveOnlyWithChecks) {
  StateMutex mutex{"test::named"};
  if (kChecksEnabled) {
    EXPECT_STREQ(mutex.name(), "test::named");
  } else {
    // Release builds drop the name member entirely (zero-overhead claim).
    EXPECT_STREQ(mutex.name(), "<unchecked>");
  }
  EXPECT_EQ(StateMutex::rank(), LockRank::kRuntimeState);
}

TEST(CheckedMutex, RankToStringCoversHierarchy) {
  EXPECT_STREQ(to_string(LockRank::kSessionCommand), "session::command");
  EXPECT_STREQ(to_string(LockRank::kSessionClients), "session::clients");
  EXPECT_STREQ(to_string(LockRank::kRuntimeState), "runtime::state");
  EXPECT_STREQ(to_string(LockRank::kRpc), "rpc");
}

}  // namespace
}  // namespace hgdb::common
