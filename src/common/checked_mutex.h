#ifndef HGDB_COMMON_CHECKED_MUTEX_H
#define HGDB_COMMON_CHECKED_MUTEX_H

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.h"

// Ranked, capability-annotated mutexes.
//
// Every mutex in the repo carries a static rank from the one documented
// lock hierarchy (README "Concurrency model"). A thread may only acquire
// a mutex whose rank is *strictly below* every rank it already holds, so
// any cycle that could deadlock two threads is instead a rank inversion
// on whichever thread acquires against the order — caught deterministically
// on the first execution of that path, not on the unlucky interleaving.
//
// Debug builds (or -DHGDB_FORCE_LOCK_RANK_CHECKS=ON) keep a thread-local
// stack of held locks and abort with both lock names and the acquisition
// order on an inversion. Release builds compile CheckedMutex down to a
// bare std::mutex — no name, no flag, no branch (bench/metrics_overhead
// gates the claim).
//
// Rank checking is a build-wide property (HGDB_CHECK_LOCK_RANKS must be
// consistent across every TU, or the inline lock paths violate the ODR);
// it is derived from NDEBUG here and overridden only via the global CMake
// option, never per target.

#ifndef HGDB_CHECK_LOCK_RANKS
#ifdef NDEBUG
#define HGDB_CHECK_LOCK_RANKS 0
#else
#define HGDB_CHECK_LOCK_RANKS 1
#endif
#endif

namespace hgdb::common {

/// The lock hierarchy, outermost first. Higher value = acquired earlier.
/// Acquiring rank R is legal only when R < every currently-held rank;
/// equal ranks may never nest (sequential acquire/release is fine).
enum class LockRank : int {
  kSessionLifecycle = 100,  ///< SessionManager shutdown latch
  kSessionSessions = 90,    ///< SessionManager connection table (both front ends)
  kSessionCommand = 80,     ///< DebugService command hand-off
  kSessionDelivery = 75,    ///< DebugService sink delivery bracket
  kSessionClients = 70,     ///< DebugService client/subscription table
  kRuntimeService = 65,     ///< Runtime session-layer slot (held across construction)
  kRuntimeListener = 60,    ///< Runtime callback slots (change listener / stop handler)
  kRuntimeState = 50,       ///< Runtime scheduler state
  kReplayCursors = 40,      ///< Replay backend per-handle read cursors
  kSessionTransport = 35,   ///< Per-connection protocol state + socket writes
  kWaveform = 30,           ///< Waveform reader cache / writer backend
  kObs = 20,                ///< MetricsRegistry map, trace string interning
  kRpcWriter = 15,          ///< EventWriter target queues (flushes are
                            ///< non-blocking sendmsg; no rpc lock nests)
  kRpc = 10,                ///< Socket channel send/receive
};

[[nodiscard]] constexpr const char* to_string(LockRank rank) {
  switch (rank) {
    case LockRank::kSessionLifecycle: return "session::lifecycle";
    case LockRank::kSessionSessions: return "session::sessions";
    case LockRank::kSessionCommand: return "session::command";
    case LockRank::kSessionDelivery: return "session::delivery";
    case LockRank::kSessionClients: return "session::clients";
    case LockRank::kRuntimeService: return "runtime::service";
    case LockRank::kRuntimeListener: return "runtime::listener";
    case LockRank::kRuntimeState: return "runtime::state";
    case LockRank::kReplayCursors: return "replay::cursors";
    case LockRank::kSessionTransport: return "session::transport";
    case LockRank::kWaveform: return "waveform";
    case LockRank::kObs: return "obs";
    case LockRank::kRpcWriter: return "rpc::writer";
    case LockRank::kRpc: return "rpc";
  }
  return "?";
}

#if HGDB_CHECK_LOCK_RANKS

namespace detail {

/// Per-thread record of held CheckedMutexes, innermost last. Fixed-size:
/// the hierarchy is 14 ranks deep and equal ranks never nest, so a depth
/// past 16 is itself a discipline bug worth aborting on.
struct HeldLocks {
  static constexpr int kMaxDepth = 16;
  struct Entry {
    const void* addr;
    int rank;
    const char* name;
  };
  Entry stack[kMaxDepth];
  int depth = 0;
};

inline HeldLocks& held_locks() {
  thread_local HeldLocks held;
  return held;
}

[[noreturn]] inline void rank_abort(const char* what, int rank,
                                    const char* name) {
  auto& held = held_locks();
  std::fprintf(stderr,
               "hgdb: lock rank inversion: %s '%s' (rank %s=%d) while "
               "holding, in acquisition order:\n",
               what, name, to_string(static_cast<LockRank>(rank)), rank);
  for (int i = 0; i < held.depth; ++i) {
    std::fprintf(stderr, "  %d. '%s' (rank %s=%d)\n", i + 1,
                 held.stack[i].name,
                 to_string(static_cast<LockRank>(held.stack[i].rank)),
                 held.stack[i].rank);
  }
  std::fflush(stderr);
  std::abort();
}

inline void push_lock(const void* addr, int rank, const char* name) {
  auto& held = held_locks();
  for (int i = 0; i < held.depth; ++i) {
    if (held.stack[i].rank <= rank) rank_abort("acquiring", rank, name);
  }
  if (held.depth >= HeldLocks::kMaxDepth) rank_abort("acquiring", rank, name);
  held.stack[held.depth++] = {addr, rank, name};
}

inline void pop_lock(const void* addr, int rank, const char* name) {
  auto& held = held_locks();
  // Innermost-first search: condition-variable waits and hand-over-hand
  // sections release out of LIFO order, which is legal.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.stack[i].addr == addr) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.stack[j] = held.stack[j + 1];
      }
      --held.depth;
      return;
    }
  }
  rank_abort("releasing unheld", rank, name);
}

}  // namespace detail

/// Drop-in std::mutex replacement carrying a static hierarchy rank.
/// Satisfies Lockable (works under std::lock_guard, std::unique_lock and
/// std::condition_variable_any), but lock sites should use the annotated
/// common::LockGuard / common::UniqueLock so clang's thread-safety
/// analysis tracks the critical section.
template <LockRank Rank>
class HGDB_CAPABILITY("mutex") CheckedMutex {
 public:
  explicit CheckedMutex(const char* name = "<anonymous>") : name_(name) {}

  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock() HGDB_ACQUIRE() {
    detail::push_lock(this, static_cast<int>(Rank), name_);
    mutex_.lock();
  }

  bool try_lock() HGDB_TRY_ACQUIRE(true) {
    // A failed try_lock must not disturb the stack; a successful one obeys
    // the same ordering rule as lock() (it still closes deadlock cycles).
    if (!mutex_.try_lock()) return false;
    detail::push_lock(this, static_cast<int>(Rank), name_);
    return true;
  }

  void unlock() HGDB_RELEASE() {
    mutex_.unlock();
    detail::pop_lock(this, static_cast<int>(Rank), name_);
  }

  [[nodiscard]] const char* name() const { return name_; }
  static constexpr LockRank rank() { return Rank; }

 private:
  std::mutex mutex_;
  const char* name_;
};

#else  // !HGDB_CHECK_LOCK_RANKS

template <LockRank Rank>
class HGDB_CAPABILITY("mutex") CheckedMutex {
 public:
  explicit CheckedMutex(const char* name = "<anonymous>") { (void)name; }

  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock() HGDB_ACQUIRE() { mutex_.lock(); }
  bool try_lock() HGDB_TRY_ACQUIRE(true) { return mutex_.try_lock(); }
  void unlock() HGDB_RELEASE() { mutex_.unlock(); }

  [[nodiscard]] const char* name() const { return "<unchecked>"; }
  static constexpr LockRank rank() { return Rank; }

 private:
  std::mutex mutex_;
};

#endif  // HGDB_CHECK_LOCK_RANKS

/// std::lock_guard, annotated so the analysis sees the critical section.
template <typename Mutex>
class HGDB_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) HGDB_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() HGDB_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// std::unique_lock for the patterns that need early release or a
/// condition-variable wait. Always constructed locked; BasicLockable, so
/// std::condition_variable_any::wait(UniqueLock&) re-enters through the
/// CheckedMutex and the rank bookkeeping survives the unlock/relock.
template <typename Mutex>
class HGDB_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) HGDB_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
    owns_ = true;
  }
  ~UniqueLock() HGDB_RELEASE() {
    if (owns_) mutex_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() HGDB_ACQUIRE() {
    mutex_->lock();
    owns_ = true;
  }
  void unlock() HGDB_RELEASE() {
    mutex_->unlock();
    owns_ = false;
  }
  [[nodiscard]] bool owns_lock() const { return owns_; }

 private:
  Mutex* mutex_;
  bool owns_;
};

// One alias per hierarchy level: declaration sites name the level, the
// numeric ordering stays in LockRank.
using LifecycleMutex = CheckedMutex<LockRank::kSessionLifecycle>;
using SessionsMutex = CheckedMutex<LockRank::kSessionSessions>;
using CommandMutex = CheckedMutex<LockRank::kSessionCommand>;
using DeliveryMutex = CheckedMutex<LockRank::kSessionDelivery>;
using ClientsMutex = CheckedMutex<LockRank::kSessionClients>;
using ServiceMutex = CheckedMutex<LockRank::kRuntimeService>;
using ListenerMutex = CheckedMutex<LockRank::kRuntimeListener>;
using StateMutex = CheckedMutex<LockRank::kRuntimeState>;
using CursorMutex = CheckedMutex<LockRank::kReplayCursors>;
using TransportMutex = CheckedMutex<LockRank::kSessionTransport>;
using WaveformMutex = CheckedMutex<LockRank::kWaveform>;
using ObsMutex = CheckedMutex<LockRank::kObs>;
using WriterMutex = CheckedMutex<LockRank::kRpcWriter>;
using RpcMutex = CheckedMutex<LockRank::kRpc>;

}  // namespace hgdb::common

#endif  // HGDB_COMMON_CHECKED_MUTEX_H
