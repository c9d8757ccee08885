#ifndef HGDB_COMMON_THREAD_ANNOTATIONS_H
#define HGDB_COMMON_THREAD_ANNOTATIONS_H

// Clang thread-safety-analysis attribute wrappers (no-ops elsewhere).
//
// Lock discipline in this codebase is written down as attributes, not
// comments: members say which lock guards them (HGDB_GUARDED_BY), helpers
// say which lock their caller must hold (HGDB_REQUIRES), and the analysis
// turns a violated convention into a compile error under
// `clang -Werror=thread-safety` (the CI `static-analysis` job). Under GCC
// and MSVC every macro expands to nothing, so the annotations cost nothing
// where they cannot be checked.
//
// The attributes only track *annotated* capability types, which is why the
// repo locks through common::CheckedMutex / common::LockGuard
// (checked_mutex.h) instead of raw std::mutex / std::lock_guard — see
// `tools/lint.py`, which enforces exactly that.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && (!defined(SWIG))
#define HGDB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HGDB_THREAD_ANNOTATION(x)  // no-op
#endif

/// Marks a type as a capability ("mutex" in diagnostics). Lockable classes
/// (CheckedMutex) carry this so the analysis can track acquire/release.
#define HGDB_CAPABILITY(x) HGDB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose lifetime equals a critical section.
#define HGDB_SCOPED_CAPABILITY HGDB_THREAD_ANNOTATION(scoped_lockable)

/// Member data that may only be touched while `x` is held.
#define HGDB_GUARDED_BY(x) HGDB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x` (the pointer itself
/// may be read freely).
#define HGDB_PT_GUARDED_BY(x) HGDB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function contract: the caller already holds every listed capability.
/// This is the enforced form of "caller holds `state_mutex_`" comments and
/// the `_locked` method-name convention.
#define HGDB_REQUIRES(...) \
  HGDB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function contract: the caller must NOT hold the listed capabilities
/// (the function acquires them itself, or calls out under them).
#define HGDB_EXCLUDES(...) HGDB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function acquires the capability and returns with it held.
#define HGDB_ACQUIRE(...) \
  HGDB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases a capability the caller held on entry.
#define HGDB_RELEASE(...) \
  HGDB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Try-lock: acquires only when returning `ret`.
#define HGDB_TRY_ACQUIRE(ret, ...) \
  HGDB_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Return value is a reference to data guarded by the listed capability.
#define HGDB_RETURN_CAPABILITY(x) HGDB_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch. Not used under src/runtime or src/session (enforced by
/// tools/lint.py); exists for test scaffolding that deliberately misuses
/// locks to prove the checkers fire.
#define HGDB_NO_THREAD_SAFETY_ANALYSIS \
  HGDB_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // HGDB_COMMON_THREAD_ANNOTATIONS_H
