#ifndef HGDB_RUNTIME_THREAD_POOL_H
#define HGDB_RUNTIME_THREAD_POOL_H

#include <cstddef>

namespace hgdb::runtime {

/// Not a thread pool: breakpoint batches are evaluated on the simulation
/// thread. This name survives only because the perfbench load generator,
/// which is versioned with the benchmark, counts batches larger than this
/// cutoff as `runtime.pooled_batches`.
struct ThreadPool {
  static constexpr size_t kDefaultSerialCutoff = 4;
};

}  // namespace hgdb::runtime

#endif  // HGDB_RUNTIME_THREAD_POOL_H
