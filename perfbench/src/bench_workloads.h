// Entry points of the three workloads and their input generators.
#ifndef PERFBENCH_BENCH_WORKLOADS_H
#define PERFBENCH_BENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

void run_live_session(const RunConfig& config, Report& report, SpanLog& spans);
void run_replay_session(const RunConfig& config, Report& report, SpanLog& spans);
void run_convert(const RunConfig& config, Report& report, SpanLog& spans);

/// Writes the workload's seeded inputs into config.cache_dir unless they
/// are already there (keyed by design, size and seed).
void generate_replay_inputs(const RunConfig& config);
void generate_convert_inputs(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOADS_H
