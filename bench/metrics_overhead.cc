// EXP-O — Observability overhead: what does one instrumentation point
// cost on the hot path? The debug runtime's Fig. 5 budget (<5% over
// no-debugging simulation) only survives the obs layer if a counter bump
// is a relaxed fetch_add, a histogram record three of them, and a span
// site *one relaxed load* while the recorder is stopped.
//
// The harness times a synthetic evaluation loop (xorshift + accumulate,
// roughly the work of one compiled condition step) in five builds of
// increasing instrumentation:
//   plain           the loop alone
//   counter         + one obs::Counter::add per iteration
//   histogram       + one obs::Histogram::record per iteration
//   span_stopped    + one RAII TraceSpan per iteration, recorder stopped
//   span_recording  + the same span with the recorder started (ring wraps)
// plus the registry's exposition cost (render + snapshot on a populated
// registry, informational), and a lock-acquisition pair comparing a raw
// std::mutex against common::CheckedMutex — in release builds (rank
// checks compiled out) the two must cost the same, which is the
// annotated type's zero-overhead claim made falsifiable.
//
// Output: one JSON object on stdout (and to $HGDB_BENCH_JSON when set).
// The "gates" object carries in-process ratios (plain-loop cost over
// instrumented cost — higher is cheaper instrumentation) tracked by
// tools/check_bench_regression.py against
// bench/baselines/BENCH_metrics.json; absolute ns/op are reported but
// not gated, since they track runner hardware.
// Environment: HGDB_BENCH_METRIC_ITERS (default 4000000),
//              HGDB_BENCH_REPS (default 3, best-of),
//              HGDB_BENCH_JSON (optional output path).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <mutex>

#include "common/checked_mutex.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace hgdb;
using Clock = std::chrono::steady_clock;

uint64_t env_or(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

/// The synthetic per-iteration work: a xorshift step, cheap enough that
/// instrumentation cost is visible, real enough that the compiler cannot
/// collapse the loop.
inline uint64_t step(uint64_t state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Written after every timed region to defeat dead-code elimination.
volatile uint64_t dce_sink;

/// ns per iteration, best of `reps` runs of `iters` iterations.
template <typename Body>
double time_ns_per_op(uint64_t iters, uint64_t reps, Body&& body) {
  double best = 1e18;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    uint64_t state = 0x9e3779b97f4a7c15ull + rep;
    const auto start = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) state = body(state);
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - start)
                                .count());
    dce_sink = state;
    best = std::min(best, ns / static_cast<double>(iters));
  }
  return best;
}

}  // namespace

int main() {
  const uint64_t iters = env_or("HGDB_BENCH_METRIC_ITERS", 4'000'000);
  const uint64_t reps = env_or("HGDB_BENCH_REPS", 3);

  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench.iterations");
  obs::Histogram& histogram = registry.histogram("bench.step_ns");
  obs::TraceRecorder recorder;  // default ring, wraps while recording

  // Warm the core up (frequency governors answer the first timed region
  // otherwise — the plain loop runs first and would absorb the ramp).
  time_ns_per_op(iters, 2, [](uint64_t s) { return step(s); });

  const double plain_ns =
      time_ns_per_op(iters, reps, [](uint64_t s) { return step(s); });

  const double counter_ns = time_ns_per_op(iters, reps, [&](uint64_t s) {
    counter.add();
    return step(s);
  });

  const double histogram_ns = time_ns_per_op(iters, reps, [&](uint64_t s) {
    s = step(s);
    histogram.record(s & 0xffff);  // spread across the low buckets
    return s;
  });

  const double span_stopped_ns = time_ns_per_op(iters, reps, [&](uint64_t s) {
    obs::TraceSpan span(recorder, "bench", "step");
    return step(s);
  });

  // Uncontended lock/unlock around the same work unit: the annotated
  // mutex against the std::mutex it claims to compile down to.
  std::mutex raw_mutex;
  const double std_mutex_ns = time_ns_per_op(iters, reps, [&](uint64_t s) {
    const std::lock_guard<std::mutex> lock(raw_mutex);
    return step(s);
  });
  common::StateMutex checked_mutex{"bench::state"};
  const double checked_mutex_ns = time_ns_per_op(iters, reps, [&](uint64_t s) {
    const common::LockGuard lock(checked_mutex);
    return step(s);
  });

  recorder.start();
  const double span_recording_ns = time_ns_per_op(iters, reps, [&](uint64_t s) {
    obs::TraceSpan span(recorder, "bench", "step");
    return step(s);
  });
  recorder.stop();

  // Exposition cost on a realistically populated registry (one dump each;
  // informational — exposition runs on request, never on the hot path).
  for (int i = 0; i < 40; ++i) {
    registry.counter("bench.filler.counter." + std::to_string(i)).add(i);
    registry.histogram("bench.filler.histogram." + std::to_string(i))
        .record(static_cast<uint64_t>(i) * 100);
  }
  auto exposition_start = Clock::now();
  const std::string prometheus = registry.render_prometheus();
  const double render_us =
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                exposition_start)
          .count();
  exposition_start = Clock::now();
  const std::string snapshot = registry.snapshot_json().dump();
  const double snapshot_us =
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                exposition_start)
          .count();

  // Gated ratios: the plain loop's cost over each instrumented loop's —
  // "what fraction of full speed does the instrumented loop keep". A
  // drop means an instrumentation point got more expensive relative to
  // the work it wraps.
  const double counter_keep = plain_ns / counter_ns;
  const double histogram_keep = plain_ns / histogram_ns;
  // A stopped span site cannot make the loop faster; ratios above 1 are
  // timing noise, and letting them into the baseline would fail honest
  // runs later. Clamp so the gate tracks real slowdowns only.
  const double span_stopped_keep = std::min(1.0, plain_ns / span_stopped_ns);
  // Recording cost is gated against the stopped span, not the plain
  // loop: it pays two clock reads + a ring write by design.
  const double recording_vs_stopped = span_stopped_ns / span_recording_ns;
  // Clamped for the same reason as span_stopped_keep: CheckedMutex cannot
  // beat the std::mutex it wraps; above-1 readings are scheduler noise.
  const double checked_mutex_keep =
      std::min(1.0, std_mutex_ns / checked_mutex_ns);

  char buffer[2048];
  const int written = std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"config\": {\"iters\": %llu, \"reps\": %llu},\n"
      "  \"ns_per_op\": {\"plain\": %.3f, \"counter\": %.3f, "
      "\"histogram\": %.3f, \"span_stopped\": %.3f, "
      "\"span_recording\": %.3f, \"std_mutex\": %.3f, "
      "\"checked_mutex\": %.3f},\n"
      "  \"exposition\": {\"metrics\": %zu, \"prometheus_bytes\": %zu, "
      "\"render_us\": %.1f, \"snapshot_bytes\": %zu, "
      "\"snapshot_us\": %.1f},\n"
      "  \"recorder\": {\"recorded\": %llu, \"dropped\": %llu},\n"
      "  \"gates\": {\"counter_keep\": %.3f, \"histogram_keep\": %.3f, "
      "\"span_stopped_keep\": %.3f, \"recording_vs_stopped\": %.3f, "
      "\"checked_mutex_keep\": %.3f}\n"
      "}\n",
      static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(reps), plain_ns, counter_ns,
      histogram_ns, span_stopped_ns, span_recording_ns, std_mutex_ns,
      checked_mutex_ns, registry.size(),
      prometheus.size(), render_us, snapshot.size(), snapshot_us,
      static_cast<unsigned long long>(recorder.recorded()),
      static_cast<unsigned long long>(recorder.dropped()), counter_keep,
      histogram_keep, span_stopped_keep, recording_vs_stopped,
      checked_mutex_keep);
  if (written < 0 || static_cast<size_t>(written) >= sizeof(buffer)) {
    std::fprintf(stderr, "report did not fit\n");
    return 1;
  }
  std::fputs(buffer, stdout);
  if (const char* path = std::getenv("HGDB_BENCH_JSON")) {
    std::ofstream out(path, std::ios::trunc);
    out << buffer;
  }

  // Sanity floor rather than a perf gate: a *stopped* span site must stay
  // within 2x of the bare loop — anything worse means the disabled path
  // grew real work (the compile-time-zero claim would be hollow).
  if (span_stopped_ns > plain_ns * 2.0 + 2.0) {
    std::fprintf(stderr,
                 "stopped span site too expensive: %.3f ns vs %.3f ns plain\n",
                 span_stopped_ns, plain_ns);
    return 1;
  }
#if !HGDB_CHECK_LOCK_RANKS
  // Hard zero-overhead floor (release builds only — with rank checks
  // compiled in, the bookkeeping is supposed to cost something): the
  // annotated mutex must stay within 1.5x + 2 ns of the raw one.
  if (checked_mutex_ns > std_mutex_ns * 1.5 + 2.0) {
    std::fprintf(stderr,
                 "CheckedMutex not free in release: %.3f ns vs %.3f ns raw\n",
                 checked_mutex_ns, std_mutex_ns);
    return 1;
  }
#endif
  return 0;
}
