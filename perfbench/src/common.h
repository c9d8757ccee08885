// Shared pieces of the end-to-end benchmark: clocks, sample statistics,
// the host-speed calibration kernel, the in-memory span log, the seeded
// generator and the report every workload fills in.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

using common_json = hgdb::common::Json;

/// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the only source of randomness; every input derives from
/// the workload seed through it.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  uint64_t range(uint64_t lo, uint64_t hi) { return lo + next() % (hi - lo + 1); }

 private:
  uint64_t state_;
};

/// Value at quantile q (0..1) of `values` by the nearest-rank rule.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------

/// The calibration kernel: a fixed number of request/response round trips
/// between this thread and a benchmark-owned echo thread over loopback
/// TCP, with JSON-shaped messages built and parsed on both sides and each
/// read behind a poll() with a timeout. It calls nothing in the library.
/// Its cost tracks what the host currently charges for syscalls, timers,
/// thread hand-offs and small-message parsing, the bulk of both the debug
/// loop and the convert pipeline. Returns ns.
uint64_t run_calibration_kernel();

/// Kernel duration on the reference machine speed (fixed constant): the
/// development host's unpinned median on a quiet moment.
inline constexpr double kCalibReferenceNs = 600000.0;

/// CPU time, in ns, of every thread of this process except the calling
/// thread and the kernel's echo thread.
uint64_t other_threads_cpu_ns();

/// Rolling calibration: factor() = median of the recent kernel runs over
/// the reference. A factor above 1 means the host currently runs slower
/// than the reference; scaled time = raw time / factor.
///
/// A kernel run only counts when the program's threads stayed idle during
/// it (their combined CPU time under kMaxOtherShare of the run): work the
/// program does in the background or after replying would otherwise slow
/// the kernel, raise the factor and cancel part of its own cost. Refused
/// runs are counted, not used. Until a Calibration has accepted a run,
/// factor() is the baseline taken before any library code ran.
class Calibration {
 public:
  static constexpr double kMaxOtherShare = 0.05;

  /// Samples the baseline factor; call once, before the workload starts.
  static void take_baseline();

  /// Runs the kernel once to warm it, then until `reps` runs were
  /// accepted or 2 * `reps` + 2 were tried, recording the accepted ones.
  void sample(int reps = 3);
  [[nodiscard]] double factor() const;
  /// Median factor over every sample taken (the run's context value).
  [[nodiscard]] double overall_factor() const;
  [[nodiscard]] uint64_t accepted() const { return all_.size(); }
  [[nodiscard]] uint64_t refused() const { return refused_; }

 private:
  static double baseline_;
  std::vector<double> recent_;
  std::vector<double> all_;
  uint64_t refused_ = 0;
};

/// `perfbench calib-check`: how far the factor moves when program threads
/// burn CPU beside the kernel, with and without the idle check. Prints a
/// table for 0, 1 and hardware_threads busy threads.
void calibration_check();

// ---------------------------------------------------------------------------
// Span log (Perfetto / chrome trace JSON)
// ---------------------------------------------------------------------------

/// Benchmark-side spans kept in memory and written once at exit. Each span
/// carries the id of the operation it belongs to, so every span of one
/// stop or travel shares an id.
class SpanLog {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void add(const char* category, const char* name, uint64_t start_ns,
           uint64_t end_ns, uint64_t op_id, uint32_t tid);
  /// Writes {"traceEvents": [...]} loadable in ui.perfetto.dev.
  bool write(const std::string& path) const;
  [[nodiscard]] size_t size() const { return spans_.size(); }
  /// Moves another thread's spans into this log.
  void append(const SpanLog& other);

 private:
  struct Span {
    const char* category;
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t op_id;
    uint32_t tid;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One timing distribution reported as median + fixed tail percentile.
struct Latency {
  std::vector<double> raw_us;     ///< as measured
  std::vector<double> scaled_us;  ///< divided by the calibration factor
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  struct Metric {
    double value = 0;
    std::string unit;
    std::string note;  ///< raw value, sample count, percentile
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  common_json context = common_json::object();

  void fail(const std::string& what);
  void set_e2e(const std::string& name, double value, const std::string& unit,
               const std::string& note = "");
  void set_layer(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");
  /// Fills op_p50_us / op_tail_us (scaled) from `latency` with the given
  /// fixed tail percentile, noting raw values and sample counts.
  void set_latency(const Latency& latency, int tail_percentile);
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Threads this process currently has (entries of /proc/self/task).
size_t thread_count();

/// Restricts the calling thread, and every thread it creates afterwards,
/// to the highest-numbered CPU it may run on. Returns that CPU, or -1 when
/// the affinity cannot be set.
int pin_to_one_cpu();

/// While alive, the calling thread, and every thread it creates, may run
/// on every CPU the process could use before pin_to_one_cpu(); the thread
/// is pinned again at destruction.
class Unpinned {
 public:
  Unpinned();
  ~Unpinned();
  Unpinned(const Unpinned&) = delete;
  Unpinned& operator=(const Unpinned&) = delete;
};

/// Named phase times of one set-up, in ns.
struct SetupTimes {
  double total_ns = 0;                      ///< one sample of setup_s
  std::map<std::string, double> parts_ns;   ///< per-layer metric -> ns
};

/// Runs `setup` `reps` times, each between calibration samples. Reports
/// the median scaled total as setup_s (raw median in its note) and each
/// part's median scaled time as a per-layer metric in ms.
void measure_setup(int reps, const std::function<SetupTimes()>& setup,
                   Report& report);

/// Shared knobs every workload receives from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir;   ///< generated inputs (read-only while timing)
  std::string work_dir;    ///< outputs of this run (index files, trace)
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
