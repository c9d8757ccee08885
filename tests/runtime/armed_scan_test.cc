// Armed-only scan oracle. Continue and reverse-continue visit only the
// batches that hold an inserted breakpoint; step mode visits every batch.
// On three workloads, live and on a `.wvx` replay, the continue-mode stop
// sequence must equal the step-mode stop sequence filtered to the armed
// locations whose condition holds, and reverse-continue on the replay must
// visit those stops in reverse. A concurrency case arms and releases lines
// from a client thread while a replay continue runs and parks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <thread>

#include "frontend/compile.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "symbols/symbol_table.h"
#include "trace/replay.h"
#include "vpi/native_backend.h"
#include "vpi/replay_backend.h"
#include "waveform/index_writer.h"
#include "waveform/indexed_waveform.h"
#include "workloads/workloads.h"

namespace hgdb::runtime {
namespace {

using Command = Runtime::Command;
using Location = std::pair<std::string, uint32_t>;

constexpr uint64_t kCycles = 48;
/// Time between rising edges on the simulator's clock grid.
constexpr uint64_t kClockPeriod = 2;

/// One stop as the oracle compares it: time, location and the hit
/// breakpoint ids in frame order.
struct Stop {
  uint64_t time = 0;
  Location location;
  std::vector<int64_t> ids;
  bool operator==(const Stop&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Stop& stop) {
  out << "t=" << stop.time << " " << stop.location.first << ":"
      << stop.location.second << " ids=[";
  for (const int64_t id : stop.ids) out << id << ",";
  return out << "]";
}

Stop to_stop(const rpc::StopEvent& event) {
  Stop stop;
  stop.time = event.time;
  if (!event.frames.empty()) {
    stop.location = {event.frames.front().filename, event.frames.front().line};
  }
  for (const auto& frame : event.frames) {
    stop.ids.push_back(frame.breakpoint_id);
  }
  return stop;
}

/// Source locations in the scheduler's absolute order.
std::vector<Location> locations(const symbols::SymbolTable& table) {
  std::vector<Location> out;
  for (const auto& row : table.all_breakpoints()) {
    const Location location{row.filename, row.line_num};
    if (out.empty() || out.back() != location) out.push_back(location);
  }
  return out;
}

struct Arm {
  Location location;
  std::string condition;  ///< empty = unconditional
};

/// About 40% of the locations, drawn from `seed`. Three in four of them
/// get a `name % m == r` condition over one of the location's locals (or,
/// without locals, its instance's generator variables); the rest arm
/// unconditionally.
std::vector<Arm> seeded_arms(const symbols::SymbolTable& table, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Arm> arms;
  for (const auto& location : locations(table)) {
    if (rng() % 5 >= 2) continue;
    Arm arm{location, ""};
    const auto row =
        table.breakpoints_at(location.first, location.second).front();
    auto variables = table.scope_variables(row.id);
    if (variables.empty()) {
      variables = table.generator_variables(row.instance_id);
    }
    if (!variables.empty() && rng() % 4 != 0) {
      const auto& name = variables[rng() % variables.size()].name;
      const uint32_t modulus = 2 + static_cast<uint32_t>(rng() % 3);
      arm.condition = name + " % " + std::to_string(modulus) +
                      " == " + std::to_string(rng() % modulus);
    }
    arms.push_back(std::move(arm));
  }
  return arms;
}

enum class Backend { Live, Replay };

const char* backend_name(Backend backend) {
  return backend == Backend::Live ? "live" : "replay";
}

/// One workload compiled in debug mode, its `cycles`-cycle recording
/// converted to `.wvx`, and fresh debugger runs over either backend.
class Workload {
 public:
  explicit Workload(const std::string& name, uint64_t cycles = kCycles)
      : cycles_(cycles) {
    frontend::CompileOptions options;
    options.debug_mode = true;
    compiled_ = frontend::compile(workloads::workload(name).build(), options);
    // pid + test name: unique across concurrent ctest processes.
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(test.begin(), test.end(), '/', '_');
    const std::string stem = ::testing::TempDir() + "hgdb_armed_scan_" +
                             std::to_string(::getpid()) + "_" + test;
    vcd_path_ = stem + ".vcd";
    wvx_path_ = stem + ".wvx";
    {
      sim::Simulator simulator(compiled_.netlist);
      sim::VcdWriter writer(simulator, vcd_path_);
      writer.attach();
      simulator.run(cycles_);
    }
    waveform::convert_vcd_to_index(vcd_path_, wvx_path_);
  }
  ~Workload() {
    std::remove(vcd_path_.c_str());
    std::remove(wvx_path_.c_str());
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const symbols::SymbolTableData& symbols() const {
    return compiled_.symbols;
  }

  /// A fresh backend and runtime: `prepare` arms it before the first
  /// edge, the whole recording (or as many cycles of simulation) runs, then
  /// `finish` inspects the runtime.
  void run(Backend backend, const std::function<void(Runtime&)>& prepare,
           const std::function<void(Runtime&)>& finish = {}) const {
    symbols::MemorySymbolTable table(compiled_.symbols);
    if (backend == Backend::Live) {
      sim::Simulator simulator(compiled_.netlist);
      vpi::NativeBackend native(simulator);
      Runtime runtime(native, table);
      runtime.attach();
      prepare(runtime);
      while (simulator.cycle() < cycles_) simulator.tick();
      if (finish) finish(runtime);
    } else {
      vpi::ReplayBackend replay{trace::ReplayEngine(
          std::make_shared<waveform::IndexedWaveform>(wvx_path_))};
      Runtime runtime(replay, table);
      runtime.attach();
      prepare(runtime);
      replay.run_forward();
      if (finish) finish(runtime);
    }
  }

 private:
  uint64_t cycles_;
  frontend::CompileResult compiled_;
  std::string vcd_path_;
  std::string wvx_path_;
};

/// Arms every location of `arms`; a condition the runtime refuses (a
/// local it cannot resolve in some instance) is dropped, so later runs
/// arm exactly what this one did.
void arm_all(Runtime& runtime, std::vector<Arm>& arms) {
  for (auto& arm : arms) {
    const auto& [filename, line] = arm.location;
    try {
      ASSERT_FALSE(
          runtime.add_breakpoint(filename, line, arm.condition).empty());
    } catch (const std::out_of_range&) {
      arm.condition.clear();
      ASSERT_FALSE(runtime.add_breakpoint(filename, line).empty());
    }
  }
}

/// The reference: a step-mode run (every batch, every edge), keeping the
/// frames at armed locations whose condition holds at that stop.
std::vector<Stop> filtered_step_stops(const Workload& workload, Backend backend,
                                      const std::vector<Arm>& arms) {
  std::vector<Stop> stops;
  workload.run(backend, [&](Runtime& runtime) {
    runtime.request_pause();  // the first edge stops in step mode
    runtime.set_stop_handler([&](const rpc::StopEvent& event) {
      if (event.frames.empty()) return Command::StepOver;
      const Stop step = to_stop(event);
      const auto arm =
          std::find_if(arms.begin(), arms.end(), [&](const Arm& candidate) {
            return candidate.location == step.location;
          });
      if (arm == arms.end()) return Command::StepOver;
      Stop kept{step.time, step.location, {}};
      for (const int64_t id : step.ids) {
        if (arm->condition.empty()) {
          kept.ids.push_back(id);
          continue;
        }
        const auto value = runtime.evaluate(arm->condition, id);
        if (value && value->to_bool()) kept.ids.push_back(id);
      }
      if (!kept.ids.empty()) stops.push_back(std::move(kept));
      return Command::StepOver;
    });
  });
  return stops;
}

std::vector<Stop> continue_stops(const Workload& workload, Backend backend,
                                 std::vector<Arm>& arms) {
  std::vector<Stop> stops;
  workload.run(backend, [&](Runtime& runtime) {
    arm_all(runtime, arms);
    runtime.set_stop_handler([&](const rpc::StopEvent& event) {
      stops.push_back(to_stop(event));
      return Command::Continue;
    });
  });
  return stops;
}

/// Continues forward to the `forward_stops`-th stop, then reverse-continues
/// until history bottoms out; returns the reverse stops in visit order.
std::vector<Stop> reverse_stops(const Workload& workload,
                                std::vector<Arm>& arms, size_t forward_stops) {
  std::vector<Stop> stops;
  size_t forward = 0;
  bool bottomed_out = false;
  workload.run(Backend::Replay, [&](Runtime& runtime) {
    arm_all(runtime, arms);
    runtime.set_stop_handler([&](const rpc::StopEvent& event) {
      if (bottomed_out) return Command::Continue;
      if (forward < forward_stops) {
        return ++forward == forward_stops ? Command::ReverseContinue
                                          : Command::Continue;
      }
      if (event.frames.empty()) {
        // Beginning of the recording: disarm and run out the replay.
        bottomed_out = true;
        runtime.clear_breakpoints();
        return Command::Continue;
      }
      stops.push_back(to_stop(event));
      return Command::ReverseContinue;
    });
  });
  EXPECT_TRUE(bottomed_out);
  return stops;
}

struct Case {
  const char* workload;
  uint32_t seed;
};

void PrintTo(const Case& c, std::ostream* out) {
  *out << c.workload << " seed " << c.seed;
}

class ArmedScanOracle : public ::testing::TestWithParam<Case> {};

TEST_P(ArmedScanOracle, ContinueStopsAreTheFilteredStepStops) {
  const Workload workload(GetParam().workload);
  symbols::MemorySymbolTable table(workload.symbols());
  auto arms = seeded_arms(table, GetParam().seed);
  ASSERT_GE(arms.size(), 2u);
  ASSERT_LT(arms.size(), locations(table).size());

  std::vector<Stop> live;
  for (const Backend backend : {Backend::Live, Backend::Replay}) {
    SCOPED_TRACE(backend_name(backend));
    // Continue first: it settles which conditions the runtime accepts.
    const auto actual = continue_stops(workload, backend, arms);
    const auto expected = filtered_step_stops(workload, backend, arms);
    ASSERT_GE(expected.size(), 2u);
    EXPECT_EQ(actual, expected);
    if (backend == Backend::Live) {
      live = actual;
    } else {
      EXPECT_EQ(actual, live) << "live and replay stops differ";
    }
  }

  // Reverse-continue from the last forward stop visits the earlier ones
  // in reverse.
  std::vector<Stop> expected(live.rbegin() + 1, live.rend());
  EXPECT_EQ(reverse_stops(workload, arms, live.size()), expected);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ArmedScanOracle,
                         ::testing::Values(Case{"mt-vvadd", 3},
                                           Case{"towers", 5},
                                           Case{"qsort", 7}),
                         [](const auto& info) {
                           std::string name = info.param.workload;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// With one location armed out of N, every continue edge (forward or
// reverse) evaluates exactly that one batch.
TEST(ArmedScanCount, OneArmedLocationCostsOneBatchPerEdge) {
  const Workload workload("mt-vvadd");
  symbols::MemorySymbolTable table(workload.symbols());
  const auto all = locations(table);
  ASSERT_GE(all.size(), 10u);
  const Location armed = all[all.size() / 2];

  for (const Backend backend : {Backend::Live, Backend::Replay}) {
    SCOPED_TRACE(backend_name(backend));
    uint64_t stops = 0;
    workload.run(
        backend,
        [&](Runtime& runtime) {
          runtime.add_breakpoint(armed.first, armed.second);
          runtime.set_stop_handler([&](const rpc::StopEvent&) {
            ++stops;
            return Command::Continue;
          });
        },
        [&](Runtime& runtime) {
          const auto stats = runtime.stats();
          EXPECT_EQ(stats.clock_edges, kCycles);
          EXPECT_EQ(stats.batches_evaluated, stats.clock_edges);
        });
    EXPECT_GT(stops, 0u);
  }

  // Reverse: forward to the last stop, then back to the start. Read at
  // the bottom-out stop, before anything else runs.
  uint64_t forward = 0;
  std::optional<Runtime::Stats> at_bottom;
  workload.run(Backend::Replay, [&](Runtime& runtime) {
    runtime.add_breakpoint(armed.first, armed.second);
    runtime.set_stop_handler([&](const rpc::StopEvent& event) {
      if (at_bottom) return Command::Continue;
      if (event.frames.empty()) {
        at_bottom = runtime.stats();
        runtime.clear_breakpoints();
        return Command::Continue;
      }
      if (forward < kCycles) ++forward;
      return forward < kCycles ? Command::Continue : Command::ReverseContinue;
    });
  });
  ASSERT_EQ(forward, kCycles) << "the armed line must hit on every edge";
  ASSERT_TRUE(at_bottom.has_value());
  EXPECT_GT(at_bottom->clock_edges, kCycles);
  EXPECT_EQ(at_bottom->batches_evaluated, at_bottom->clock_edges);
}

// A client thread re-arms between stops and churns a line while the
// replay runs. Every stop must come from a line armed since the last
// resume, never from one released before it, and a line armed at a stop
// whose enable always holds must stop the replay by the next edge.
TEST(ArmedScanConcurrency, StopsFollowTheArmedSetAcrossResumes) {
  const Workload workload("mt-vvadd", 400);
  symbols::MemorySymbolTable table(workload.symbols());
  const auto all = locations(table);
  std::vector<size_t> always;  // locations without an enable condition
  for (size_t i = 0; i < all.size(); ++i) {
    const auto rows = table.breakpoints_at(all[i].first, all[i].second);
    if (std::all_of(rows.begin(), rows.end(),
                    [](const auto& row) { return row.enable.empty(); })) {
      always.push_back(i);
    }
  }
  ASSERT_FALSE(always.empty());
  ASSERT_LT(always.size(), all.size());

  std::mutex mutex;
  std::condition_variable changed;
  std::optional<rpc::StopEvent> parked;  // the stop the sim thread holds
  std::optional<Command> reply;
  bool finished = false;

  std::vector<std::string> violations;
  size_t stops = 0;
  auto serve = [&](Runtime& runtime) {
    std::mt19937 rng(11);
    std::set<size_t> armed{always.front()};  // armed before the replay starts
    auto arm = [&](size_t i) {
      runtime.add_breakpoint(all[i].first, all[i].second);
    };
    auto release = [&](size_t i) {
      runtime.release_breakpoint(all[i].first, all[i].second);
    };
    std::optional<uint64_t> deadline;  // latest time the next stop may have
    while (true) {
      // Running: churn one line outside the armed set until the replay
      // parks (or ends).
      size_t churn = rng() % all.size();
      while (armed.count(churn) != 0) churn = (churn + 1) % all.size();
      rpc::StopEvent stop;
      {
        std::unique_lock lock(mutex);
        while (!parked && !finished) {
          lock.unlock();
          arm(churn);
          release(churn);
          lock.lock();
          changed.wait_for(lock, std::chrono::microseconds(50),
                           [&] { return parked || finished; });
        }
        if (!parked) return;
        stop = std::move(*parked);
        parked.reset();
      }
      ++stops;
      const Location at = to_stop(stop).location;
      const auto index = static_cast<size_t>(
          std::find(all.begin(), all.end(), at) - all.begin());
      if (armed.count(index) == 0 && index != churn) {
        violations.push_back("t=" + std::to_string(stop.time) +
                             ": stop at released line " +
                             std::to_string(at.second));
      }
      if (deadline && stop.time > *deadline) {
        violations.push_back("t=" + std::to_string(stop.time) +
                             ": no stop by t=" + std::to_string(*deadline));
      }
      // Parked: move to a new armed set of one always-enabled line plus
      // up to two others.
      std::set<size_t> next{always[rng() % always.size()]};
      const size_t size = 1 + rng() % 3;
      while (next.size() < size) next.insert(rng() % all.size());
      for (const size_t i : next) {
        if (armed.count(i) == 0) arm(i);
      }
      for (const size_t i : armed) {
        if (next.count(i) == 0) release(i);
      }
      armed = std::move(next);
      deadline = stop.time + kClockPeriod;
      std::lock_guard lock(mutex);
      reply = Command::Continue;
      changed.notify_all();
    }
  };
  std::thread client;
  workload.run(
      Backend::Replay,
      [&](Runtime& runtime) {
        runtime.set_stop_handler([&](const rpc::StopEvent& event) {
          std::unique_lock lock(mutex);
          parked = event;
          changed.notify_all();
          changed.wait(lock, [&] { return reply.has_value(); });
          const Command command = *reply;
          reply.reset();
          return command;
        });
        runtime.add_breakpoint(all[always.front()].first,
                               all[always.front()].second);
        client = std::thread(serve, std::ref(runtime));
      },
      [&](Runtime&) {
        {
          std::lock_guard lock(mutex);
          finished = true;
          changed.notify_all();
        }
        client.join();
      });
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations.front();
  EXPECT_GT(stops, 100u);
}

}  // namespace
}  // namespace hgdb::runtime
