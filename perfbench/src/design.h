// The debugged design and the breakpoint plan the load generator arms.
#ifndef PERFBENCH_DESIGN_H
#define PERFBENCH_DESIGN_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "debugger/client.h"
#include "frontend/compile.h"
#include "rpc/protocol.h"
#include "runtime/runtime.h"
#include "symbols/symbol_table.h"
#include "vpi/sim_interface.h"

namespace perfbench {

/// The largest Fig. 5 design: two vvadd cores, so each unrolled-loop line
/// is a 16-instance breakpoint batch (above the pool's serial cutoff).
inline constexpr const char* kDesign = "mt-vvadd";

/// Compiles kDesign in debug mode (what a user debugging it would run).
hgdb::frontend::CompileResult compile_design();

/// Cycles the design free-runs before any recording or debugging starts;
/// derived from the seed so each seed debugs a different stretch.
uint64_t warmup_cycles(uint64_t seed);

/// One armed (location, condition).
struct Arm {
  std::string filename;
  uint32_t line = 0;
  std::string condition;
};

/// Seeded plan: a rare condition `sum % M == R` (M around 2^20) at every
/// location whose breakpoints have locals, and one hot 16-instance
/// location whose prime modulus `hot_modulus` sets the stop rate.
std::vector<Arm> make_arm_plan(const hgdb::symbols::SymbolTable& table,
                               uint64_t seed, uint64_t hot_modulus);

/// RuntimeOptions with a single eval thread (no pooled batch dispatch).
hgdb::runtime::RuntimeOptions one_eval_thread();

/// A stop reduced to what two runs of the same debugger must agree on:
/// time, location, instances, matched conditions and the frame's locals.
struct StopRecord {
  uint64_t time = 0;
  std::string location;   ///< first frame's file:line:column
  std::string signature;  ///< locations, instances, matched conditions
  std::string values;     ///< evaluated locals of the first frame
  bool operator==(const StopRecord&) const = default;
};

/// The record of a stop whose first frame's locals evaluated to `values`.
StopRecord record_stop(const hgdb::rpc::StopEvent& stop, std::string values);

/// Direct-mode runtime over `backend`: one eval thread, and a stop handler
/// instead of a client, which records every stop (locals evaluated through
/// Runtime::evaluate) and answers `command`. This is the reference the
/// output checks compare the measured session against.
class DirectReference {
 public:
  DirectReference(hgdb::vpi::SimulatorInterface& backend,
                  const hgdb::symbols::SymbolTable& table,
                  const std::vector<Arm>& plan,
                  hgdb::runtime::Runtime::Command command);
  DirectReference(const DirectReference&) = delete;
  DirectReference& operator=(const DirectReference&) = delete;

  [[nodiscard]] hgdb::runtime::Runtime& runtime() { return runtime_; }
  /// Stops recorded since the last take(), in the order the runtime
  /// delivered them.
  std::vector<StopRecord> take() { return std::exchange(stops_, {}); }

 private:
  hgdb::runtime::Runtime runtime_;
  std::vector<StopRecord> stops_;
};

/// Location/instance/matched-condition signature of a stop.
std::string stop_signature(const hgdb::rpc::StopEvent& stop);

/// Names of the first frame's locals, as an IDE variables pane lists them.
std::vector<std::string> frame_local_names(const hgdb::rpc::StopEvent& stop);

/// "name=value;" list of an evaluate_batch reply.
std::string rendered_values(const std::vector<hgdb::debugger::EvalResult>& results);

/// The same list evaluated in direct mode (reference runs): the first
/// frame's locals through Runtime::evaluate.
std::string direct_values(hgdb::runtime::Runtime& runtime,
                          const hgdb::rpc::StopEvent& stop);

}  // namespace perfbench

#endif  // PERFBENCH_DESIGN_H
