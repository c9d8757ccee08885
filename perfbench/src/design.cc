#include "design.h"

#include <algorithm>

#include "common.h"
#include "workloads/workloads.h"

namespace perfbench {

using hgdb::symbols::SymbolTable;

hgdb::frontend::CompileResult compile_design() {
  hgdb::frontend::CompileOptions options;
  options.debug_mode = true;
  return hgdb::frontend::compile(hgdb::workloads::workload(kDesign).build(),
                                 options);
}

uint64_t warmup_cycles(uint64_t seed) {
  return Rng(seed ^ 0x77a7).range(16, 4096);
}

std::vector<Arm> make_arm_plan(const SymbolTable& table, uint64_t seed,
                               uint64_t hot_modulus) {
  // Locations in scan order, with their instance count and local names.
  struct Location {
    std::string filename;
    uint32_t line = 0;
    size_t instances = 0;
    bool has_sum = false;
  };
  std::vector<Location> locations;
  for (const auto& row : table.all_breakpoints()) {
    if (locations.empty() || locations.back().filename != row.filename ||
        locations.back().line != row.line_num) {
      Location location;
      location.filename = row.filename;
      location.line = row.line_num;
      for (const auto& variable : table.scope_variables(row.id)) {
        location.has_sum |= variable.name == "sum";
      }
      locations.push_back(std::move(location));
    }
    ++locations.back().instances;
  }

  Rng rng(seed ^ 0xa2a2);
  std::vector<Arm> plan;
  const Location* hot = nullptr;
  for (const auto& location : locations) {
    if (!location.has_sum) continue;
    const uint64_t modulus = rng.range(1u << 20, (1u << 20) + 4096);
    plan.push_back(Arm{location.filename, location.line,
                       "sum % " + std::to_string(modulus) + " == " +
                           std::to_string(rng.range(0, modulus - 1))});
    // The last 16-instance location with locals is the guarded
    // accumulate (`when (element odd) sum += element`).
    if (location.instances >= 16) hot = &location;
  }
  if (hot != nullptr) {
    // `sum` here is the partial sum before this lane adds its element: 0
    // in lane 0 and a sum of odd elements after it. With a prime modulus
    // and R != 0 every residue is about equally likely, so the expected
    // stop rate is the same for every seed.
    plan.push_back(Arm{hot->filename, hot->line,
                       "sum % " + std::to_string(hot_modulus) + " == " +
                           std::to_string(rng.range(1, hot_modulus - 1))});
  }
  return plan;
}

hgdb::runtime::RuntimeOptions one_eval_thread() {
  hgdb::runtime::RuntimeOptions options;
  options.eval_threads = 1;
  return options;
}

StopRecord record_stop(const hgdb::rpc::StopEvent& stop, std::string values) {
  StopRecord record;
  record.time = stop.time;
  if (!stop.frames.empty()) {
    const auto& frame = stop.frames.front();
    record.location = frame.filename + ":" + std::to_string(frame.line) + ":" +
                      std::to_string(frame.column);
  }
  record.signature = stop_signature(stop);
  record.values = std::move(values);
  return record;
}

DirectReference::DirectReference(hgdb::vpi::SimulatorInterface& backend,
                                 const SymbolTable& table,
                                 const std::vector<Arm>& plan,
                                 hgdb::runtime::Runtime::Command command)
    : runtime_(backend, table, one_eval_thread()) {
  runtime_.attach();
  for (const auto& arm : plan) {
    runtime_.add_breakpoint(arm.filename, arm.line, arm.condition);
  }
  runtime_.set_stop_handler([this, command](const hgdb::rpc::StopEvent& stop) {
    stops_.push_back(record_stop(stop, direct_values(runtime_, stop)));
    return command;
  });
}


std::string stop_signature(const hgdb::rpc::StopEvent& stop) {
  std::string out;
  for (const auto& frame : stop.frames) {
    out += frame.filename + ":" + std::to_string(frame.line) + ":" +
           std::to_string(frame.column) + "@" + frame.instance_name + "#" +
           std::to_string(frame.breakpoint_id);
    std::vector<std::string> matched = frame.matched_conditions;
    std::sort(matched.begin(), matched.end());
    for (const auto& condition : matched) out += "[" + condition + "]";
    out += ";";
  }
  for (const auto& hit : stop.watch_hits) out += "watch" + std::to_string(hit.id);
  return out;
}

std::vector<std::string> frame_local_names(const hgdb::rpc::StopEvent& stop) {
  std::vector<std::string> names;
  if (stop.frames.empty()) return names;
  const auto& locals = stop.frames.front().locals;
  if (!locals.is_object()) return names;
  for (const auto& [name, value] : locals.as_object()) {
    if (value.is_string() || value.is_number()) names.push_back(name);
  }
  return names;
}

std::string rendered_values(const std::vector<hgdb::debugger::EvalResult>& results) {
  std::string values;
  for (const auto& result : results) {
    values += result.expression + "=" +
              (result.ok ? result.value : "!" + result.reason) + ";";
  }
  return values;
}

std::string direct_values(hgdb::runtime::Runtime& runtime,
                          const hgdb::rpc::StopEvent& stop) {
  std::string values;
  for (const auto& name : frame_local_names(stop)) {
    auto value = runtime.evaluate(name, stop.frames.front().breakpoint_id);
    values += name + "=" + (value ? value->to_string(10) : "!") + ";";
  }
  return values;
}

}  // namespace perfbench
