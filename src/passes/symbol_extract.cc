#include "passes/symbol_extract.h"

#include <map>
#include <set>
#include <stdexcept>

#include "passes/pass.h"

namespace hgdb::passes {

namespace {

using namespace ir;
using symbols::SymbolTableData;

/// Static (per-module) symbol information gathered before walking the
/// instance hierarchy.
struct ModuleSymbols {
  struct Breakpoint {
    std::string node_name;
    common::SourceLoc loc;
    std::string enable;  ///< empty = always
    uint32_t order_index = 0;
    /// source variable name -> instance-relative RTL name
    std::vector<std::pair<std::string, std::string>> scope_rtl;
    /// constant bindings (unrolled loop indices): name -> rendered value
    std::vector<std::pair<std::string, std::string>> scope_constants;
  };
  struct GenVar {
    std::string name;   ///< generator-level (dotted) name
    std::string value;  ///< instance-relative RTL name
  };
  std::vector<Breakpoint> breakpoints;
  std::vector<GenVar> generator_variables;
  std::vector<std::pair<std::string, std::string>> instances;  // name, module
};

/// All referencable RTL names in a Low-form module: ports, regs, nodes.
std::set<std::string> rtl_names(const Module& module) {
  std::set<std::string> names;
  for (const auto& port : module.ports()) names.insert(port.name);
  visit_stmts(module.body(), [&](const Stmt& stmt) {
    if (stmt.kind() == StmtKind::Reg) {
      names.insert(static_cast<const RegStmt&>(stmt).name);
    } else if (stmt.kind() == StmtKind::Node) {
      names.insert(static_cast<const NodeStmt&>(stmt).name);
    }
  });
  return names;
}

ModuleSymbols analyze_module(const Circuit& circuit, const Module& module) {
  ModuleSymbols out;
  const std::set<std::string> names = rtl_names(module);

  // Index this module's annotations.
  std::map<std::string, const common::Json*> scopes;        // node -> payload
  std::map<std::string, std::string> flat_sources;          // flat -> dotted
  std::vector<std::pair<std::string, std::string>> genvars; // target, name
  for (const auto& annotation : circuit.annotations()) {
    if (annotation.module != module.name()) continue;
    if (annotation.kind == "hgdb.scope") {
      scopes[annotation.target] = &annotation.payload;
    } else if (annotation.kind == "hgdb.flat") {
      flat_sources[annotation.target] =
          annotation.payload.get_string("source");
    } else if (annotation.kind == "hgdb.genvar") {
      genvars.emplace_back(annotation.target,
                           annotation.payload.get_string("name"));
    }
  }

  // Breakpoints: every surviving non-synthetic node with a source location,
  // in statement order (this is the Fig. 2 intra-cycle execution order).
  uint32_t order = 0;
  visit_stmts(module.body(), [&](const Stmt& stmt) {
    if (stmt.kind() == StmtKind::Instance) {
      const auto& inst = static_cast<const InstanceStmt&>(stmt);
      out.instances.emplace_back(inst.name, inst.module_name);
      return;
    }
    if (stmt.kind() != StmtKind::Node) return;
    const auto& node = static_cast<const NodeStmt&>(stmt);
    if (!node.loc.valid() || node.synthetic) return;
    ModuleSymbols::Breakpoint bp;
    bp.node_name = node.name;
    bp.loc = node.loc;
    bp.enable = node.enable ? node.enable->str() : "";
    bp.order_index = order++;
    if (auto it = scopes.find(node.name); it != scopes.end()) {
      const common::Json& payload = *it->second;
      if (auto vars = payload.get("vars"); vars && vars->get().is_object()) {
        for (const auto& [source_name, rtl] : vars->get().as_object()) {
          // Drop variables whose RTL signal was optimized away. A scope
          // entry can be a bare name or an expression; only bare surviving
          // names are kept (consistent with software -O2 debug info).
          const std::string& rtl_name = rtl.as_string();
          if (names.count(rtl_name)) {
            bp.scope_rtl.emplace_back(source_name, rtl_name);
          }
        }
      }
      if (auto constants = payload.get("constants");
          constants && constants->get().is_object()) {
        for (const auto& [constant_name, value] : constants->get().as_object()) {
          bp.scope_constants.emplace_back(constant_name,
                                          std::to_string(value.as_int()));
        }
      }
    }
    out.breakpoints.push_back(std::move(bp));
  });

  // Generator variables: only those whose targets survived optimization.
  std::set<std::string> seen;
  for (const auto& [target, name] : genvars) {
    if (!names.count(target)) continue;
    std::string display = name;
    if (auto it = flat_sources.find(target); it != flat_sources.end()) {
      display = it->second;
    }
    if (!seen.insert(display).second) continue;
    out.generator_variables.push_back(ModuleSymbols::GenVar{display, target});
  }
  return out;
}

class Extractor {
 public:
  explicit Extractor(const Circuit& circuit) : circuit_(circuit) {}

  SymbolTableData run() {
    for (const auto& module : circuit_.modules()) {
      modules_.emplace(module->name(), analyze_module(circuit_, *module));
    }
    const Module* top = circuit_.top();
    if (top == nullptr) throw std::runtime_error("extract: no top module");
    walk_instance(top->name(), top->name());
    return std::move(data_);
  }

 private:
  /// Shared variable rows: one per (module, rtl-or-constant value). Two
  /// instances of the same module reference the same row because values
  /// are instance-relative.
  int64_t variable_id(const std::string& module, const std::string& value,
                      bool is_rtl) {
    const std::string key = variable_row_key(module, value, is_rtl);
    auto it = variable_cache_.find(key);
    if (it != variable_cache_.end()) return it->second;
    const int64_t id = static_cast<int64_t>(data_.variables.size()) + 1;
    data_.variables.push_back(symbols::VariableRow{id, value, is_rtl});
    variable_cache_.emplace(key, id);
    return id;
  }

  void walk_instance(const std::string& path, const std::string& module_name) {
    const ModuleSymbols& symbols = modules_.at(module_name);
    const int64_t instance_id = static_cast<int64_t>(data_.instances.size()) + 1;
    data_.instances.push_back(symbols::InstanceRow{instance_id, path});

    for (const auto& bp : symbols.breakpoints) {
      const int64_t bp_id = static_cast<int64_t>(data_.breakpoints.size()) + 1;
      data_.breakpoints.push_back(symbols::BreakpointRow{
          bp_id, instance_id, bp.loc.filename, bp.loc.line, bp.loc.column,
          bp.enable, bp.order_index});
      for (const auto& [name, rtl] : bp.scope_rtl) {
        data_.scope_variables.push_back(symbols::ScopeVariableRow{
            bp_id, variable_id(module_name, rtl, /*is_rtl=*/true), name});
      }
      for (const auto& [name, constant] : bp.scope_constants) {
        data_.scope_variables.push_back(symbols::ScopeVariableRow{
            bp_id, variable_id(module_name, constant, /*is_rtl=*/false), name});
      }
    }
    for (const auto& genvar : symbols.generator_variables) {
      data_.generator_variables.push_back(symbols::GeneratorVariableRow{
          instance_id, variable_id(module_name, genvar.value, /*is_rtl=*/true),
          genvar.name});
    }
    for (const auto& [child_name, child_module] : symbols.instances) {
      walk_instance(path + "." + child_name, child_module);
    }
  }

  const Circuit& circuit_;
  std::map<std::string, ModuleSymbols> modules_;
  std::map<std::string, int64_t> variable_cache_;
  SymbolTableData data_;
};

}  // namespace

std::string variable_row_key(const std::string& module,
                             const std::string& value, bool is_rtl) {
  // Two literals: "\x1fc" would be one hex escape, the single byte 0xfc.
  return module + "\x1f" + value + (is_rtl ? "\x1f" "r" : "\x1f" "c");
}

SymbolTableData extract_symbol_table(const Circuit& circuit) {
  if (circuit.form() != Form::Low) {
    throw std::runtime_error(
        "extract_symbol_table requires the Low form (run the pipeline first)");
  }
  return Extractor(circuit).run();
}

}  // namespace hgdb::passes
