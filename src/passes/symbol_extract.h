#ifndef HGDB_PASSES_SYMBOL_EXTRACT_H
#define HGDB_PASSES_SYMBOL_EXTRACT_H

#include <string>

#include "ir/circuit.h"
#include "symbols/schema.h"

namespace hgdb::passes {

/// Algorithm 1, second pass: collects the annotations the SSA/lowering
/// passes attached to IR nodes ("first pass") and computes the final
/// symbol table from the *current* (optimized) circuit state.
///
/// Nodes deleted by optimization simply no longer exist in the Low form,
/// so their breakpoints and variables are dropped — "a behavior consistent
/// with software compilers" (paper Sec. 4.1). Variables whose RTL targets
/// were optimized away are likewise omitted from scopes.
///
/// Instance rows are emitted for the full elaborated hierarchy, rooted at
/// the top module's name; variable rows hold instance-relative RTL paths
/// and are shared between instances of the same module.
symbols::SymbolTableData extract_symbol_table(const ir::Circuit& circuit);

/// Deduplication key of a shared variable row: the module, the value and
/// the kind, each after a 0x1f separator, so a constant and an RTL row of
/// the same text never share a row.
[[nodiscard]] std::string variable_row_key(const std::string& module,
                                           const std::string& value,
                                           bool is_rtl);

}  // namespace hgdb::passes

#endif  // HGDB_PASSES_SYMBOL_EXTRACT_H
