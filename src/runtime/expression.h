#ifndef HGDB_RUNTIME_EXPRESSION_H
#define HGDB_RUNTIME_EXPRESSION_H

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "ir/expr.h"

namespace hgdb::runtime {

class CompiledExpression;

/// A parsed debug-time expression.
///
/// Two expression sources flow through this class (paper Sec. 3.1/3.2):
///  - SSA *enable conditions* stored in the symbol table, written in the
///    IR printer's call syntax, e.g. "and(when_cond0, not(when_cond1))";
///  - *user conditions* on breakpoints, written C-style, e.g.
///    "data[0] % 2 == 1 && sum > 10".
/// One grammar covers both: C-style infix operators plus named calls for
/// every IR primitive, names with '.' and '[index]' path suffixes (matched
/// verbatim against symbol names), decimal/hex numbers, and typed literals
/// like UInt<8>(42).
///
/// Parsing happens once (at breakpoint insertion). compile() lowers the
/// AST into a CompiledExpression, the flat register program the runtime
/// runs for every condition, watchpoint and one-off evaluation.
/// evaluate() is the interpreted tree walk over a caller-supplied name
/// resolver: the *reference implementation* that the differential tests
/// and the expression fuzz harness compare compiled results against. The
/// runtime never calls it.
class Expression {
 public:
  using Resolver =
      std::function<std::optional<common::BitVector>(const std::string&)>;

  /// Parses `text`; throws std::invalid_argument with a description on
  /// syntax errors (including wrong primitive-call arity).
  static Expression parse(const std::string& text);

  Expression(Expression&&) noexcept;
  Expression& operator=(Expression&&) noexcept;
  ~Expression();

  /// Evaluates against a resolver. Throws std::runtime_error if a name
  /// cannot be resolved.
  [[nodiscard]] common::BitVector evaluate(const Resolver& resolver) const;

  /// Lowers the AST to a flat register-machine program whose name operands
  /// are integer slots (see CompiledExpression).
  [[nodiscard]] CompiledExpression compile() const;

  /// All symbol names referenced by the expression.
  [[nodiscard]] const std::set<std::string>& names() const { return names_; }

  [[nodiscard]] const std::string& text() const { return text_; }

  /// Canonical rendering of the parsed AST, stable across textual
  /// variations of one expression ("a&&b" == "a && b" == "and(a, b)" when
  /// they parse to the same tree). The runtime keys its shared-program
  /// cache on this, so N instances arming the same condition compile one
  /// CompiledExpression instead of N identical ones.
  [[nodiscard]] std::string cache_key() const;

  struct Node;  // implementation detail, defined in expression.cc

 private:
  explicit Expression(std::unique_ptr<Node> root, std::string text,
                      std::set<std::string> names);

  std::unique_ptr<Node> root_;
  std::string text_;
  std::set<std::string> names_;
};

/// A debug expression lowered to a flat register-machine program — the
/// compiled half of the breakpoint-evaluation pipeline:
///
///   parse (once)  ->  compile (once)  ->  slot resolution (at arm time)
///     ->  per edge: batched fetch + evaluate over a contiguous op array
///
/// Name operands become integer *slots*: symbols() lists the referenced
/// names in slot order, and the runtime resolves each to a design signal
/// (or a symbol-table constant) exactly once when the breakpoint or
/// watchpoint is armed. Steady-state evaluation is a loop over the
/// instruction array reading a caller-prefetched value vector: no string
/// lookups, no resolver indirection, and — for operand widths within the
/// BitVector small-buffer (<= 128 bits) — no heap allocation.
///
/// Operands <= 64 bits take a scalar uint64 fast path that mirrors
/// ir::eval_prim's semantics bit-for-bit; wider values fall back to the
/// shared ir::eval_prim routine itself, so compiled and interpreted
/// evaluation can never diverge (the differential fuzz suite in
/// tests/runtime/compiled_expression_test.cc enforces this).
class CompiledExpression {
 public:
  struct Value {
    common::BitVector bits{1, 0};
    bool is_signed = false;
  };

  /// Reusable evaluation state (one register per instruction plus
  /// slow-path operand buffers). One Scratch per concurrent evaluator;
  /// reusing it across evaluations keeps the steady state allocation-free.
  struct Scratch {
    std::vector<Value> regs;
    std::vector<common::BitVector> wide_bits;
    std::vector<bool> wide_signs;
    /// Instructions executed across all evaluate() calls with this
    /// scratch. Logical short-circuiting (&&/||) skips the dead operand's
    /// subprogram, which this counter makes observable (tests assert the
    /// skip; the bench reports it).
    uint64_t ops_executed = 0;
  };

  /// Referenced names in slot order: evaluate()'s slots[i] must point at
  /// the current value of symbols()[i], or be nullptr when unavailable.
  [[nodiscard]] const std::vector<std::string>& symbols() const {
    return symbols_;
  }
  [[nodiscard]] size_t instruction_count() const { return instrs_.size(); }

  /// Evaluates the program over the given slot values. Returns the result
  /// (a pointer into `scratch`, a literal, or one of `slots`; valid until
  /// the next evaluate with the same scratch), or nullptr when a needed
  /// slot is nullptr or the expression faults (e.g. an out-of-range bit
  /// slice). Never throws: the scheduler hot loop must not unwind.
  [[nodiscard]] const common::BitVector* evaluate(
      const common::BitVector* const* slots, Scratch& scratch) const;

  /// Boolean coercion of evaluate(): -1 unavailable/fault, 0 false, 1 true.
  [[nodiscard]] int evaluate_bool(const common::BitVector* const* slots,
                                  Scratch& scratch) const;

 private:
  friend class Expression;

  // Operand encoding: top 2 bits select the source, low 30 bits the index.
  enum : uint32_t { kSrcShift = 30u, kIndexMask = (1u << kSrcShift) - 1u };
  enum class Src : uint32_t { Reg = 0, Slot = 1, Literal = 2 };
  static uint32_t encode(Src src, size_t index) {
    return (static_cast<uint32_t>(src) << kSrcShift) |
           static_cast<uint32_t>(index);
  }

  struct Instr {
    /// Prim computes an IR primitive. Branch implements logical
    /// short-circuit: emitted between the two operand subprograms of a
    /// && / ||, it tests the left operand and — when the left side decides
    /// the result — writes the 1-bit verdict straight into the combine
    /// instruction's register (operands[1] names its pc) and jumps past
    /// it, so the dead right-hand subprogram never executes.
    enum class Kind : uint8_t { Prim, Branch };
    Kind kind = Kind::Prim;
    ir::PrimOp op = ir::PrimOp::Add;
    bool logical = false;  ///< coerce operands to booleans first (&&, ||, !)
    uint8_t n_operands = 0;
    uint8_t n_params = 0;
    uint32_t operands[3] = {0, 0, 0};
    uint32_t params[2] = {0, 0};  ///< bits(hi, lo) / pad / shl / shr amounts
  };

  std::vector<Instr> instrs_;
  std::vector<Value> literals_;
  std::vector<std::string> symbols_;
  uint32_t root_ = 0;  ///< encoded operand producing the final result
};

}  // namespace hgdb::runtime

#endif  // HGDB_RUNTIME_EXPRESSION_H
