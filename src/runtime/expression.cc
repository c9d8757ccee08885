#include "runtime/expression.h"

#include <cctype>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "ir/eval.h"
#include "ir/expr.h"

namespace hgdb::runtime {

using common::BitVector;
using ir::PrimOp;

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

struct Expression::Node {
  enum class Kind : uint8_t { Literal, Name, Op };
  Kind kind = Kind::Literal;
  BitVector literal{1, 0};
  bool literal_signed = false;
  std::string name;
  PrimOp op = PrimOp::Add;
  std::vector<uint32_t> int_params;
  std::vector<std::unique_ptr<Node>> children;
  /// Logical (&&, ||, !) ops coerce operands to booleans first.
  bool logical = false;
};

namespace {

using Node = Expression::Node;

}  // namespace

// The out-of-line special members must see the complete Node type.
Expression::Expression(std::unique_ptr<Node> root, std::string text,
                       std::set<std::string> names)
    : root_(std::move(root)), text_(std::move(text)), names_(std::move(names)) {}
Expression::Expression(Expression&&) noexcept = default;
Expression& Expression::operator=(Expression&&) noexcept = default;
Expression::~Expression() = default;

namespace {

/// Widest value an expression may construct (typed literal or pad
/// target): IEEE 1364's minimum supported vector size. Expression text
/// comes from debugger clients, so an unchecked width would let one
/// request allocate gigabytes.
constexpr uint64_t kMaxWidth = 1u << 16;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind : uint8_t { Name, Number, TypedLiteral, Punct, End };
  Kind kind = Kind::End;
  std::string text;       // Name / Punct spelling
  BitVector value{1, 0};  // Number / TypedLiteral
  bool is_signed = false;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }
  Token next() {
    Token token = current_;
    advance();
    return token;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("expression error at offset " +
                                std::to_string(pos_) + ": " + message);
  }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      current_ = Token{};
      return;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      lex_name_or_literal();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      lex_number();
      return;
    }
    lex_punct();
  }

  void lex_name_or_literal() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '$')) {
      ++pos_;
    }
    std::string name = text_.substr(start, pos_ - start);
    // Typed literal: UInt<8>(42) / SInt<4>(-3).
    if ((name == "UInt" || name == "SInt") && pos_ < text_.size() &&
        text_[pos_] == '<') {
      ++pos_;
      const int64_t width = lex_raw_int();
      if (width < 1 || static_cast<uint64_t>(width) > kMaxWidth) {
        fail("literal width must be 1.." + std::to_string(kMaxWidth));
      }
      expect('>');
      expect('(');
      const int64_t value = lex_raw_int();
      expect(')');
      current_.kind = Token::Kind::TypedLiteral;
      current_.value =
          BitVector(static_cast<uint32_t>(width), static_cast<uint64_t>(value));
      current_.is_signed = name == "SInt";
      return;
    }
    // Path suffixes are part of the name: a.b[3].c matches the symbol
    // table's flattened source names verbatim.
    while (pos_ < text_.size()) {
      if (text_[pos_] == '.') {
        size_t probe = pos_ + 1;
        if (probe >= text_.size() ||
            !(std::isalpha(static_cast<unsigned char>(text_[probe])) ||
              text_[probe] == '_' || text_[probe] == '$')) {
          break;
        }
        name.push_back('.');
        pos_ = probe;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '$')) {
          name.push_back(text_[pos_]);
          ++pos_;
        }
        continue;
      }
      if (text_[pos_] == '[') {
        size_t probe = pos_ + 1;
        std::string digits;
        while (probe < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[probe]))) {
          digits.push_back(text_[probe]);
          ++probe;
        }
        if (digits.empty() || probe >= text_.size() || text_[probe] != ']') {
          break;
        }
        name += "[" + digits + "]";
        pos_ = probe + 1;
        continue;
      }
      break;
    }
    current_.kind = Token::Kind::Name;
    current_.text = std::move(name);
  }

  int64_t lex_raw_int() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("expected integer");
    }
    int64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const int digit = text_[pos_] - '0';
      if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
        fail("integer too large");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return negative ? -value : value;
  }

  void expect(char c) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void lex_number() {
    uint64_t value = 0;
    uint32_t width = 0;
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
      pos_ += 2;
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        value = value * 16 +
                static_cast<uint64_t>(
                    std::isdigit(static_cast<unsigned char>(text_[pos_]))
                        ? text_[pos_] - '0'
                        : std::tolower(text_[pos_]) - 'a' + 10);
        ++pos_;
      }
      if (pos_ == start) fail("bad hex literal");
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        value = value * 10 + static_cast<uint64_t>(text_[pos_] - '0');
        ++pos_;
      }
    }
    // Bare numbers behave like software-debugger integers: 64-bit, so
    // mixed-width arithmetic never wraps unexpectedly. Typed literals
    // (UInt<w>(v)) give exact widths when wanted.
    width = 64;
    current_.kind = Token::Kind::Number;
    current_.value = BitVector(width, value);
    current_.is_signed = false;
  }

  void lex_punct() {
    static const char* kTwoChar[] = {"==", "!=", "<=", ">=", "&&", "||", "<<", ">>"};
    for (const char* op : kTwoChar) {
      if (text_.compare(pos_, 2, op) == 0) {
        current_.kind = Token::Kind::Punct;
        current_.text = op;
        pos_ += 2;
        return;
      }
    }
    static const std::string kOneChar = "+-*/%&|^~!<>(),";
    if (kOneChar.find(text_[pos_]) != std::string::npos) {
      current_.kind = Token::Kind::Punct;
      current_.text = std::string(1, text_[pos_]);
      ++pos_;
      return;
    }
    fail(std::string("unexpected character '") + text_[pos_] + "'");
  }

  const std::string& text_;
  size_t pos_ = 0;
  Token current_;
};

// ---------------------------------------------------------------------------
// Parser (precedence climbing)
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) {}

  std::unique_ptr<Node> parse() {
    auto node = parse_binary(0);
    if (lexer_.peek().kind != Token::Kind::End) {
      lexer_.fail("trailing tokens");
    }
    return node;
  }

  std::set<std::string> take_names() { return std::move(names_); }

 private:
  struct OpInfo {
    const char* spelling;
    int precedence;
    PrimOp op;
    bool logical;
  };

  static const OpInfo* binary_op(const std::string& text) {
    static const OpInfo kOps[] = {
        {"||", 1, PrimOp::Or, true},   {"&&", 2, PrimOp::And, true},
        {"|", 3, PrimOp::Or, false},   {"^", 4, PrimOp::Xor, false},
        {"&", 5, PrimOp::And, false},  {"==", 6, PrimOp::Eq, false},
        {"!=", 6, PrimOp::Neq, false}, {"<", 7, PrimOp::Lt, false},
        {"<=", 7, PrimOp::Leq, false}, {">", 7, PrimOp::Gt, false},
        {">=", 7, PrimOp::Geq, false}, {"<<", 8, PrimOp::Dshl, false},
        {">>", 8, PrimOp::Dshr, false},{"+", 9, PrimOp::Add, false},
        {"-", 9, PrimOp::Sub, false},  {"*", 10, PrimOp::Mul, false},
        {"/", 10, PrimOp::Div, false}, {"%", 10, PrimOp::Rem, false},
    };
    for (const auto& info : kOps) {
      if (text == info.spelling) return &info;
    }
    return nullptr;
  }

  std::unique_ptr<Node> parse_binary(int min_precedence) {
    auto lhs = parse_unary();
    while (lexer_.peek().kind == Token::Kind::Punct) {
      const OpInfo* info = binary_op(lexer_.peek().text);
      if (info == nullptr || info->precedence < min_precedence) break;
      lexer_.next();
      auto rhs = parse_binary(info->precedence + 1);
      auto node = std::make_unique<Node>();
      node->kind = Node::Kind::Op;
      node->op = info->op;
      node->logical = info->logical;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<Node> parse_unary() {
    if (lexer_.peek().kind == Token::Kind::Punct) {
      // Copy: next() overwrites the token the peek reference points into.
      const std::string text = lexer_.peek().text;
      if (text == "!" || text == "~" || text == "-") {
        lexer_.next();
        auto operand = parse_unary();
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Op;
        node->op = text == "-" ? PrimOp::Neg : PrimOp::Not;
        node->logical = text == "!";
        node->children.push_back(std::move(operand));
        return node;
      }
      if (text == "(") {
        lexer_.next();
        auto node = parse_binary(0);
        expect_punct(")");
        return node;
      }
    }
    return parse_primary();
  }

  std::unique_ptr<Node> parse_primary() {
    Token token = lexer_.next();
    auto node = std::make_unique<Node>();
    switch (token.kind) {
      case Token::Kind::Number:
      case Token::Kind::TypedLiteral:
        node->kind = Node::Kind::Literal;
        node->literal = token.value;
        node->literal_signed = token.is_signed;
        return node;
      case Token::Kind::Name: {
        // Call syntax for IR primitives: add(a, b), bits(x, 7, 0), ...
        PrimOp op;
        if (lexer_.peek().kind == Token::Kind::Punct &&
            lexer_.peek().text == "(" && ir::prim_op_from_name(token.text, &op)) {
          lexer_.next();
          node->kind = Node::Kind::Op;
          node->op = op;
          if (!(lexer_.peek().kind == Token::Kind::Punct &&
                lexer_.peek().text == ")")) {
            while (true) {
              // bits/pad/shl/shr integer parameters arrive as numbers in
              // trailing positions; treat trailing pure numbers for param-
              // taking ops as int params.
              node->children.push_back(parse_binary(0));
              if (lexer_.peek().kind == Token::Kind::Punct &&
                  lexer_.peek().text == ",") {
                lexer_.next();
                continue;
              }
              break;
            }
          }
          expect_punct(")");
          split_int_params(*node);
          validate_call_arity(*node);
          return node;
        }
        node->kind = Node::Kind::Name;
        node->name = token.text;
        names_.insert(token.text);
        return node;
      }
      default:
        lexer_.fail("expected value");
    }
  }

  /// For ops that take integer parameters (bits, pad, shl, shr), move the
  /// trailing literal children into int_params.
  static void split_int_params(Node& node) {
    size_t param_count = 0;
    switch (node.op) {
      case PrimOp::Bits: param_count = 2; break;
      case PrimOp::Pad:
      case PrimOp::Shl:
      case PrimOp::Shr: param_count = 1; break;
      default: return;
    }
    if (node.children.size() < param_count) return;
    for (size_t i = node.children.size() - param_count;
         i < node.children.size(); ++i) {
      if (node.children[i]->kind != Node::Kind::Literal) {
        throw std::invalid_argument("expression error: " +
                                    std::string(ir::prim_op_name(node.op)) +
                                    " parameters must be integer literals");
      }
      const uint64_t param = node.children[i]->literal.to_uint64();
      if (node.op == PrimOp::Pad && param > kMaxWidth) {
        throw std::invalid_argument(
            "expression error: pad width must be at most " +
            std::to_string(kMaxWidth));
      }
      node.int_params.push_back(static_cast<uint32_t>(param));
    }
    node.children.resize(node.children.size() - param_count);
  }

  /// Rejects primitive calls with the wrong operand count. Without this
  /// check a call like add(a) parses but indexes past the operand vector
  /// at evaluation time.
  static void validate_call_arity(const Node& node) {
    size_t expected = 2;
    switch (node.op) {
      case PrimOp::Not: case PrimOp::Neg:
      case PrimOp::AndR: case PrimOp::OrR: case PrimOp::XorR:
      case PrimOp::AsUInt: case PrimOp::AsSInt: case PrimOp::AsClock:
      case PrimOp::Bits: case PrimOp::Pad:
      case PrimOp::Shl: case PrimOp::Shr:
        expected = 1;
        break;
      case PrimOp::Mux:
        expected = 3;
        break;
      default:
        break;
    }
    size_t expected_params = 0;
    if (node.op == PrimOp::Bits) expected_params = 2;
    if (node.op == PrimOp::Pad || node.op == PrimOp::Shl ||
        node.op == PrimOp::Shr) {
      expected_params = 1;
    }
    if (node.children.size() != expected ||
        node.int_params.size() != expected_params) {
      throw std::invalid_argument(
          "expression error: " + std::string(ir::prim_op_name(node.op)) +
          " expects " + std::to_string(expected) + " operand(s)" +
          (expected_params != 0
               ? " and " + std::to_string(expected_params) +
                     " integer parameter(s)"
               : std::string{}));
    }
  }

  void expect_punct(const std::string& text) {
    if (lexer_.peek().kind != Token::Kind::Punct || lexer_.peek().text != text) {
      lexer_.fail("expected '" + text + "'");
    }
    lexer_.next();
  }

  Lexer lexer_;
  std::set<std::string> names_;
};

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

struct Value {
  BitVector bits{1, 0};
  bool is_signed = false;
};

/// Result width of `op` over operand widths `w` (only the entries the op
/// uses are read) and integer params. Shared by the interpreted walk and
/// the compiled program so the two evaluators agree by construction.
uint32_t result_width_for(PrimOp op, const uint32_t* w, const uint32_t* params) {
  switch (op) {
    case PrimOp::Add: case PrimOp::Sub: case PrimOp::Mul:
    case PrimOp::Div: case PrimOp::Rem: case PrimOp::And:
    case PrimOp::Or: case PrimOp::Xor:
      return std::max(w[0], w[1]);
    case PrimOp::Mux:
      return std::max(w[1], w[2]);
    case PrimOp::Not: case PrimOp::Neg:
    case PrimOp::Dshl: case PrimOp::Dshr:
    case PrimOp::AsUInt: case PrimOp::AsSInt: case PrimOp::AsClock:
      return w[0];
    case PrimOp::Cat:
      return w[0] + w[1];
    case PrimOp::Bits:
      return params[0] - params[1] + 1;
    case PrimOp::Shl: case PrimOp::Shr:
      return w[0];
    case PrimOp::Pad:
      return params[0];
    case PrimOp::Lt: case PrimOp::Leq: case PrimOp::Gt: case PrimOp::Geq:
    case PrimOp::Eq: case PrimOp::Neq:
    case PrimOp::AndR: case PrimOp::OrR: case PrimOp::XorR:
      return 1;
  }
  return 1;
}

/// Signedness of an op result given the first operand's signedness; the
/// second half of the shared semantics contract.
bool result_signed_for(PrimOp op, bool sign0) {
  return op == PrimOp::AsSInt ||
         (sign0 && (op == PrimOp::Add || op == PrimOp::Sub ||
                    op == PrimOp::Mul || op == PrimOp::Div ||
                    op == PrimOp::Rem || op == PrimOp::Neg));
}

Value evaluate_node(const Node& node, const Expression::Resolver& resolver) {
  switch (node.kind) {
    case Node::Kind::Literal:
      return {node.literal, node.literal_signed};
    case Node::Kind::Name: {
      auto value = resolver(node.name);
      if (!value) {
        throw std::runtime_error("cannot resolve symbol '" + node.name + "'");
      }
      return {std::move(*value), false};
    }
    case Node::Kind::Op:
      break;
  }
  // Logical && / || short-circuit like the C expressions they mimic: the
  // right operand is not evaluated (and cannot fault) when the left side
  // decides the result. The compiled program mirrors this with a branch
  // instruction, so the two engines stay differentially equivalent.
  if (node.logical && node.children.size() == 2 &&
      (node.op == PrimOp::And || node.op == PrimOp::Or)) {
    const bool lhs = evaluate_node(*node.children[0], resolver).bits.to_bool();
    if (node.op == PrimOp::And && !lhs) return {BitVector(1, 0), false};
    if (node.op == PrimOp::Or && lhs) return {BitVector(1, 1), false};
    const bool rhs = evaluate_node(*node.children[1], resolver).bits.to_bool();
    return {BitVector(1, rhs ? 1 : 0), false};
  }
  std::vector<Value> operands;
  operands.reserve(node.children.size());
  for (const auto& child : node.children) {
    operands.push_back(evaluate_node(*child, resolver));
  }
  if (node.logical) {
    // Coerce operands to booleans first; then And/Or/Not are exact.
    for (auto& operand : operands) {
      operand = {BitVector(1, operand.bits.to_bool() ? 1 : 0), false};
    }
  }
  uint32_t widths[3] = {1, 1, 1};
  for (size_t i = 0; i < operands.size() && i < 3; ++i) {
    widths[i] = operands[i].bits.width();
  }
  const uint32_t width =
      result_width_for(node.op, widths, node.int_params.data());
  std::vector<BitVector> bits;
  std::vector<bool> signs;
  bits.reserve(operands.size());
  for (const auto& operand : operands) {
    bits.push_back(operand.bits);
    signs.push_back(operand.is_signed);
  }
  // Mux with unequal arm widths: extend both arms.
  if (node.op == PrimOp::Mux) {
    bits[1] = bits[1].resize(width, signs[1]);
    bits[2] = bits[2].resize(width, signs[2]);
  }
  BitVector result = ir::eval_prim(node.op, bits, signs, node.int_params, width);
  if (result.width() != width) result = result.resize(width);
  const bool result_signed =
      result_signed_for(node.op, !signs.empty() && signs[0]);
  return {std::move(result), result_signed};
}

}  // namespace

Expression Expression::parse(const std::string& text) {
  Parser parser(text);
  auto root = parser.parse();
  return Expression(std::move(root), text, parser.take_names());
}

BitVector Expression::evaluate(const Resolver& resolver) const {
  return evaluate_node(*root_, resolver).bits;
}

namespace {

/// Canonical AST rendering: unambiguous (every node parenthesized and
/// length-prefixed where needed) and independent of source spelling —
/// whitespace, infix vs. call syntax, and literal radix all normalize
/// away. Not meant to be pretty; meant to be a cache key.
void render_key(const Node& node, std::string& out) {
  switch (node.kind) {
    case Node::Kind::Literal:
      out += node.literal_signed ? "s" : "u";
      out += std::to_string(node.literal.width());
      out += "'";
      out += node.literal.to_string(16);
      return;
    case Node::Kind::Name:
      // Length prefix: names may contain any punctuation ('.', '[', ']').
      out += "n";
      out += std::to_string(node.name.size());
      out += ":";
      out += node.name;
      return;
    case Node::Kind::Op:
      break;
  }
  out += node.logical ? "L(" : "(";
  out += ir::prim_op_name(node.op);
  for (uint32_t param : node.int_params) {
    out += " #";
    out += std::to_string(param);
  }
  for (const auto& child : node.children) {
    out += " ";
    render_key(*child, out);
  }
  out += ")";
}

}  // namespace

std::string Expression::cache_key() const {
  std::string out;
  out.reserve(text_.size() + 16);
  render_key(*root_, out);
  return out;
}

// ---------------------------------------------------------------------------
// Compilation: AST -> flat register program
// ---------------------------------------------------------------------------

CompiledExpression Expression::compile() const {
  CompiledExpression out;
  std::map<std::string, uint32_t> slot_of;

  struct Emitter {
    CompiledExpression& out;
    std::map<std::string, uint32_t>& slot_of;

    uint32_t emit(const Node& node) {
      switch (node.kind) {
        case Node::Kind::Literal: {
          out.literals_.push_back(
              CompiledExpression::Value{node.literal, node.literal_signed});
          return CompiledExpression::encode(CompiledExpression::Src::Literal,
                                            out.literals_.size() - 1);
        }
        case Node::Kind::Name: {
          auto [it, inserted] = slot_of.try_emplace(
              node.name, static_cast<uint32_t>(out.symbols_.size()));
          if (inserted) out.symbols_.push_back(node.name);
          return CompiledExpression::encode(CompiledExpression::Src::Slot,
                                            it->second);
        }
        case Node::Kind::Op:
          break;
      }
      // Logical && / ||: lower with a short-circuit branch between the two
      // operand subprograms. Layout:
      //   [lhs subprogram]
      //   Branch  — left side decisive? write verdict into the combine's
      //             register and jump past the right subprogram
      //   [rhs subprogram]
      //   Combine — the ordinary logical And/Or over both operands
      if (node.logical && node.children.size() == 2 &&
          (node.op == PrimOp::And || node.op == PrimOp::Or)) {
        const uint32_t lhs = emit(*node.children[0]);
        CompiledExpression::Instr branch;
        branch.kind = CompiledExpression::Instr::Kind::Branch;
        branch.op = node.op;
        branch.n_operands = 1;
        branch.operands[0] = lhs;
        out.instrs_.push_back(branch);
        const size_t branch_pc = out.instrs_.size() - 1;
        const uint32_t rhs = emit(*node.children[1]);
        CompiledExpression::Instr combine;
        combine.op = node.op;
        combine.logical = true;
        combine.n_operands = 2;
        combine.operands[0] = lhs;
        combine.operands[1] = rhs;
        out.instrs_.push_back(combine);
        // Patch the branch with the combine's pc (operands[1] holds a raw
        // instruction index, not an encoded operand).
        out.instrs_[branch_pc].operands[1] =
            static_cast<uint32_t>(out.instrs_.size() - 1);
        return CompiledExpression::encode(CompiledExpression::Src::Reg,
                                          out.instrs_.size() - 1);
      }
      CompiledExpression::Instr instr;
      instr.op = node.op;
      instr.logical = node.logical;
      instr.n_operands = static_cast<uint8_t>(node.children.size());
      for (size_t i = 0; i < node.children.size(); ++i) {
        instr.operands[i] = emit(*node.children[i]);
      }
      instr.n_params = static_cast<uint8_t>(node.int_params.size());
      for (size_t i = 0; i < node.int_params.size(); ++i) {
        instr.params[i] = node.int_params[i];
      }
      out.instrs_.push_back(instr);
      return CompiledExpression::encode(CompiledExpression::Src::Reg,
                                        out.instrs_.size() - 1);
    }
  };

  out.root_ = Emitter{out, slot_of}.emit(*root_);
  return out;
}

// ---------------------------------------------------------------------------
// Compiled evaluation
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kScalarWidth = 64;

uint64_t mask_of(uint32_t width) {  // width in [1, 64]
  return width >= kScalarWidth ? ~uint64_t{0}
                               : (uint64_t{1} << width) - uint64_t{1};
}

/// Zero-/sign-extends a normalized `from_width`-bit value to `to_width`
/// bits (both <= 64), truncating when narrower.
uint64_t extend_to(uint64_t raw, uint32_t from_width, bool is_signed,
                   uint32_t to_width) {
  uint64_t value = raw;
  if (is_signed && from_width < kScalarWidth &&
      ((raw >> (from_width - 1)) & 1u) != 0) {
    value |= ~uint64_t{0} << from_width;
  }
  return value & mask_of(to_width);
}

/// Reinterprets a normalized `width`-bit value as a signed 64-bit integer.
int64_t as_signed(uint64_t raw, uint32_t width) {
  if (width < kScalarWidth) {
    const uint64_t sign = uint64_t{1} << (width - 1);
    raw = (raw ^ sign) - sign;
  }
  return static_cast<int64_t>(raw);
}

/// Scalar (<= 64-bit) evaluation of one op, mirroring ir::eval_prim plus
/// the interpreted walk's width/extension rules. `raw` values are
/// normalized to their widths `w`. Returns false on a fault the
/// interpreted path would report by throwing (bad slice, zero-width pad).
bool eval_scalar(PrimOp op, const uint64_t* raw, const uint32_t* w,
                 const bool* signs, const uint32_t* params, uint32_t width,
                 uint64_t* out) {
  const bool is_signed = signs[0];
  switch (op) {
    case PrimOp::Add:
      *out = (extend_to(raw[0], w[0], signs[0], width) +
              extend_to(raw[1], w[1], signs[1], width)) &
             mask_of(width);
      return true;
    case PrimOp::Sub:
      *out = (extend_to(raw[0], w[0], signs[0], width) -
              extend_to(raw[1], w[1], signs[1], width)) &
             mask_of(width);
      return true;
    case PrimOp::Mul:
      *out = (extend_to(raw[0], w[0], signs[0], width) *
              extend_to(raw[1], w[1], signs[1], width)) &
             mask_of(width);
      return true;
    case PrimOp::Div: {
      const uint64_t a = extend_to(raw[0], w[0], signs[0], width);
      const uint64_t b = extend_to(raw[1], w[1], signs[1], width);
      if (b == 0) {
        *out = mask_of(width);
      } else if (is_signed) {
        const int64_t bs = as_signed(b, width);
        // bs == -1 would overflow INT64_MIN / -1; -a is always defined.
        *out = bs == -1 ? (uint64_t{0} - a) & mask_of(width)
                        : static_cast<uint64_t>(as_signed(a, width) / bs) &
                              mask_of(width);
      } else {
        *out = a / b;
      }
      return true;
    }
    case PrimOp::Rem: {
      const uint64_t a = extend_to(raw[0], w[0], signs[0], width);
      const uint64_t b = extend_to(raw[1], w[1], signs[1], width);
      if (b == 0) {
        *out = a;
      } else if (is_signed) {
        const int64_t bs = as_signed(b, width);
        *out = bs == -1 ? 0
                        : static_cast<uint64_t>(as_signed(a, width) % bs) &
                              mask_of(width);
      } else {
        *out = a % b;
      }
      return true;
    }
    case PrimOp::Lt: case PrimOp::Leq: case PrimOp::Gt: case PrimOp::Geq:
    case PrimOp::Eq: case PrimOp::Neq: {
      const uint32_t common = std::max(w[0], w[1]);
      const uint64_t a = extend_to(raw[0], w[0], signs[0], common);
      const uint64_t b = extend_to(raw[1], w[1], signs[1], common);
      bool result = false;
      switch (op) {
        case PrimOp::Lt:
          result = is_signed ? as_signed(a, common) < as_signed(b, common)
                             : a < b;
          break;
        case PrimOp::Leq:
          result = is_signed ? as_signed(a, common) <= as_signed(b, common)
                             : a <= b;
          break;
        case PrimOp::Gt:
          result = is_signed ? as_signed(a, common) > as_signed(b, common)
                             : a > b;
          break;
        case PrimOp::Geq:
          result = is_signed ? as_signed(a, common) >= as_signed(b, common)
                             : a >= b;
          break;
        case PrimOp::Eq: result = a == b; break;
        case PrimOp::Neq: result = a != b; break;
        default: break;
      }
      *out = result ? 1 : 0;
      return true;
    }
    case PrimOp::And:
      *out = extend_to(raw[0], w[0], signs[0], width) &
             extend_to(raw[1], w[1], signs[1], width);
      return true;
    case PrimOp::Or:
      *out = extend_to(raw[0], w[0], signs[0], width) |
             extend_to(raw[1], w[1], signs[1], width);
      return true;
    case PrimOp::Xor:
      *out = extend_to(raw[0], w[0], signs[0], width) ^
             extend_to(raw[1], w[1], signs[1], width);
      return true;
    case PrimOp::Not:
      *out = ~raw[0] & mask_of(w[0]);
      return true;
    case PrimOp::Neg:
      *out = (uint64_t{0} - raw[0]) & mask_of(w[0]);
      return true;
    case PrimOp::AndR:
      *out = raw[0] == mask_of(w[0]) ? 1 : 0;
      return true;
    case PrimOp::OrR:
      *out = raw[0] != 0 ? 1 : 0;
      return true;
    case PrimOp::XorR:
      *out = static_cast<uint64_t>(__builtin_popcountll(raw[0])) & 1u;
      return true;
    case PrimOp::Cat:
      *out = (raw[0] << w[1]) | raw[1];
      return true;
    case PrimOp::Bits:
      if (params[1] > params[0] || params[0] >= w[0]) return false;
      *out = (raw[0] >> params[1]) & mask_of(params[0] - params[1] + 1);
      return true;
    case PrimOp::Shl:
      *out = params[0] >= w[0] ? 0 : (raw[0] << params[0]) & mask_of(w[0]);
      return true;
    case PrimOp::Shr:
      if (params[0] >= w[0]) {
        *out = is_signed && ((raw[0] >> (w[0] - 1)) & 1u) ? mask_of(w[0]) : 0;
      } else if (is_signed) {
        *out = static_cast<uint64_t>(as_signed(raw[0], w[0]) >> params[0]) &
               mask_of(w[0]);
      } else {
        *out = raw[0] >> params[0];
      }
      return true;
    case PrimOp::Dshl:
      *out = raw[1] >= w[0] ? 0 : (raw[0] << raw[1]) & mask_of(w[0]);
      return true;
    case PrimOp::Dshr:
      if (raw[1] >= w[0]) {
        *out = is_signed && ((raw[0] >> (w[0] - 1)) & 1u) ? mask_of(w[0]) : 0;
      } else if (is_signed) {
        *out = static_cast<uint64_t>(as_signed(raw[0], w[0]) >>
                                     static_cast<uint32_t>(raw[1])) &
               mask_of(w[0]);
      } else {
        *out = raw[0] >> raw[1];
      }
      return true;
    case PrimOp::Pad:
      if (params[0] == 0) return false;
      *out = params[0] <= w[0] ? raw[0] & mask_of(params[0])
                               : extend_to(raw[0], w[0], is_signed, params[0]);
      return true;
    case PrimOp::AsUInt: case PrimOp::AsSInt: case PrimOp::AsClock:
      *out = raw[0];
      return true;
    case PrimOp::Mux: {
      const uint32_t arm = raw[0] != 0 ? 1 : 2;
      *out = extend_to(raw[arm], w[arm], signs[arm], width);
      return true;
    }
  }
  return false;
}

}  // namespace

const BitVector* CompiledExpression::evaluate(
    const common::BitVector* const* slots, Scratch& scratch) const {
  if (scratch.regs.size() < instrs_.size()) scratch.regs.resize(instrs_.size());

  // Resolving an encoded operand yields (bits, signedness).
  const auto view = [&](uint32_t operand) -> std::pair<const BitVector*, bool> {
    const uint32_t index = operand & kIndexMask;
    switch (static_cast<Src>(operand >> kSrcShift)) {
      case Src::Reg: {
        const Value& value = scratch.regs[index];
        return {&value.bits, value.is_signed};
      }
      case Src::Slot:
        return {slots[index], false};
      case Src::Literal: {
        const Value& value = literals_[index];
        return {&value.bits, value.is_signed};
      }
    }
    return {nullptr, false};
  };

  for (size_t pc = 0; pc < instrs_.size(); ++pc) {
    const Instr& instr = instrs_[pc];
    ++scratch.ops_executed;
    if (instr.kind == Instr::Kind::Branch) {
      // Logical short-circuit: when the left operand decides a && / ||,
      // write the verdict into the combine instruction's register and skip
      // the right-hand subprogram (operands[1] is the combine's pc).
      const auto [lhs_bits, lhs_signed] = view(instr.operands[0]);
      (void)lhs_signed;
      if (lhs_bits == nullptr) return nullptr;  // unavailable slot
      const bool lhs = lhs_bits->to_bool();
      const bool decisive = instr.op == PrimOp::And ? !lhs : lhs;
      if (decisive) {
        const size_t target = instr.operands[1];
        Value& reg = scratch.regs[target];
        reg.bits.reset(1, instr.op == PrimOp::Or ? 1 : 0);
        reg.is_signed = false;
        pc = target;  // loop increment moves past the combine
      }
      continue;
    }
    const BitVector* bits[3] = {nullptr, nullptr, nullptr};
    bool signs[3] = {false, false, false};
    uint64_t raw[3] = {0, 0, 0};
    uint32_t widths[3] = {1, 1, 1};
    bool scalar = true;
    for (uint8_t i = 0; i < instr.n_operands; ++i) {
      auto [operand_bits, operand_signed] = view(instr.operands[i]);
      if (operand_bits == nullptr) return nullptr;  // unavailable slot
      if (instr.logical) {
        // Logical ops see 1-bit booleans regardless of operand width.
        raw[i] = operand_bits->to_bool() ? 1 : 0;
        widths[i] = 1;
        signs[i] = false;
        continue;
      }
      bits[i] = operand_bits;
      signs[i] = operand_signed;
      widths[i] = operand_bits->width();
      if (widths[i] <= kScalarWidth) {
        raw[i] = operand_bits->to_uint64();
      } else {
        scalar = false;
      }
    }

    const uint32_t width = result_width_for(instr.op, widths, instr.params);
    Value& reg = scratch.regs[pc];

    if (scalar && width <= kScalarWidth) {
      uint64_t result = 0;
      if (!eval_scalar(instr.op, raw, widths, signs, instr.params, width,
                       &result)) {
        return nullptr;
      }
      reg.bits.reset(width, result);
      reg.is_signed = result_signed_for(instr.op, signs[0]);
      continue;
    }

    // Wide operands: route through the shared ir::eval_prim reference so
    // multi-word semantics are defined in exactly one place. Rare on the
    // hot path (conditions over >64-bit signals), so the copies and the
    // exception guard are acceptable here. Logical instrs never land
    // here: their operands coerce to 1-bit above, keeping them scalar.
    scratch.wide_bits.clear();
    scratch.wide_signs.clear();
    std::vector<uint32_t> int_params(instr.params,
                                     instr.params + instr.n_params);
    for (uint8_t i = 0; i < instr.n_operands; ++i) {
      scratch.wide_bits.push_back(*bits[i]);
      scratch.wide_signs.push_back(signs[i]);
    }
    try {
      if (instr.op == PrimOp::Mux) {
        scratch.wide_bits[1] = scratch.wide_bits[1].resize(width, signs[1]);
        scratch.wide_bits[2] = scratch.wide_bits[2].resize(width, signs[2]);
      }
      BitVector result = ir::eval_prim(instr.op, scratch.wide_bits,
                                       scratch.wide_signs, int_params, width);
      if (result.width() != width) result = result.resize(width);
      reg.bits = std::move(result);
      reg.is_signed = result_signed_for(instr.op, signs[0]);
    } catch (const std::exception&) {
      return nullptr;  // faults (bad slice, ...) degrade to "unavailable"
    }
  }

  return view(root_).first;
}

int CompiledExpression::evaluate_bool(const common::BitVector* const* slots,
                                      Scratch& scratch) const {
  const BitVector* result = evaluate(slots, scratch);
  if (result == nullptr) return -1;
  return result->to_bool() ? 1 : 0;
}

}  // namespace hgdb::runtime
