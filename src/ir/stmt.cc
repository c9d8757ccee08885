#include "ir/stmt.h"

#include <utility>

namespace hgdb::ir {

namespace {
template <typename T>
std::unique_ptr<T> copy_base(const T& from, std::unique_ptr<T> to) {
  to->loc = from.loc;
  to->loop_bindings = from.loop_bindings;
  return to;
}
}  // namespace

StmtPtr BlockStmt::clone() const { return clone_block(); }

std::unique_ptr<BlockStmt> BlockStmt::clone_block() const {
  auto out = std::make_unique<BlockStmt>();
  out->loc = loc;
  out->loop_bindings = loop_bindings;
  out->stmts.reserve(stmts.size());
  for (const auto& stmt : stmts) out->stmts.push_back(stmt->clone());
  return out;
}

StmtPtr WireStmt::clone() const {
  auto out = copy_base(*this, std::make_unique<WireStmt>(name, type));
  out->source_name = source_name;
  return out;
}

StmtPtr RegStmt::clone() const {
  auto out = copy_base(*this, std::make_unique<RegStmt>(name, type, clock_name));
  out->reset = reset;
  out->init = init;
  out->source_name = source_name;
  return out;
}

StmtPtr NodeStmt::clone() const {
  auto out = copy_base(*this, std::make_unique<NodeStmt>(name, value));
  out->source_name = source_name;
  out->enable = enable;
  out->synthetic = synthetic;
  return out;
}

StmtPtr ConnectStmt::clone() const {
  auto out = copy_base(*this, std::make_unique<ConnectStmt>(lhs, rhs));
  out->enable = enable;
  return out;
}

StmtPtr WhenStmt::clone() const {
  auto out = copy_base(*this, std::make_unique<WhenStmt>(cond));
  out->then_body = then_body->clone_block();
  if (else_body) out->else_body = else_body->clone_block();
  return out;
}

StmtPtr ForStmt::clone() const {
  auto out = copy_base(*this, std::make_unique<ForStmt>(var, start, end));
  out->body = body->clone_block();
  return out;
}

StmtPtr InstanceStmt::clone() const {
  return copy_base(*this, std::make_unique<InstanceStmt>(name, module_name));
}

void visit_stmts(const Stmt& root, const std::function<void(const Stmt&)>& fn) {
  fn(root);
  switch (root.kind()) {
    case StmtKind::Block:
      for (const auto& stmt : static_cast<const BlockStmt&>(root).stmts) {
        visit_stmts(std::as_const(*stmt), fn);
      }
      break;
    case StmtKind::When: {
      const auto& when = static_cast<const WhenStmt&>(root);
      visit_stmts(std::as_const(*when.then_body), fn);
      if (when.else_body) visit_stmts(std::as_const(*when.else_body), fn);
      break;
    }
    case StmtKind::For:
      visit_stmts(std::as_const(*static_cast<const ForStmt&>(root).body), fn);
      break;
    default:
      break;
  }
}

void visit_stmts(Stmt& root, const std::function<void(Stmt&)>& fn) {
  fn(root);
  switch (root.kind()) {
    case StmtKind::Block:
      for (auto& stmt : static_cast<BlockStmt&>(root).stmts) {
        visit_stmts(*stmt, fn);
      }
      break;
    case StmtKind::When: {
      auto& when = static_cast<WhenStmt&>(root);
      visit_stmts(*when.then_body, fn);
      if (when.else_body) visit_stmts(*when.else_body, fn);
      break;
    }
    case StmtKind::For:
      visit_stmts(*static_cast<ForStmt&>(root).body, fn);
      break;
    default:
      break;
  }
}

}  // namespace hgdb::ir
