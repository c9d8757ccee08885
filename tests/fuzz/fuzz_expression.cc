// Fuzz harness for the condition-expression chain: user conditions and
// watch expressions arrive as text from debugger clients, and the runtime
// evaluates them only through the compiled program. The contract:
//   - Expression::parse returns an expression or throws
//     std::invalid_argument, on any input;
//   - for a parsed expression, the compiled program and the tree walk
//     (Expression::evaluate, the reference implementation) agree bit for
//     bit, including agreeing that the evaluation faults.
// Any other escape (crash, ASan report, another exception type, a
// disagreement) is a bug.
//
// Input layout: the expression text runs up to the first NUL byte; the
// bytes after it describe the environment. Each referenced symbol, in
// slot order, takes one header byte (0xff = unresolvable, otherwise the
// width is 1 + byte % 160, so scalar, two-word inline and heap-backed
// values all occur) and then its little-endian value bytes. Missing bytes
// read as zero.
//
// Built two ways:
//   - libFuzzer (clang, -fsanitize=fuzzer,address, -DHGDB_FUZZ_LIBFUZZER):
//     the CI fuzz-smoke job explores from the committed corpus.
//   - standalone (any compiler): main() replays the corpus files given as
//     argv, making the seeds a ctest regression suite.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/expression.h"

namespace {

using hgdb::common::BitVector;
using hgdb::runtime::CompiledExpression;
using hgdb::runtime::Expression;

/// Reads the environment bytes; past the end every byte reads as zero.
class EnvReader {
 public:
  EnvReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  size_t text_end = 0;
  while (text_end < size && data[text_end] != 0) ++text_end;
  const std::string text(reinterpret_cast<const char*>(data), text_end);

  std::optional<Expression> parsed;
  try {
    parsed = Expression::parse(text);
  } catch (const std::invalid_argument&) {
    return 0;  // the documented failure mode for malformed text
  }
  const CompiledExpression program = parsed->compile();

  const size_t env_start = text_end < size ? text_end + 1 : size;
  EnvReader env(data + env_start, size - env_start);
  std::map<std::string, BitVector> values;
  std::vector<const BitVector*> slots;
  slots.reserve(program.symbols().size());
  for (const auto& symbol : program.symbols()) {
    const uint8_t header = env.next();
    if (header == 0xff) {
      slots.push_back(nullptr);
      continue;
    }
    const uint32_t width = 1 + header % 160;
    std::vector<uint64_t> words((width + 63) / 64, 0);
    for (uint32_t byte = 0; byte < (width + 7) / 8; ++byte) {
      words[byte / 8] |= static_cast<uint64_t>(env.next()) << (8 * (byte % 8));
    }
    const auto it =
        values.emplace(symbol, BitVector::from_words(width, std::move(words)))
            .first;
    slots.push_back(&it->second);
  }

  std::optional<BitVector> walked;
  try {
    walked = parsed->evaluate(
        [&](const std::string& name) -> std::optional<BitVector> {
          const auto it = values.find(name);
          if (it == values.end()) return std::nullopt;
          return it->second;
        });
  } catch (const std::exception&) {
    // A fault (unresolvable symbol, out-of-range slice, ...): the compiled
    // program must fault too.
  }
  CompiledExpression::Scratch scratch;
  const BitVector* compiled = program.evaluate(slots.data(), scratch);

  if (walked.has_value() != (compiled != nullptr)) std::abort();
  if (walked && *walked != *compiled) std::abort();
  return 0;
}

#ifndef HGDB_FUZZ_LIBFUZZER
#include "standalone_driver.h"
int main(int argc, char** argv) { return hgdb_fuzz_replay(argc, argv); }
#endif
