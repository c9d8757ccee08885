#include "waveform/vcd_stream_parser.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <stdexcept>

namespace hgdb::waveform {

using common::BitVector;

namespace {

bool is_vcd_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Maps VCD value characters to two-state bits ('x'/'z'/'u'/'-' -> 0).
bool bit_of(char c) { return c == '1'; }

bool is_scalar_value_char(char c) {
  switch (c) {
    case '0':
    case '1':
    case 'x':
    case 'X':
    case 'z':
    case 'Z':
      return true;
    default:
      return false;
  }
}

BitVector parse_vector_value(std::string_view text, uint32_t width) {
  BitVector value(width, 0);
  // Binary, MSB first, possibly shorter than width.
  uint32_t bit = 0;
  for (size_t i = text.size(); i-- > 0 && bit < width; ++bit) {
    if (bit_of(text[i])) value.set_bit(bit, true);
  }
  return value;
}

uint64_t parse_u64(std::string_view text, const char* what) {
  uint64_t out = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error(std::string("vcd: malformed ") + what + " '" +
                             std::string(text) + "'");
  }
  return out;
}

}  // namespace

void VcdStreamParser::malformed(const std::string& what) {
  throw std::runtime_error("vcd: " + what);
}

void VcdStreamParser::feed(std::string_view chunk) {
  size_t start = 0;
  const size_t size = chunk.size();
  for (size_t i = 0; i < size; ++i) {
    if (!is_vcd_space(chunk[i])) continue;
    if (i > start || !partial_.empty()) {
      if (!partial_.empty()) {
        partial_.append(chunk.substr(start, i - start));
        if (!partial_.empty()) handle_token(partial_);
        partial_.clear();
      } else if (i > start) {
        handle_token(chunk.substr(start, i - start));
      }
    }
    start = i + 1;
  }
  if (start < size) partial_.append(chunk.substr(start));
}

void VcdStreamParser::finish() {
  if (!partial_.empty()) {
    handle_token(partial_);
    partial_.clear();
  }
  if (state_ == State::kDirective) {
    malformed("unterminated directive '" + directive_ + "'");
  }
  if (state_ != State::kTop) malformed("truncated value change at end of input");
  sink_->on_finish(max_time_);
}

void VcdStreamParser::handle_token(std::string_view token) {
  switch (state_) {
    case State::kDirective:
      if (token == "$end") {
        handle_directive_end();
        state_ = State::kTop;
      } else {
        args_.emplace_back(token);
      }
      return;
    case State::kVectorCode: {
      emit_change(token, pending_vector_, /*scalar=*/false, '0');
      pending_vector_.clear();
      state_ = State::kTop;
      return;
    }
    case State::kSkipCode:
      // Id code of a real/string change: skipped, not validated (the code
      // may belong to a $var kind we never register).
      state_ = State::kTop;
      return;
    case State::kTop:
      break;
  }

  if (token[0] == '$') {
    if (token == "$end") return;  // closes a $dumpvars/$dumpall section
    if (token == "$dumpvars" || token == "$dumpall" || token == "$dumpon" ||
        token == "$dumpoff") {
      return;  // values follow; handled by normal value parsing
    }
    directive_ = std::string(token.substr(1));
    args_.clear();
    state_ = State::kDirective;
    return;
  }
  if (token[0] == '#') {
    now_ = parse_u64(token.substr(1), "timestamp");
    if (now_ > max_time_) max_time_ = now_;
    sink_->on_time(now_);
    return;
  }
  if (in_definitions_) return;  // stray tokens before $enddefinitions
  handle_value_change(token);
}

void VcdStreamParser::handle_directive_end() {
  if (directive_ == "scope") {
    if (args_.size() < 2) malformed("malformed $scope");
    scope_stack_.push_back(args_[1]);
  } else if (directive_ == "upscope") {
    if (scope_stack_.empty()) malformed("upscope underflow");
    scope_stack_.pop_back();
  } else if (directive_ == "var") {
    // $var <kind> <width> <code> <name> [<range>] $end
    if (args_.size() < 4) malformed("malformed $var");
    const std::string& kind = args_[0];
    if (kind == "real" || kind == "realtime" || kind == "string") {
      // These carry r/s value changes, which are skipped; do not register
      // a signal. `event` vars stay registered: their triggers use scalar
      // syntax ("1<code>") and must keep resolving.
      return;
    }
    SignalInfo info;
    info.width = static_cast<uint32_t>(parse_u64(args_[1], "$var width"));
    if (info.width == 0) malformed("zero-width $var '" + args_[3] + "'");
    std::string full;
    for (const auto& scope : scope_stack_) full += scope + ".";
    full += args_[3];
    info.hier_name = std::move(full);
    const size_t id = widths_.size();
    // Aliases: every $var sharing one id code names the same net. The
    // first declaration is the canonical owner of the change stream;
    // later ones with the same width are announced as aliases and never
    // receive on_change(). A re-declaration at a *different* width is not
    // a pure alias (its values re-parse at its own width), so it keeps
    // the legacy per-declaration fan-out instead of sharing the stream.
    auto& ids = code_to_ids_[args_[2]];
    ids.push_back(id);
    widths_.push_back(info.width);
    sink_->on_signal(id, info);
    if (ids.size() > 1 && info.width == widths_[ids.front()]) {
      sink_->on_alias(id, ids.front());
    }
  } else if (directive_ == "enddefinitions") {
    in_definitions_ = false;
    sink_->on_definitions_done();
  }
  // $date, $version, $timescale, $comment, ...: contents ignored.
}

void VcdStreamParser::handle_value_change(std::string_view token) {
  const char head = token[0];
  if (head == 'b' || head == 'B') {
    pending_vector_ = std::string(token.substr(1));
    state_ = State::kVectorCode;
    return;
  }
  if (head == 'r' || head == 'R') {
    state_ = State::kSkipCode;  // real value: "r<float> <code>"
    return;
  }
  if (head == 's' || head == 'S') {
    state_ = State::kSkipCode;  // string value: "s<chars> <code>"
    return;
  }
  if (is_scalar_value_char(head)) {
    if (token.size() < 2) malformed("scalar change without id code");
    emit_change(token.substr(1), {}, /*scalar=*/true, head);
    return;
  }
  malformed("unexpected token '" + std::string(token) + "'");
}

void VcdStreamParser::emit_change(std::string_view code,
                                  std::string_view value_text, bool scalar,
                                  char scalar_char) {
  auto it = code_to_ids_.find(code);
  if (it == code_to_ids_.end()) {
    malformed("unknown id code '" + std::string(code) + "'");
  }
  // One change per code for the canonical id and its same-width aliases
  // (announced at declaration time; they share the canonical stream).
  // Mismatched-width re-declarations were not grouped, so they receive
  // their own change, parsed at their own width — the legacy fan-out.
  const auto& ids = it->second;
  const uint32_t canonical_width = widths_[ids.front()];
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t id = ids[i];
    const uint32_t width = widths_[id];
    if (i != 0 && width == canonical_width) continue;  // alias: deduped
    if (text_changes_) {
      sink_->on_change_text(
          id, now_, scalar ? std::string_view(&scalar_char, 1) : value_text,
          scalar);
    } else if (scalar) {
      sink_->on_change(id, now_, BitVector(width, bit_of(scalar_char) ? 1 : 0));
    } else {
      sink_->on_change(id, now_, parse_vector_value(value_text, width));
    }
  }
}

void VcdStreamParser::parse_file(const std::string& path, VcdEventSink& sink,
                                 size_t chunk_size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open VCD file '" + path + "'");
  }
  VcdStreamParser parser(sink);
  std::vector<char> buffer(chunk_size == 0 ? kDefaultChunkSize : chunk_size);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = in.gcount();
    if (got > 0) parser.feed({buffer.data(), static_cast<size_t>(got)});
  }
  parser.finish();
}

void VcdStreamParser::parse_text(std::string_view text, VcdEventSink& sink) {
  VcdStreamParser parser(sink);
  parser.feed(text);
  parser.finish();
}

}  // namespace hgdb::waveform
