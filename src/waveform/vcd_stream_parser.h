#ifndef HGDB_WAVEFORM_VCD_STREAM_PARSER_H
#define HGDB_WAVEFORM_VCD_STREAM_PARSER_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"
#include "waveform/index_sink.h"
#include "waveform/waveform_source.h"

namespace hgdb::waveform {

/// Receives parse events from VcdStreamParser. Signal ids are dense,
/// 0-based, in declaration order. Identifier-code aliases (multiple $var
/// declarations sharing one id code) are announced via on_alias(); one VCD
/// value change is reported exactly once, against the canonical
/// (first-declared) id of its code — sinks that store per-signal streams
/// dedupe by construction instead of materializing N copies.
///
/// Adds the VCD-specific structural events (definitions boundary, #time
/// markers) on top of the transport-agnostic IndexSink consumer that the
/// direct simulator write path also feeds. X/Z value digits map to 0 (the
/// runtime is two-state); real (`r`) and string (`s`) changes are skipped,
/// never reported.
class VcdEventSink : public IndexSink {
 public:
  /// $enddefinitions reached.
  virtual void on_definitions_done() {}
  /// A #<time> marker (monotonically nondecreasing in well-formed dumps).
  virtual void on_time(uint64_t /*time*/) {}

  /// Sinks that never need parsed values (a tokenize-only pass) return
  /// true; the parser then delivers on_change_text() instead of
  /// on_change() and never builds a BitVector. Sampled once at parser
  /// construction.
  [[nodiscard]] virtual bool wants_text_changes() const { return false; }
  /// Raw value change for text-mode sinks: `text` is the value portion of
  /// the token (MSB-first binary digits for a vector, one value char for
  /// a scalar) and is valid only for the duration of the call. Same
  /// dedup/canonical-id contract as on_change().
  virtual void on_change_text(size_t /*id*/, uint64_t /*time*/,
                              std::string_view /*text*/, bool /*scalar*/) {}
};

/// Incremental VCD parser: feed() accepts arbitrary chunk boundaries (mid
/// token, mid directive) so a multi-gigabyte dump streams through a small
/// constant-size buffer instead of being materialized like the legacy
/// whole-text parse. trace::parse_vcd and waveform::IndexWriter are both
/// built on this one tokenizer.
///
/// Throws std::runtime_error on malformed input (unknown id codes,
/// unterminated directives, bad $var headers, $upscope underflow).
class VcdStreamParser {
 public:
  explicit VcdStreamParser(VcdEventSink& sink)
      : sink_(&sink), text_changes_(sink.wants_text_changes()) {}

  /// Consumes the next chunk of VCD text.
  void feed(std::string_view chunk);
  /// Flushes the final token and validates terminal state.
  void finish();

  [[nodiscard]] uint64_t max_time() const { return max_time_; }
  [[nodiscard]] size_t signal_count() const { return widths_.size(); }

  static constexpr size_t kDefaultChunkSize = 64 * 1024;

  /// Streams `path` through the parser chunk-by-chunk.
  static void parse_file(const std::string& path, VcdEventSink& sink,
                         size_t chunk_size = kDefaultChunkSize);
  /// Parses in-memory text (single feed + finish).
  static void parse_text(std::string_view text, VcdEventSink& sink);

 private:
  enum class State : uint8_t {
    kTop,         ///< expecting a directive, #time, or value change
    kDirective,   ///< inside $...; collecting args until $end
    kVectorCode,  ///< previous token was b<binary>; expecting the id code
    kSkipCode,    ///< previous token was r/s value; id code is discarded
  };

  void handle_token(std::string_view token);
  void handle_directive_end();
  void handle_value_change(std::string_view token);
  void emit_change(std::string_view code, std::string_view value_text,
                   bool scalar, char scalar_char);
  [[noreturn]] static void malformed(const std::string& what);

  VcdEventSink* sink_;
  const bool text_changes_;
  State state_ = State::kTop;
  bool in_definitions_ = true;
  uint64_t now_ = 0;
  uint64_t max_time_ = 0;

  std::string partial_;  ///< token split across feed() boundaries
  std::string directive_;
  std::vector<std::string> args_;
  std::string pending_vector_;  ///< binary digits awaiting their id code

  std::vector<std::string> scope_stack_;
  std::map<std::string, std::vector<size_t>, std::less<>> code_to_ids_;
  std::vector<uint32_t> widths_;
};

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_VCD_STREAM_PARSER_H
