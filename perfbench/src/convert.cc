// convert: offline VCD -> .wvx v4 at the library defaults (shard by
// top-level scope, jobs = hardware threads), the write side of the
// waveform layer plus VCD tokenizing. No runtime or rpc code runs.
//
// Every simulator dump has one top-level scope, so it converts to one
// shard and the writer pipeline stays synchronous; a synthetic dump with
// several top-level scopes converts to several shards on parallel
// workers. The inputs mix both, with wide random-walk datapaths (delta
// codec) and toggle-heavy single bits (rle codec).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench_workloads.h"
#include "frontend/compile.h"
#include "sim/simulator.h"
#include "sim/vcd_writer.h"
#include "trace/vcd_reader.h"
#include "waveform/indexed_waveform.h"
#include "waveform/sharded_writer.h"
#include "waveform/vcd_stream_parser.h"
#include "waveform/wvx_verify.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace hgdb;

/// Fig. 5 designs dumped by the native simulator (one top-level scope
/// each), with cycle counts that put every dump near the same size.
struct SimDump {
  const char* design;
  uint64_t cycles;
};
constexpr SimDump kSimDumps[] = {{"mt-vvadd", 800}, {"dhrystone", 4000},
                                 {"spmv", 3000}};
/// The synthetic multi-scope dump: scopes x (wide + toggle) signals.
constexpr uint32_t kSynthScopes = 8;
constexpr uint32_t kSynthWide = 12;
constexpr uint32_t kSynthToggle = 12;
constexpr uint64_t kSynthCycles = 300;
constexpr int kSetupReps = 61;

struct Input {
  std::string path;
  std::string kind;  ///< "sim" (one shard) or "synth" (multi-shard)
};

std::vector<Input> inputs(const RunConfig& config) {
  std::vector<Input> out;
  const std::string seed = "_s" + std::to_string(config.seed) + ".vcd";
  for (const auto& dump : kSimDumps) {
    out.push_back({config.cache_dir + "/convert_" + dump.design + "_c" +
                       std::to_string(dump.cycles) + seed,
                   "sim"});
  }
  out.push_back({config.cache_dir + "/convert_synth_" +
                     std::to_string(kSynthScopes) + "x" +
                     std::to_string(kSynthWide + kSynthToggle) + "_c" +
                     std::to_string(kSynthCycles) + seed,
                 "synth"});
  return out;
}

/// VCD identifier code for signal `index` (printable ASCII 33..126).
std::string vcd_code(size_t index) {
  std::string code;
  do {
    code += static_cast<char>(33 + index % 94);
    index /= 94;
  } while (index != 0);
  return code;
}

std::string binary(uint64_t value, uint32_t width) {
  std::string digits(width, '0');
  for (uint32_t bit = 0; bit < width; ++bit) {
    if ((value >> bit) & 1) digits[width - 1 - bit] = '1';
  }
  return digits;
}

void write_synth_vcd(const std::string& path, uint64_t seed) {
  Rng rng(seed ^ 0x5157);
  std::ofstream out(path + ".tmp");
  out << "$timescale 1ns $end\n";
  struct Signal {
    uint32_t width;
    uint64_t value;
    uint64_t step;       ///< wide: random-walk stride
    uint32_t period;     ///< toggle: flips every `period` cycles
  };
  std::vector<Signal> signals;
  for (uint32_t scope = 0; scope < kSynthScopes; ++scope) {
    out << "$scope module core" << scope << " $end\n";
    if (scope == 0) {
      out << "$var wire 1 " << vcd_code(signals.size()) << " clock $end\n";
      signals.push_back({1, 0, 0, 0});
    }
    for (uint32_t i = 0; i < kSynthWide; ++i) {
      const uint32_t width = i % 2 == 0 ? 32 : 64;
      out << "$var wire " << width << " " << vcd_code(signals.size()) << " data"
          << i << " $end\n";
      signals.push_back({width, rng.next() & (width == 64 ? ~0ull : 0xffffffffull),
                         rng.range(1, 1000), 0});
    }
    for (uint32_t i = 0; i < kSynthToggle; ++i) {
      out << "$var wire 1 " << vcd_code(signals.size()) << " flag" << i
          << " $end\n";
      signals.push_back({1, 0, 0, static_cast<uint32_t>(rng.range(1, 3))});
    }
    out << "$upscope $end\n";
  }
  out << "$enddefinitions $end\n";
  for (uint64_t cycle = 0; cycle < kSynthCycles; ++cycle) {
    for (int phase = 0; phase < 2; ++phase) {
      out << '#' << cycle * 2 + phase << '\n';
      out << (phase == 0 ? '1' : '0') << vcd_code(0) << '\n';
      if (phase != 0) continue;
      for (size_t id = 1; id < signals.size(); ++id) {
        Signal& signal = signals[id];
        if (signal.width == 1) {
          if (cycle % signal.period != 0) continue;
          signal.value ^= 1;
          out << signal.value << vcd_code(id) << '\n';
        } else {
          signal.value += signal.step;
          if (signal.width == 32) signal.value &= 0xffffffffull;
          out << 'b' << binary(signal.value, signal.width) << ' ' << vcd_code(id)
              << '\n';
        }
      }
    }
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  std::filesystem::rename(path + ".tmp", path);
}

/// Tokenize-only sink: counts value changes, keeps nothing.
class CountingSink final : public waveform::VcdEventSink {
 public:
  [[nodiscard]] bool wants_text_changes() const override { return true; }
  void on_change_text(size_t, uint64_t, std::string_view, bool) override {
    ++changes;
  }
  void on_change(size_t, uint64_t, const common::BitVector&) override {
    ++changes;
  }
  void on_definitions_done() override { definitions_done = true; }
  uint64_t changes = 0;
  bool definitions_done = false;
};

uint64_t output_bytes(const std::string& path) {
  uint64_t total = 0;
  const auto stem = std::filesystem::path(path).stem().string();
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(path).parent_path())) {
    if (entry.path().filename().string().rfind(stem, 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

void remove_outputs(const std::string& path) {
  const auto stem = std::filesystem::path(path).stem().string();
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(path).parent_path())) {
    if (entry.path().filename().string().rfind(stem, 0) == 0) {
      doomed.push_back(entry.path());
    }
  }
  for (const auto& file : doomed) std::filesystem::remove(file);
}

/// Parses every declaration of `path` (up to $enddefinitions): what a
/// converter has to know before the first value change can be placed.
void read_header(const std::string& path) {
  CountingSink sink;
  waveform::VcdStreamParser parser(sink);
  std::ifstream in(path, std::ios::binary);
  std::string chunk(16 * 1024, '\0');
  while (!sink.definitions_done && in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    parser.feed(std::string_view(chunk.data(), static_cast<size_t>(in.gcount())));
  }
  if (!sink.definitions_done) throw std::runtime_error("no $enddefinitions in " + path);
}

/// Output checks: verify_index, then seeded samples of the index against
/// the VCD parsed in memory. Returns the failures.
std::vector<std::string> check_output(const Input& input, const std::string& out,
                                      uint64_t seed,
                                      std::map<std::string, uint64_t>& codecs) {
  std::vector<std::string> failures;
  const auto verified = waveform::verify_index(out);
  if (!verified.ok) {
    failures.push_back("verify_index: " + waveform::describe(verified, out));
    return failures;
  }
  const trace::VcdTrace reference = trace::parse_vcd_file(input.path);
  const waveform::IndexedWaveform index(out);
  for (size_t i = 0; i < index.signal_count(); ++i) {
    ++codecs[index.signal_codec_name(i)];
  }
  if (index.signal_count() != reference.signal_count()) {
    failures.push_back(input.path + ": signal count differs");
    return failures;
  }
  Rng rng(seed ^ 0xc4ec);
  for (int sample = 0; sample < 400; ++sample) {
    const size_t signal = rng.range(0, reference.signal_count() - 1);
    const uint64_t time = rng.range(0, reference.max_time());
    const std::string& name = reference.signal(signal).hier_name;
    const auto mapped = index.signal_index(name);
    if (!mapped) {
      failures.push_back(input.path + ": " + name + " missing from the index");
      break;
    }
    if (index.value_at(*mapped, time) != reference.value_at(signal, time)) {
      failures.push_back(input.path + ": " + name + " @" + std::to_string(time) +
                         " differs from the VCD");
      break;
    }
  }
  return failures;
}

struct KindStats {
  std::vector<double> tokenize_mb_per_s;  // scaled
  std::vector<double> encode_write_ms;    // scaled
  std::vector<double> bytes_per_change;
  uint32_t jobs = 0;
  uint32_t shards = 0;
};

struct Phase {
  Latency latency;
  std::vector<double> slowdowns, mb_per_s_scaled, mb_per_s_raw;
  std::map<std::string, KindStats> kinds;
};

/// Converts the inputs round-robin for `seconds`, each conversion right
/// after a tokenize-only parse of the same file and a calibration sample.
/// The first round always completes, so every input has an output to check
/// even on a host too slow to finish one round in time.
void run_phase(const std::vector<Input>& list, const std::vector<std::string>& outputs,
               const std::vector<double>& input_mb, double seconds,
               Calibration& calibration, std::vector<uint64_t>& first_bytes,
               SpanLog& spans, Report& report, Phase& phase) {
  uint64_t op_id = 0;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  for (bool first_round = true; first_round || now_ns() < deadline; first_round = false) {
    for (size_t i = 0; i < list.size() && (first_round || now_ns() < deadline); ++i) {
      const Input& input = list[i];
      remove_outputs(outputs[i]);
      calibration.sample(1);
      const double factor = calibration.factor();
      ++op_id;
      ++report.attempted;
      CountingSink sink;
      const uint64_t t0 = now_ns();
      waveform::VcdStreamParser::parse_file(input.path, sink);
      const uint64_t t1 = now_ns();
      waveform::ShardedConvertResult result;
      try {
        result = waveform::convert_vcd_to_sharded_index(input.path, outputs[i]);
      } catch (const std::exception& error) {
        report.fail("convert " + input.path + ": " + error.what());
        continue;
      }
      const uint64_t t2 = now_ns();
      spans.add("waveform", "tokenize", t0, t1, op_id, 1);
      spans.add("waveform", "convert", t1, t2, op_id, 1);
      const double convert_us = static_cast<double>(t2 - t1) / 1e3;
      const double tokenize_us = static_cast<double>(t1 - t0) / 1e3;
      phase.latency.raw_us.push_back(convert_us);
      phase.latency.scaled_us.push_back(convert_us / factor);
      phase.slowdowns.push_back(convert_us / tokenize_us);
      phase.mb_per_s_raw.push_back(input_mb[i] / (convert_us / 1e6));
      phase.mb_per_s_scaled.push_back(input_mb[i] / (convert_us / 1e6) * factor);

      const uint64_t bytes = output_bytes(outputs[i]);
      if (first_bytes[i] == 0) {
        first_bytes[i] = bytes;
      } else if (bytes != first_bytes[i]) {
        report.fail("convert " + input.path + ": output size changed between runs");
      }
      KindStats& stats = phase.kinds[input.kind];
      stats.tokenize_mb_per_s.push_back(input_mb[i] / (tokenize_us / 1e6) * factor);
      stats.encode_write_ms.push_back((convert_us - tokenize_us) / 1e3 / factor);
      stats.bytes_per_change.push_back(
          sink.changes == 0 ? 0 : static_cast<double>(bytes) / static_cast<double>(sink.changes));
      stats.jobs = std::max(stats.jobs, result.jobs);
      stats.shards = std::max(stats.shards, result.shards);
    }
  }
}

}  // namespace

void generate_convert_inputs(const RunConfig& config) {
  const auto list = inputs(config);
  for (size_t i = 0; i < std::size(kSimDumps); ++i) {
    const std::string& path = list[i].path;
    if (std::filesystem::exists(path)) continue;
    frontend::CompileOptions options;
    auto compiled = frontend::compile(
        workloads::workload(kSimDumps[i].design).build(), options);
    sim::Simulator simulator(std::move(compiled.netlist));
    simulator.run(Rng(config.seed ^ i).range(16, 4096));
    {
      sim::VcdWriter writer(simulator, path + ".tmp");
      writer.attach();
      simulator.run(kSimDumps[i].cycles);
      writer.finish();
    }
    std::filesystem::rename(path + ".tmp", path);
  }
  if (!std::filesystem::exists(list.back().path)) {
    write_synth_vcd(list.back().path, config.seed);
  }
}

void run_convert(const RunConfig& config, Report& report, SpanLog& spans) {
  const auto list = inputs(config);
  for (const auto& input : list) {
    if (!std::filesystem::exists(input.path)) {
      throw std::runtime_error("missing generated input " + input.path);
    }
  }

  // Set-up: read every input's declarations (median of several).
  measure_setup(kSetupReps, [&] {
    const uint64_t t0 = now_ns();
    for (const auto& input : list) read_header(input.path);
    SetupTimes times;
    times.total_ns = static_cast<double>(now_ns() - t0);
    return times;
  }, report);

  std::vector<std::string> outputs;
  std::vector<uint64_t> first_bytes(list.size(), 0);
  std::vector<double> input_mb;
  for (size_t i = 0; i < list.size(); ++i) {
    outputs.push_back(config.work_dir + "/convert_" + std::to_string(i) + ".wvx");
    input_mb.push_back(static_cast<double>(std::filesystem::file_size(list[i].path)) / 1e6);
  }

  Calibration calibration;
  Phase phase;
  run_phase(list, outputs, input_mb, config.trace ? config.seconds / 2 : config.seconds,
            calibration, first_bytes, spans, report, phase);
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.set_latency(phase.latency, 90);
  char note[128];
  std::snprintf(note, sizeof note, "convert / tokenize-only, median of %zu files",
                phase.slowdowns.size());
  report.set_e2e("slowdown", median(phase.slowdowns), "ratio", note);
  Phase traced;
  if (config.trace) {
    spans.enable(true);
    run_phase(list, outputs, input_mb, config.seconds / 2, calibration, first_bytes,
              spans, report, traced);
    spans.enable(false);
  }

  // Output checks on the last output of each input.
  std::map<std::string, uint64_t> codecs;
  for (size_t i = 0; i < list.size(); ++i) {
    for (const auto& failure : check_output(list[i], outputs[i], config.seed, codecs)) {
      report.fail("convert: " + failure);
    }
  }
  common_json codec_counts = common_json::object();
  for (const auto& [name, count] : codecs) codec_counts[name] = common_json(count);
  report.context["codecs"] = std::move(codec_counts);
  common_json jobs = common_json::object();
  for (const auto& [kind, stats] : phase.kinds) {
    jobs[kind] = common_json(static_cast<uint64_t>(stats.jobs));
  }
  report.context["convert_jobs"] = std::move(jobs);
  report.context["inputs"] = common_json(static_cast<uint64_t>(list.size()));
  report.context["calib_factor"] = common_json(calibration.overall_factor());
  report.context["calib_refused"] = common_json(calibration.refused());

  if (!config.trace) return;
  report.set_layer("convert.mb_per_s", median(traced.mb_per_s_scaled), "MB/s",
                   "raw " + std::to_string(median(traced.mb_per_s_raw)));
  for (const auto& [kind, stats] : traced.kinds) {
    report.set_layer("waveform.tokenize_mb_per_s." + kind,
                     median(stats.tokenize_mb_per_s), "MB/s");
    report.set_layer("waveform.encode_write_ms." + kind,
                     median(stats.encode_write_ms), "ms");
    report.set_layer("waveform.bytes_per_change." + kind,
                     median(stats.bytes_per_change), "B");
    report.set_layer("waveform.jobs_used." + kind, stats.jobs, "count");
    report.set_layer("waveform.shards." + kind, stats.shards, "count");
  }
  const double untraced_p50 = median(phase.latency.scaled_us);
  const double traced_p50 = median(traced.latency.scaled_us);
  report.set_layer("bench.trace_overhead_pct",
                   untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0,
                   "%", "traced vs untraced convert p50");
  report.set_layer("bench.calib_factor", calibration.overall_factor(), "ratio");
}

}  // namespace perfbench
