// Fuzz harness for the .wvx index reader (waveform/indexed_waveform.h):
// header, footer and block directory come straight from an untrusted
// file, so opening one has the contract "parse or throw WvxError" — a
// crash, sanitizer report, allocation failure or any other exception is
// a bug. Block payloads have their own harness (fuzz_wvx_block); here
// every block reached through value_at() must also decode or throw
// WvxError.
//
// Each input is written to a file in a private temporary directory and
// opened with IndexedWaveform, which sniffs the magic, so an input may be
// a single-file index (v1-v4) or a shard manifest (whose shard names then
// resolve inside that directory). On success, every signal's block
// directory must be in time order, and every signal is read at time 0,
// at max_time and around the start and end of every block of its stream:
// forward, backward, then in jumps. Each time is answered twice, by
// value_at() and by a SignalCursor walking the same sequence, and the two
// must agree: the same value (carrying the signal's width) or a WvxError
// of the same fault.
//
// Built two ways:
//   - libFuzzer (clang, -fsanitize=fuzzer,address, -DHGDB_FUZZ_LIBFUZZER):
//     the CI fuzz-smoke job explores from the committed corpus.
//   - standalone (any compiler): main() replays the corpus files given as
//     argv, making the seeds a ctest regression suite.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "waveform/indexed_waveform.h"

namespace {

/// The private directory holding the input file, made once per process
/// and removed at exit (never destroyed, so the exit hook can use it).
const std::string& work_dir() {
  static const std::string* dir = [] {
    const char* tmp = std::getenv("TMPDIR");
    auto* pattern = new std::string(
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
        "/hgdb_fuzz_wvx_index_XXXXXX");
    if (::mkdtemp(pattern->data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    std::atexit([] { ::rmdir(work_dir().c_str()); });
    return pattern;
  }();
  return *dir;
}

/// One query's outcome: a value, or the fault of the WvxError it threw.
struct Answer {
  std::optional<hgdb::common::BitVector> value;
  hgdb::waveform::WvxFault fault = hgdb::waveform::WvxFault::kIo;
};

template <typename Query>
Answer ask(Query query) {
  try {
    return Answer{query(), {}};
  } catch (const hgdb::waveform::WvxError& error) {
    return Answer{std::nullopt, error.fault()};
  }
}

/// Reads `signal` at every time value_at() can be asked about, through
/// value_at() and through one cursor, and aborts on any disagreement.
void check_signal(const hgdb::waveform::IndexedWaveform& index, size_t signal) {
  std::vector<uint64_t> times = {0, index.max_time()};
  for (const auto& block : index.blocks(signal)) {
    for (const uint64_t t : {block.start_time, block.end_time}) {
      if (t > 0) times.push_back(t - 1);
      times.push_back(t);
      if (t < UINT64_MAX) times.push_back(t + 1);
    }
  }
  std::sort(times.begin(), times.end());
  std::vector<uint64_t> order = times;
  order.insert(order.end(), times.rbegin(), times.rend());
  for (size_t i = 0; i < times.size(); ++i) {
    order.push_back(times[(i * 7919) % times.size()]);
  }
  hgdb::waveform::SignalCursor cursor(index, signal);
  for (const uint64_t t : order) {
    const Answer want = ask([&] { return index.value_at(signal, t); });
    const Answer got = ask([&] { return cursor.seek(t); });
    if (want.value.has_value() != got.value.has_value()) std::abort();
    if (want.value) {
      if (*want.value != *got.value) std::abort();
      if (want.value->width() != index.signal(signal).width) std::abort();
    } else if (want.fault != got.fault) {
      std::abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace hgdb::waveform;
  const std::string path = work_dir() + "/input.wvx";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) std::abort();
  }
  try {
    // A two-block cache: every miss decodes, and residency stays at two
    // blocks whatever the directory claims.
    const IndexedWaveform index(path, 2);
    for (size_t s = 0; s < index.signal_count(); ++s) {
      if (index.canonical_index(s) >= index.signal_count()) std::abort();
      // An accepted directory is in time order: seeks binary-search it.
      uint64_t previous_end = 0;
      for (const auto& block : index.blocks(s)) {
        if (block.end_time < block.start_time ||
            block.start_time < previous_end) {
          std::abort();
        }
        previous_end = block.end_time;
      }
      check_signal(index, s);
    }
  } catch (const WvxError&) {
    // malformed/truncated/corrupt input: the documented failure mode
  }
  std::remove(path.c_str());
  return 0;
}

#ifndef HGDB_FUZZ_LIBFUZZER
#include "standalone_driver.h"
int main(int argc, char** argv) { return hgdb_fuzz_replay(argc, argv); }
#endif
