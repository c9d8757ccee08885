#include "obs/trace.h"

#include <algorithm>
#include <bit>

#include "common/json.h"

namespace hgdb::obs {

namespace {

/// Small dense thread ordinal for the chrome "tid" field; assigned on
/// first span from each thread, process-wide.
uint32_t thread_ordinal() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::bit_ceil(std::max<size_t>(capacity, 2))),
      mask_(capacity_ - 1),
      origin_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder instance;
  return instance;
}

uint64_t TraceRecorder::now_ns() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void TraceRecorder::clear() {
  // Move the live window past everything written so far; stale slots fail
  // the seq check on readback. Slots keep their payloads (harmless).
  const uint64_t head = head_.load(std::memory_order_acquire);
  base_.store(head, std::memory_order_release);
}

uint64_t TraceRecorder::dropped() const {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t base = base_.load(std::memory_order_relaxed);
  const uint64_t live = head - base;
  return live > capacity_ ? live - capacity_ : 0;
}

TraceRecorder::Slot* TraceRecorder::ring() {
  Slot* ring = ring_.load(std::memory_order_acquire);
  if (ring != nullptr) return ring;
  common::LockGuard guard(ring_mutex_);
  if (!slots_) {
    slots_ = std::make_unique<Slot[]>(capacity_);
    ring_.store(slots_.get(), std::memory_order_release);
  }
  return slots_.get();
}

void TraceRecorder::write(char phase, const char* category, const char* name,
                          uint64_t ts_ns, uint64_t dur_ns, bool has_arg,
                          uint64_t arg) {
  Slot* ring = this->ring();
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring[ticket & mask_];
  // Invalidate first so a concurrent reader never stitches the old seq to
  // the new payload; publish with a release store of the new seq.
  slot.seq.store(0, std::memory_order_release);
  slot.category.store(category, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.tid.store(thread_ordinal(), std::memory_order_relaxed);
  slot.phase.store(phase, std::memory_order_relaxed);
  slot.has_arg.store(has_arg, std::memory_order_relaxed);
  slot.seq.store(ticket + 1, std::memory_order_release);
  total_.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::record_complete(const char* category, const char* name,
                                    uint64_t ts_ns, uint64_t dur_ns,
                                    bool has_arg, uint64_t arg) {
  write('X', category, name, ts_ns, dur_ns, has_arg, arg);
}

void TraceRecorder::record_instant(const char* category, const char* name,
                                   bool has_arg, uint64_t arg) {
  write('i', category, name, now_ns(), 0, has_arg, arg);
}

const char* TraceRecorder::intern(std::string_view text) {
  common::LockGuard guard(intern_mutex_);
  auto it = interned_.find(text);
  if (it == interned_.end()) it = interned_.emplace(text).first;
  return it->c_str();
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t base = base_.load(std::memory_order_acquire);
  const uint64_t live = head - base;
  const uint64_t first = live > capacity_ ? head - capacity_ : base;
  const Slot* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return {};  // nothing was ever written

  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(head - first));
  for (uint64_t ticket = first; ticket < head; ++ticket) {
    const Slot& slot = ring[ticket & mask_];
    if (slot.seq.load(std::memory_order_acquire) != ticket + 1) {
      continue;  // in-flight or already overwritten by a newer writer
    }
    TraceEvent event;
    event.category = slot.category.load(std::memory_order_relaxed);
    event.name = slot.name.load(std::memory_order_relaxed);
    event.phase = slot.phase.load(std::memory_order_relaxed);
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    event.tid = slot.tid.load(std::memory_order_relaxed);
    event.has_arg = slot.has_arg.load(std::memory_order_relaxed);
    event.arg = slot.arg.load(std::memory_order_relaxed);
    // Validate after decoding: a writer that lapped us mid-read bumped seq.
    if (slot.seq.load(std::memory_order_acquire) != ticket + 1) continue;
    if (event.name == nullptr || event.category == nullptr) continue;
    out.push_back(event);
  }
  return out;
}

std::string TraceRecorder::export_chrome_json() const {
  using common::Json;
  auto events = snapshot();
  // chrome://tracing sorts internally, but an ordered file diffs and
  // debugs better.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  Json array = Json::array();
  for (const auto& event : events) {
    Json entry = Json::object();
    entry["name"] = Json(event.name);
    entry["cat"] = Json(event.category);
    entry["ph"] = Json(std::string(1, event.phase));
    // The trace event format wants microseconds; keep ns precision with a
    // fractional part.
    entry["ts"] = Json(static_cast<double>(event.ts_ns) / 1000.0);
    if (event.phase == 'X') {
      entry["dur"] = Json(static_cast<double>(event.dur_ns) / 1000.0);
    } else if (event.phase == 'i') {
      entry["s"] = Json("t");  // thread-scoped instant
    }
    entry["pid"] = Json(1);
    entry["tid"] = Json(event.tid);
    if (event.has_arg) {
      Json args = Json::object();
      args["value"] = Json(event.arg);
      entry["args"] = std::move(args);
    }
    array.push_back(std::move(entry));
  }
  Json root = Json::object();
  root["traceEvents"] = std::move(array);
  root["displayTimeUnit"] = Json("ns");
  return root.dump();
}

}  // namespace hgdb::obs
