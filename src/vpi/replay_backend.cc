#include "vpi/replay_backend.h"

#include <algorithm>

namespace hgdb::vpi {

ReplayBackend::ReplayBackend(trace::ReplayEngine engine)
    : engine_(std::move(engine)),
      indexed_(dynamic_cast<const waveform::IndexedWaveform*>(
          engine_.source_ptr().get())) {}

bool ReplayBackend::get_value_views(const uint64_t* handles, size_t count,
                                    const common::BitVector** out) {
  if (indexed_ == nullptr) return false;
  const uint64_t time = engine_.time();
  common::LockGuard lock(cursors_mutex_);
  for (size_t i = 0; i < count; ++i) {
    const auto handle = static_cast<size_t>(handles[i]);
    if (handle >= cursors_.size()) cursors_.resize(handle + 1);
    auto& cursor = cursors_[handle];
    if (!cursor) {
      cursor = std::make_unique<waveform::SignalCursor>(*indexed_, handle);
    }
    out[i] = &cursor->seek(time);
  }
  return true;
}

void ReplayBackend::retain_views(const uint64_t* handles, size_t count) {
  std::vector<uint8_t> keep;
  for (size_t i = 0; i < count; ++i) {
    const auto handle = static_cast<size_t>(handles[i]);
    if (handle >= keep.size()) keep.resize(handle + 1, 0);
    keep[handle] = 1;
  }
  common::LockGuard lock(cursors_mutex_);
  for (size_t handle = 0; handle < cursors_.size(); ++handle) {
    if (handle >= keep.size() || keep[handle] == 0) cursors_[handle].reset();
  }
  while (!cursors_.empty() && !cursors_.back()) cursors_.pop_back();
}

size_t ReplayBackend::pinned_blocks() const {
  common::LockGuard lock(cursors_mutex_);
  return static_cast<size_t>(std::count_if(
      cursors_.begin(), cursors_.end(),
      [](const auto& cursor) { return cursor && cursor->pinned(); }));
}

std::vector<std::string> ReplayBackend::signal_names() const {
  const auto& source = engine_.source();
  std::vector<std::string> out;
  out.reserve(source.signal_count());
  for (size_t i = 0; i < source.signal_count(); ++i) {
    out.push_back(source.signal(i).hier_name);
  }
  return out;
}

std::vector<std::string> ReplayBackend::clock_names() const {
  return waveform::clock_signal_names(engine_.source());
}

uint64_t ReplayBackend::add_clock_callback(ClockCallback callback) {
  const uint64_t handle = next_handle_++;
  callbacks_.emplace_back(handle, std::move(callback));
  return handle;
}

void ReplayBackend::remove_clock_callback(uint64_t handle) {
  std::erase_if(callbacks_,
                [handle](const auto& entry) { return entry.first == handle; });
}

bool ReplayBackend::set_time(uint64_t time) {
  if (time > engine_.source().max_time()) return false;
  engine_.set_time(time);
  return true;
}

void ReplayBackend::fire() {
  for (const auto& [handle, callback] : callbacks_) {
    callback(ClockEdge::Rising, engine_.time());
  }
}

bool ReplayBackend::step_forward() {
  if (!engine_.step_forward()) return false;
  fire();
  return true;
}

bool ReplayBackend::step_backward() {
  if (!engine_.step_backward()) return false;
  fire();
  return true;
}

void ReplayBackend::run_forward() {
  while (step_forward()) {
  }
}

}  // namespace hgdb::vpi
