#include "probes.h"

namespace perfbench {

uint64_t TimedInterface::add_clock_callback(ClockCallback callback) {
  return inner_.add_clock_callback(
      [this, callback = std::move(callback)](hgdb::vpi::ClockEdge edge,
                                             uint64_t time) {
        if (edge != hgdb::vpi::ClockEdge::Rising) {
          callback(edge, time);
          return;
        }
        const uint64_t stops_before = stops_.load(std::memory_order_acquire);
        edge_fetch_ns_ = 0;
        const uint64_t start = now_ns();
        callback(edge, time);
        const uint64_t elapsed = now_ns() - start;
        ++times_.edges;
        if (stops_.load(std::memory_order_acquire) == stops_before) {
          ++times_.edges_no_stop;
          times_.self_ns_no_stop +=
              elapsed > edge_fetch_ns_ ? elapsed - edge_fetch_ns_ : 0;
        }
      });
}

}  // namespace perfbench
