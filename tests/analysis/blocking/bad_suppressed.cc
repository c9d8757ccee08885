// hgdb-analyze seeded-violation fixture: suppression syntax. A suppression
// with a justification waives the finding (and the self-test asserts it is
// reported as suppressed, not dropped); a suppression without one is
// itself a finding.

#include <sys/socket.h>

#include "common/checked_mutex.h"

namespace fixture_suppressed {

class SuppressedSender {
 public:
  void push(const char* data, int len) {
    const common::LockGuard lock(mutex_);
    // hgdb-analyze: suppress(blocking-under-lock) -- fixture: documented waiver
    ::send(fd_, data, len, 0);  // EXPECT-SUPPRESSED: blocking-under-lock
  }

  void push_bad_waiver(const char* data, int len) {
    const common::LockGuard lock(mutex_);
    // EXPECT-FINDING: suppression-syntax
    // hgdb-analyze: suppress(blocking-under-lock)
    ::send(fd_, data, len, 0);  // EXPECT-FINDING: blocking-under-lock
  }

 private:
  int fd_ = -1;
  common::TransportMutex mutex_{"fixture_suppressed::send"};
};

}  // namespace fixture_suppressed
