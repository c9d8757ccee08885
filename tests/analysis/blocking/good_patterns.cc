// hgdb-analyze good-pattern fixture: everything here is lock-safe and the
// self-test fails on ANY finding in this file (a parser or checker false
// positive is a regression exactly like a missed seeded violation).

#include <sys/socket.h>

#include <condition_variable>
#include <functional>

#include "common/checked_mutex.h"

namespace fixture_good {

class GoodSender {
 public:
  // non-blocking flag: the kernel returns EAGAIN instead of parking
  void push_nonblocking(const char* data, int len) {
    const common::LockGuard lock(queue_mutex_);
    ::send(fd_, data, len, MSG_DONTWAIT | MSG_NOSIGNAL);
  }

  // the guard's scope ends before the syscall
  void push_after_scope(const char* data, int len) {
    {
      const common::LockGuard lock(queue_mutex_);
      pending_ += 1;
    }
    ::send(fd_, data, len, 0);
  }

  // explicit unlock before the syscall
  void push_after_unlock(const char* data, int len) {
    common::UniqueLock lock(queue_mutex_);
    pending_ += 1;
    lock.unlock();
    ::send(fd_, data, len, 0);
  }

  // a lambda body runs later, under the *caller's* locks, not the locks
  // held where it is written
  void queue_flush(const char* data, int len) {
    const common::LockGuard lock(queue_mutex_);
    deferred_ = [this, data, len] { ::send(fd_, data, len, 0); };
  }

  // cv wait that releases its only held lock is the normal parking idiom
  void wait_released() {
    common::UniqueLock lock(queue_mutex_);
    ready_.wait(lock);
  }

  // an io-serialization lock exists to bracket its syscall (model.json
  // io_lock_allowlist, same label as rpc/tcp.cc)
  void io_bracket(const char* data, int len) {
    const common::LockGuard lock(io_mutex_);
    ::send(fd_, data, len, 0);
  }

 private:
  int fd_ = -1;
  int pending_ = 0;
  std::function<void()> deferred_;
  std::condition_variable_any ready_;
  common::CommandMutex queue_mutex_{"fixture_good::queue"};
  common::RpcMutex io_mutex_{"tcp::channel_send"};
};

}  // namespace fixture_good
