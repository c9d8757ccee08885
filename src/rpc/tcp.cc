#include "rpc/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "common/checked_mutex.h"

namespace hgdb::rpc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tcp: " + what + " (" + std::strerror(errno) + ")");
}

/// Blocking socket channel with 4-byte big-endian length prefixes, over
/// a TCP connection or one end of a Unix socketpair.
///
/// close() is called cross-thread (a session reader's cleanup racing the
/// manager's shutdown), so it only ::shutdown()s the socket — safe on a
/// descriptor another thread is blocked in, and it wakes that recv. The
/// ::close() that would let the kernel reuse the fd number waits for the
/// destructor; the fd value itself never changes.
class SocketChannel final : public Channel {
 public:
  explicit SocketChannel(int fd) : fd_(fd) {}
  ~SocketChannel() override {
    close();
    ::close(fd_);
  }

  void send(std::string message) override {
    common::LockGuard lock(send_mutex_);
    if (closed()) throw std::runtime_error("tcp: send on closed channel");
    const uint32_t length = htonl(static_cast<uint32_t>(message.size()));
    write_all(reinterpret_cast<const char*>(&length), sizeof(length));
    write_all(message.data(), message.size());
  }

  std::optional<std::string> receive(
      std::optional<std::chrono::milliseconds> timeout) override {
    common::LockGuard lock(receive_mutex_);
    if (closed()) return std::nullopt;
    if (timeout) {
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(timeout->count()));
      if (rc == 0) return std::nullopt;
      if (rc < 0) return std::nullopt;
    }
    uint32_t length = 0;
    if (!read_all(reinterpret_cast<char*>(&length), sizeof(length))) {
      return std::nullopt;
    }
    length = ntohl(length);
    if (length > (64u << 20)) return std::nullopt;  // sanity: 64 MiB cap
    std::string message(length, '\0');
    if (!read_all(message.data(), length)) return std::nullopt;
    return message;
  }

  void close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  [[nodiscard]] bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] int native_handle() const override { return fd_; }

 private:
  void write_all(const char* data, size_t size) {
    size_t written = 0;
    while (written < size) {
      const ssize_t n = ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
      if (n <= 0) fail("send");
      written += static_cast<size_t>(n);
    }
  }

  bool read_all(char* data, size_t size) {
    size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd_, data + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<size_t>(n);
    }
    return true;
  }

  const int fd_;
  std::atomic<bool> closed_{false};
  common::RpcMutex send_mutex_{"tcp::channel_send"};
  common::RpcMutex receive_mutex_{"tcp::channel_receive"};
};

/// Raw duplex socket stream: no framing, reads return whatever the kernel
/// delivers. Used by self-framing protocols (the DAP front end).
///
/// close() is called cross-thread by design (a server shutdown while the
/// connection's reader blocks in recv), so it only ::shutdown()s — which
/// is safe on a descriptor another thread is using and wakes the blocked
/// recv — and the ::close() that would let the kernel reuse the fd number
/// is deferred to the destructor, after the reader thread is gone.
class SocketStream final : public ByteStream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {}
  [[nodiscard]] int native_handle() const override { return fd_; }
  ~SocketStream() override {
    close();
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_bytes(std::string_view bytes) override {
    common::LockGuard lock(send_mutex_);
    if (closed_.load(std::memory_order_acquire)) return false;
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (n <= 0) return false;
      written += static_cast<size_t>(n);
    }
    return true;
  }

  std::optional<std::string> receive_some() override {
    if (closed_.load(std::memory_order_acquire)) return std::nullopt;
    char buffer[4096];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n <= 0) return std::nullopt;
    return std::string(buffer, static_cast<size_t>(n));
  }

  void close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  const int fd_;
  std::atomic<bool> closed_{false};
  common::RpcMutex send_mutex_{"tcp::stream_send"};
};

int accept_fd(int server_fd) {
  if (server_fd < 0) return -1;
  const int client = ::accept(server_fd, nullptr, nullptr);
  if (client < 0) return -1;
  const int enable = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return client;
}

int connect_fd(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("tcp: bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) < 0) {
    ::close(fd);
    fail("connect");
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return fd;
}

}  // namespace

TcpServer::TcpServer(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  const int enable = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) < 0) {
    fail("bind");
  }
  if (::listen(fd_, 4) < 0) fail("listen");
  socklen_t length = sizeof(address);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) < 0) {
    fail("getsockname");
  }
  port_ = ntohs(address.sin_port);
}

TcpServer::~TcpServer() {
  close();
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Channel> TcpServer::accept() {
  const int client = accept_fd(fd_);
  if (client < 0) return nullptr;
  return std::make_unique<SocketChannel>(client);
}

std::unique_ptr<ByteStream> TcpServer::accept_stream() {
  const int client = accept_fd(fd_);
  if (client < 0) return nullptr;
  return std::make_unique<SocketStream>(client);
}

// Called cross-thread while an accept loop is parked in ::accept on the
// same descriptor: only ::shutdown here (wakes the accept with an error);
// the destructor does the ::close once no other thread can hold the fd.
void TcpServer::close() {
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
make_channel_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    fail("socketpair");
  }
  return {std::make_unique<SocketChannel>(fds[0]),
          std::make_unique<SocketChannel>(fds[1])};
}

std::unique_ptr<Channel> tcp_connect(const std::string& host, uint16_t port) {
  return std::make_unique<SocketChannel>(connect_fd(host, port));
}

std::unique_ptr<ByteStream> tcp_connect_stream(const std::string& host,
                                               uint16_t port) {
  return std::make_unique<SocketStream>(connect_fd(host, port));
}

}  // namespace hgdb::rpc
