#ifndef HGDB_RPC_CHANNEL_H
#define HGDB_RPC_CHANNEL_H

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace hgdb::rpc {

/// A duplex, message-oriented transport endpoint. The debug protocol
/// (paper Sec. 3.5: debuggers connect to the runtime over an RPC protocol
/// similar to the gdb remote protocol) runs over any Channel. Every
/// Channel is a socket with 4-byte length framing: a Unix socketpair for
/// same-process debuggers and tests, or loopback TCP standing in for the
/// paper's WebSocket (see DESIGN.md substitutions).
class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends one message. Throws std::runtime_error if the peer is gone.
  virtual void send(std::string message) = 0;

  /// Receives the next message, blocking up to `timeout` (forever when
  /// nullopt). Returns nullopt on timeout or when the channel is closed
  /// and drained.
  virtual std::optional<std::string> receive(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt) = 0;

  /// Closes this endpoint; pending receives wake with nullopt.
  virtual void close() = 0;
  [[nodiscard]] virtual bool closed() const = 0;

  /// The underlying socket descriptor. The async event writer uses it to
  /// bypass send() with coalesced non-blocking scatter writes; once a
  /// session is attached, *all* outbound traffic must route through that
  /// single writer (two writers on one fd would interleave and corrupt
  /// the framing).
  [[nodiscard]] virtual int native_handle() const = 0;
};

/// Creates a connected channel pair over a Unix socketpair (A's sends
/// appear at B and vice versa). Both endpoints are thread-safe. Defined
/// in tcp.cc, next to the socket channel it instantiates.
std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> make_channel_pair();

}  // namespace hgdb::rpc

#endif  // HGDB_RPC_CHANNEL_H
