#ifndef HGDB_RPC_TCP_H
#define HGDB_RPC_TCP_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "rpc/channel.h"

namespace hgdb::rpc {

/// An unframed duplex byte stream. Protocols that carry their own framing
/// (the DAP front end's `Content-Length` headers) run over this instead of
/// the message-oriented Channel: reads return whatever bytes the transport
/// delivers, with no message boundaries preserved.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Writes the whole buffer; false once the peer is gone.
  virtual bool send_bytes(std::string_view bytes) = 0;
  /// Blocks for the next chunk of bytes (any size >= 1). nullopt on EOF or
  /// when the stream is closed.
  virtual std::optional<std::string> receive_some() = 0;
  /// Closes the stream; a blocked receive_some wakes with nullopt.
  virtual void close() = 0;
  /// The underlying socket descriptor. Like Channel::native_handle, this
  /// lets the async event writer own the fd's outbound side with
  /// coalesced non-blocking writes.
  [[nodiscard]] virtual int native_handle() const = 0;
};

/// Loopback TCP transport with 4-byte big-endian length framing. This is
/// the cross-process stand-in for the paper's WebSocket connection between
/// the VSCode/gdb-style debuggers and the runtime (Fig. 1): same message
/// semantics, simpler framing (documented in DESIGN.md).
class TcpServer {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port).
  explicit TcpServer(uint16_t port = 0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }

  /// Blocks until a client connects; returns the connection channel.
  /// Returns nullptr if the server was closed.
  std::unique_ptr<Channel> accept();

  /// Like accept(), but hands back the raw byte stream (no length framing)
  /// for protocols that frame themselves.
  std::unique_ptr<ByteStream> accept_stream();

  void close();

 private:
  int fd_ = -1;     // immutable after the constructor; closed in ~TcpServer
  std::atomic<bool> closed_{false};
  uint16_t port_ = 0;
};

/// Connects to a TcpServer. Throws std::runtime_error on failure.
std::unique_ptr<Channel> tcp_connect(const std::string& host, uint16_t port);

/// Connects and returns the raw byte stream (self-framing protocols, e.g.
/// a DAP client). Throws std::runtime_error on failure.
std::unique_ptr<ByteStream> tcp_connect_stream(const std::string& host,
                                               uint16_t port);

}  // namespace hgdb::rpc

#endif  // HGDB_RPC_TCP_H
