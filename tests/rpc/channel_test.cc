#include "rpc/channel.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <optional>
#include <string>
#include <thread>

#include "rpc/tcp.h"

namespace hgdb::rpc {
namespace {

TEST(ChannelPair, MessagesCrossInBothDirections) {
  auto [a, b] = make_channel_pair();
  a->send("ping");
  EXPECT_EQ(b->receive(std::chrono::milliseconds(100)), "ping");
  b->send("pong");
  EXPECT_EQ(a->receive(std::chrono::milliseconds(100)), "pong");
}

TEST(ChannelPair, OrderingPreserved) {
  auto [a, b] = make_channel_pair();
  for (int i = 0; i < 10; ++i) a->send(std::to_string(i));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b->receive(std::chrono::milliseconds(100)), std::to_string(i));
  }
}

TEST(ChannelPair, ReceiveTimesOut) {
  auto [a, b] = make_channel_pair();
  EXPECT_EQ(b->receive(std::chrono::milliseconds(10)), std::nullopt);
}

TEST(ChannelPair, CloseWakesBlockedReceive) {
  auto [a, b] = make_channel_pair();
  std::thread closer([&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->close();
  });
  EXPECT_EQ(b->receive(), std::nullopt);
  closer.join();
}

TEST(ChannelPair, SendToClosedThrows) {
  auto [a, b] = make_channel_pair();
  b->close();
  EXPECT_THROW(a->send("x"), std::runtime_error);
}

TEST(ChannelPair, CrossThreadStress) {
  auto [a, b] = make_channel_pair();
  constexpr int kMessages = 2000;
  std::thread producer([&a = a] {
    for (int i = 0; i < kMessages; ++i) a->send(std::to_string(i));
  });
  for (int i = 0; i < kMessages; ++i) {
    auto message = b->receive(std::chrono::milliseconds(2000));
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(*message, std::to_string(i));
  }
  producer.join();
}

TEST(ChannelPair, PeerCloseEndsReceive) {
  auto [a, b] = make_channel_pair();
  a->send("last words");
  a.reset();  // destroying an endpoint closes its socket
  EXPECT_EQ(b->receive(std::chrono::milliseconds(1000)), "last words");
  EXPECT_EQ(b->receive(std::chrono::milliseconds(1000)), std::nullopt);
}

TEST(ChannelPair, EndpointsAreSockets) {
  auto [a, b] = make_channel_pair();
  EXPECT_GE(a->native_handle(), 0);
  EXPECT_GE(b->native_handle(), 0);
  EXPECT_NE(a->native_handle(), b->native_handle());
}

TEST(ChannelPair, MessageLargerThanTheSocketBufferCrosses) {
  auto [a, b] = make_channel_pair();
  int buffer = 0;
  socklen_t length = sizeof(buffer);
  ASSERT_EQ(::getsockopt(a->native_handle(), SOL_SOCKET, SO_SNDBUF, &buffer,
                         &length),
            0);
  // The send blocks until the reader drains the socket, so it must run on
  // another thread than the receive.
  std::string large(4 * static_cast<size_t>(buffer) + 17, 'y');
  large += "END";
  std::optional<std::string> received;
  std::thread reader([&b = b, &received] {
    received = b->receive(std::chrono::milliseconds(5000));
  });
  a->send(large);
  reader.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->size(), large.size());
  EXPECT_EQ(*received, large);
}

TEST(Tcp, RoundTripOverLoopback) {
  TcpServer server;
  ASSERT_GT(server.port(), 0);
  std::unique_ptr<Channel> server_side;
  std::thread acceptor([&] { server_side = server.accept(); });
  auto client = tcp_connect("127.0.0.1", server.port());
  acceptor.join();
  ASSERT_NE(server_side, nullptr);

  client->send("hello over tcp");
  EXPECT_EQ(server_side->receive(std::chrono::milliseconds(1000)),
            "hello over tcp");
  server_side->send("reply");
  EXPECT_EQ(client->receive(std::chrono::milliseconds(1000)), "reply");
}

TEST(Tcp, LargeMessageFraming) {
  TcpServer server;
  std::unique_ptr<Channel> server_side;
  std::thread acceptor([&] { server_side = server.accept(); });
  auto client = tcp_connect("127.0.0.1", server.port());
  acceptor.join();

  std::string large(1 << 20, 'x');
  large += "END";
  client->send(large);
  auto received = server_side->receive(std::chrono::milliseconds(5000));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->size(), large.size());
  EXPECT_EQ(*received, large);
}

TEST(Tcp, PeerCloseEndsReceive) {
  TcpServer server;
  std::unique_ptr<Channel> server_side;
  std::thread acceptor([&] { server_side = server.accept(); });
  auto client = tcp_connect("127.0.0.1", server.port());
  acceptor.join();
  client->close();
  EXPECT_EQ(server_side->receive(std::chrono::milliseconds(1000)), std::nullopt);
}

TEST(Tcp, ConnectToClosedPortThrows) {
  TcpServer server;
  const uint16_t port = server.port();
  server.close();
  EXPECT_THROW(tcp_connect("127.0.0.1", port), std::runtime_error);
}

}  // namespace
}  // namespace hgdb::rpc
