// Backend-agnostic Transport conformance suite: one parameterized set of
// contract tests run against InProcTransport, TcpTransport (ephemeral
// loopback ports), FaultInjectingTransport wrapping InProc with a
// zero-fault spec (the decorator must be observationally transparent when
// its probabilities are zero), and ShapedTransport wrapping InProc with a
// near-infinite link rate (pacing at memory speed must also be
// transparent). Covers addressed delivery, per-sender FIFO, non-blocking
// sends and bounded receives, graceful shutdown, and the silent
// send-to-dead-peer semantics every protocol above relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rpc/fault_transport.hpp"
#include "rpc/inproc_transport.hpp"
#include "rpc/shaped_transport.hpp"
#include "rpc/tcp_transport.hpp"

namespace de::rpc {
namespace {

Payload bytes(std::initializer_list<std::uint8_t> list) { return Payload(list); }

/// Largest per-socket buffer (bytes) in /proc/sys/net/ipv4/tcp_{w,r}mem
/// ("min default max"); 0 when the file is unreadable.
std::size_t tcp_buffer_max(const char* path) {
  std::ifstream in(path);
  std::size_t min = 0, def = 0, max = 0;
  in >> min >> def >> max;
  return in ? max : 0;
}

/// A small cluster of transports under test; node ids are 0..n-1.
class Universe {
 public:
  virtual ~Universe() = default;
  virtual Transport& node(int i) = 0;
};

class InProcUniverse : public Universe {
 public:
  explicit InProcUniverse(int n) : fabric_(n) {}
  Transport& node(int i) override { return fabric_.endpoint(i); }

 private:
  InProcFabric fabric_;
};

class TcpUniverse : public Universe {
 public:
  explicit TcpUniverse(int n) {
    std::map<NodeId, PeerEndpoint> directory;
    for (NodeId id = 0; id < n; ++id) {
      // Ephemeral ports only: bind port 0, then query what the kernel
      // picked — fixed ports collide under `ctest -j`.
      nodes_.push_back(std::make_unique<TcpTransport>(id));
      directory[id] = PeerEndpoint{"127.0.0.1", nodes_.back()->port()};
    }
    for (auto& node : nodes_) node->set_peers(directory);
  }
  Transport& node(int i) override { return *nodes_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<std::unique_ptr<TcpTransport>> nodes_;
};

class FaultyInProcUniverse : public Universe {
 public:
  explicit FaultyInProcUniverse(int n) : fabric_(n) {
    FaultSpec spec;  // all probabilities zero: a transparent decorator
    spec.seed = 7;
    for (NodeId id = 0; id < n; ++id) {
      wrapped_.push_back(std::make_unique<FaultInjectingTransport>(
          fabric_.endpoint(id), spec));
    }
  }
  Transport& node(int i) override { return *wrapped_[static_cast<std::size_t>(i)]; }

 private:
  InProcFabric fabric_;
  std::vector<std::unique_ptr<FaultInjectingTransport>> wrapped_;
};

class ShapedInProcUniverse : public Universe {
 public:
  explicit ShapedInProcUniverse(int n) : fabric_(n) {
    // A terabit radio: the pacer thread is on the path for every frame,
    // but transmission times are sub-microsecond — the decorator must be
    // observationally equivalent to the bare transport.
    const auto spec = ShapingSpec::uniform(n, 1e6);
    const auto start = std::chrono::steady_clock::now();
    for (NodeId id = 0; id < n; ++id) {
      wrapped_.push_back(std::make_unique<ShapedTransport>(
          fabric_.endpoint(id), spec, start));
    }
  }
  Transport& node(int i) override { return *wrapped_[static_cast<std::size_t>(i)]; }

 private:
  InProcFabric fabric_;
  std::vector<std::unique_ptr<ShapedTransport>> wrapped_;
};

struct Backend {
  const char* name;
  std::unique_ptr<Universe> (*make)(int n);
};

const Backend kBackends[] = {
    {"InProc",
     [](int n) -> std::unique_ptr<Universe> {
       return std::make_unique<InProcUniverse>(n);
     }},
    {"Tcp",
     [](int n) -> std::unique_ptr<Universe> {
       return std::make_unique<TcpUniverse>(n);
     }},
    {"FaultInjectingInProc",
     [](int n) -> std::unique_ptr<Universe> {
       return std::make_unique<FaultyInProcUniverse>(n);
     }},
    {"ShapedInProc",
     [](int n) -> std::unique_ptr<Universe> {
       return std::make_unique<ShapedInProcUniverse>(n);
     }},
};

class TransportConformance : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Universe> make(int n) { return GetParam().make(n); }
};

TEST_P(TransportConformance, AddressedDeliveryAcrossNodes) {
  auto u = make(3);
  const auto inbox = u->node(2).open_mailbox(5);
  EXPECT_EQ(inbox, (Address{2, 5}));
  u->node(0).send(inbox, bytes({1, 2, 3}));
  const auto got = u->node(2).receive(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes({1, 2, 3}));
}

TEST_P(TransportConformance, MailboxDemuxOnOneNode) {
  auto u = make(2);
  u->node(1).open_mailbox(0);
  u->node(1).open_mailbox(1);
  for (std::uint8_t k = 0; k < 20; ++k) {
    u->node(0).send(Address{1, k % 2}, bytes({k}));
  }
  for (std::uint8_t k = 0; k < 20; ++k) {
    const auto got = u->node(1).receive(k % 2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ((*got)[0], k);
  }
}

TEST_P(TransportConformance, FifoPerSender) {
  auto u = make(2);
  const auto inbox = u->node(1).open_mailbox(0);
  for (std::uint8_t k = 0; k < 100; ++k) {
    u->node(0).send(inbox, bytes({k}));
  }
  for (std::uint8_t k = 0; k < 100; ++k) {
    const auto got = u->node(1).receive(0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ((*got)[0], k) << "frame " << int(k) << " out of order";
  }
}

TEST_P(TransportConformance, PerSenderOrderSurvivesInterleaving) {
  auto u = make(3);
  const auto inbox = u->node(2).open_mailbox(0);
  // Two concurrent senders; each tags frames (sender, counter). Arbitrary
  // interleaving is allowed, per-sender order is not negotiable.
  auto sender = [&](std::uint8_t id) {
    for (std::uint8_t k = 0; k < 50; ++k) {
      u->node(id).send(inbox, bytes({id, k}));
    }
  };
  std::thread a([&] { sender(0); });
  std::thread b([&] { sender(1); });
  a.join();
  b.join();
  std::uint8_t next[2] = {0, 0};
  for (int k = 0; k < 100; ++k) {
    const auto got = u->node(2).receive(0);
    ASSERT_TRUE(got.has_value());
    const auto from = (*got)[0];
    ASSERT_LT(from, 2);
    EXPECT_EQ((*got)[1], next[from]) << "sender " << int(from);
    ++next[from];
  }
  EXPECT_EQ(next[0], 50);
  EXPECT_EQ(next[1], 50);
}

TEST_P(TransportConformance, LocalLoopbackDelivers) {
  auto u = make(2);
  const auto inbox = u->node(0).open_mailbox(3);
  u->node(0).send(inbox, bytes({42}));
  EXPECT_EQ(u->node(0).receive(3).value(), bytes({42}));
}

TEST_P(TransportConformance, TryReceiveNeverBlocks) {
  auto u = make(2);
  const auto inbox = u->node(1).open_mailbox(0);
  EXPECT_FALSE(u->node(1).try_receive(0).has_value());
  u->node(0).send(inbox, bytes({9}));
  // TCP delivery is asynchronous; poll until the frame lands.
  std::optional<Frame> got;
  for (int spin = 0; spin < 2000 && !got.has_value(); ++spin) {
    got = u->node(1).try_receive(0);
    if (!got.has_value()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes({9}));
  EXPECT_FALSE(u->node(1).try_receive(0).has_value());
}

TEST_P(TransportConformance, ReceiveForTimesOutThenDelivers) {
  auto u = make(2);
  const auto inbox = u->node(1).open_mailbox(0);
  Frame out;
  EXPECT_EQ(u->node(1).receive_for(0, 10, out), RecvStatus::kTimeout);
  u->node(0).send(inbox, bytes({5}));
  // Generous bound: the frame is already in flight.
  EXPECT_EQ(u->node(1).receive_for(0, 5000, out), RecvStatus::kOk);
  EXPECT_EQ(out, bytes({5}));
}

TEST_P(TransportConformance, ReceiveForReportsClosed) {
  auto u = make(1);
  u->node(0).open_mailbox(0);
  u->node(0).shutdown();
  Frame out;
  EXPECT_EQ(u->node(0).receive_for(0, 10, out), RecvStatus::kClosed);
}

TEST_P(TransportConformance, ShutdownWakesBlockedReceiver) {
  auto u = make(1);
  u->node(0).open_mailbox(0);
  std::thread blocked([&] { EXPECT_FALSE(u->node(0).receive(0).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  u->node(0).shutdown();
  blocked.join();
  // After shutdown: receives fail fast, repeat shutdowns are no-ops.
  EXPECT_FALSE(u->node(0).receive(0).has_value());
  u->node(0).shutdown();
}

TEST_P(TransportConformance, SendToDeadOrUnknownIsSilent) {
  auto u = make(2);
  auto& a = u->node(0);
  a.send(Address{}, bytes({1}));       // nil address
  a.send(Address{7, 0}, bytes({1}));   // node that does not exist
  a.send(Address{1, 9}, bytes({1}));   // mailbox never opened
  u->node(1).shutdown();
  // Dead peer: the first frames may still slip into a kernel buffer before
  // the RST lands; none may crash or block.
  for (int k = 0; k < 10; ++k) a.send(Address{1, 0}, bytes({1}));
}

TEST_P(TransportConformance, QueuedFramesSurviveSenderShutdown) {
  auto u = make(2);
  const auto inbox = u->node(1).open_mailbox(0);
  u->node(0).send(inbox, bytes({1}));
  // Already-delivered frames must remain readable after the sender dies.
  ASSERT_EQ(u->node(1).receive(0).value(), bytes({1}));
  u->node(0).shutdown();
  Frame out;
  EXPECT_EQ(u->node(1).receive_for(0, 10, out), RecvStatus::kTimeout);
}

TEST_P(TransportConformance, SendDoesNotWaitForTheReader) {
  // A burst larger than one loopback socket's send plus receive buffers,
  // into a mailbox nobody reads yet: every send must still return (the
  // providers call send inline between compute bands), and every frame
  // must then arrive, in order.
  const std::size_t buffers =
      tcp_buffer_max("/proc/sys/net/ipv4/tcp_wmem") +
      tcp_buffer_max("/proc/sys/net/ipv4/tcp_rmem");
  constexpr std::size_t kFrameBytes = 64 * 1024;
  const std::size_t total =
      std::max<std::size_t>(buffers, 8u << 20) + (1u << 20);
  const auto n_frames = static_cast<std::uint32_t>(total / kFrameBytes + 1);

  auto u = make(2);
  const auto inbox = u->node(1).open_mailbox(0);
  std::promise<void> sent;
  auto sent_future = sent.get_future();
  std::jthread sender([&] {
    for (std::uint32_t k = 0; k < n_frames; ++k) {
      Payload frame(kFrameBytes, static_cast<std::uint8_t>(k));
      for (int b = 0; b < 4; ++b) {
        frame[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(k >> (8 * b));
      }
      u->node(0).send(inbox, std::move(frame));
    }
    sent.set_value();
  });
  const bool returned = sent_future.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  // Read either way: on failure this unblocks the sender so it can join.
  for (std::uint32_t k = 0; k < n_frames; ++k) {
    Frame got;
    ASSERT_EQ(u->node(1).receive_for(0, 10000, got), RecvStatus::kOk)
        << "frame " << k << " of " << n_frames << " never arrived";
    ASSERT_EQ(got.size(), kFrameBytes);
    std::uint32_t tag = 0;
    for (int b = 0; b < 4; ++b) {
      tag |= static_cast<std::uint32_t>(got.data()[b]) << (8 * b);
    }
    ASSERT_EQ(tag, k) << "frame out of order";
    ASSERT_EQ(got.data()[kFrameBytes - 1], static_cast<std::uint8_t>(k));
  }
  sender.join();
  EXPECT_TRUE(returned) << n_frames << " sends of " << kFrameBytes
                        << " B blocked on a mailbox nobody was reading";
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::ValuesIn(kBackends),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace de::rpc
