// TCP Transport backend: POSIX sockets, length-prefixed frames.
//
// Connection model: connections are unidirectional. A node dials each peer
// lazily on first send and only ever writes on that socket; the accepting
// side only reads. The listener is a de::LoopbackAcceptor: every accepted
// connection gets its own rx thread that deframes and routes payloads into
// local mailboxes by mailbox id. Frame
// layout on the socket (little-endian):
//
//   u32 payload_length   (bounded by kMaxFrameBytes)
//   u32 mailbox_id
//   payload_length bytes
//
// The socket header and the frame bytes go out in one vectored write
// (sendmsg), straight from the caller's refcounted frame — the transport
// never copies a payload on send. Each rx thread reads payloads into
// buffers recycled through a per-transport FrameArena, so a steady-state
// receiver allocates nothing per frame.
//
// send() is one sendmsg. It never waits for the receiving node's consumer:
// the peer's rx thread drains the socket into an unbounded mailbox, so a
// write can stall only until that thread has read the bytes. On any connect
// or write failure the peer is marked dead and the payload is dropped
// silently, matching the Transport contract. shutdown() closes the listener
// and all sockets, wakes blocked receivers, and joins the rx threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/loopback_acceptor.hpp"
#include "rpc/transport.hpp"
#include "runtime/mailbox.hpp"

namespace de::rpc {

/// Where a peer node listens.
struct PeerEndpoint {
  std::string host;        ///< numeric IPv4, e.g. "127.0.0.1"
  std::uint16_t port = 0;
};

/// Largest accepted frame payload (64 MiB — far above any chunk we ship).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Default listen(2) backlog. A serving front door takes connection bursts
/// from many clients at once; the old hardcoded 64 overflowed under accept
/// storms (refused/aborted handshakes). The kernel clamps to somaxconn.
inline constexpr int kDefaultBacklog = 511;

class TcpTransport final : public Transport {
 public:
  /// Binds a listening socket on 127.0.0.1:`port` (0 = ephemeral) and starts
  /// the accept loop. Throws de::Error if the socket cannot be bound.
  /// `backlog` is the listen(2) queue depth (front doors facing many
  /// clients may want it even higher than the default).
  explicit TcpTransport(NodeId local, std::uint16_t port = 0,
                        int backlog = kDefaultBacklog);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// The port the listener actually bound (useful with port = 0).
  std::uint16_t port() const { return acceptor_.port(); }

  /// Declares where each peer node listens. Call before sending to them;
  /// sends to undeclared nodes are dropped.
  void set_peers(std::map<NodeId, PeerEndpoint> peers);

  NodeId local_node() const override { return node_; }
  Address open_mailbox(MailboxId id) override;
  void send(const Address& to, Frame frame) override;
  std::optional<Frame> receive(MailboxId id) override;
  std::optional<Frame> try_receive(MailboxId id) override;
  RecvStatus receive_for(MailboxId id, int timeout_ms, Frame& out) override;
  std::size_t pending(MailboxId id) const override;
  void shutdown() override;

  /// Number of accepted connections currently being served by a live rx
  /// thread. Disconnected peers drop out as the accept loop reaps them, so
  /// tests can assert sessions do not accrete across client churn.
  std::size_t live_rx_sessions() const;

 private:
  struct Peer {
    PeerEndpoint endpoint;
    std::mutex mu;     ///< serialises connect + frame writes
    int fd = -1;
    bool dead = false; ///< a connect/write failed; drop further sends
  };

  runtime::Mailbox<Frame>* find_mailbox(MailboxId id);
  void deliver_local(MailboxId id, Frame frame);
  void rx_loop(int fd);
  /// Returns a connected fd for `peer` or -1; caller holds peer.mu.
  int peer_fd_locked(Peer& peer);

  NodeId node_;
  FrameArena rx_arena_;  ///< recycled receive buffers, shared by rx threads

  mutable std::mutex mu_;  ///< guards mailboxes_ and the peers_ map shape
  bool down_ = false;
  std::map<MailboxId, std::unique_ptr<runtime::Mailbox<Frame>>> mailboxes_;
  std::map<NodeId, std::unique_ptr<Peer>> peers_;
  /// Declared last: its accept thread starts once everything above exists.
  LoopbackAcceptor acceptor_;
};

}  // namespace de::rpc
