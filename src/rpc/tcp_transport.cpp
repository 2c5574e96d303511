#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/require.hpp"
#include "obs/trace.hpp"
#include "rpc/mailbox_recv.hpp"

namespace de::rpc {

namespace {

/// Vectored write of `iov[0..iov_n)` in as few syscalls as the kernel
/// allows (normally one for a header + payload pair). MSG_NOSIGNAL: a
/// peer-closed socket must surface as EPIPE (silent send failure), never as
/// a process-wide SIGPIPE.
bool write_all_vec(int fd, iovec* iov, int iov_n) {
  while (iov_n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_n);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    while (iov_n > 0 && n >= static_cast<ssize_t>(iov[0].iov_len)) {
      n -= static_cast<ssize_t>(iov[0].iov_len);
      ++iov;
      --iov_n;
    }
    if (iov_n > 0 && n > 0) {
      iov[0].iov_base = static_cast<std::uint8_t*>(iov[0].iov_base) + n;
      iov[0].iov_len -= static_cast<std::size_t>(n);
    }
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or error
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

TcpTransport::TcpTransport(NodeId local, std::uint16_t port, int backlog)
    : node_(local),
      acceptor_(port, backlog, "tcp transport",
                [this](int fd) { rx_loop(fd); }) {}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::set_peers(std::map<NodeId, PeerEndpoint> peers) {
  std::lock_guard lk(mu_);
  DE_REQUIRE(!down_, "transport already shut down");
  for (auto& [node, endpoint] : peers) {
    auto& slot = peers_[node];
    if (!slot) slot = std::make_unique<Peer>();
    slot->endpoint = std::move(endpoint);
  }
}

Address TcpTransport::open_mailbox(MailboxId id) {
  DE_REQUIRE(id >= 0, "mailbox id must be non-negative");
  std::lock_guard lk(mu_);
  DE_REQUIRE(!down_, "transport already shut down");
  auto& slot = mailboxes_[id];
  if (!slot) slot = std::make_unique<runtime::Mailbox<Frame>>();
  return Address{node_, id};
}

runtime::Mailbox<Frame>* TcpTransport::find_mailbox(MailboxId id) {
  std::lock_guard lk(mu_);
  if (down_) return nullptr;
  auto it = mailboxes_.find(id);
  return it == mailboxes_.end() ? nullptr : it->second.get();
}

void TcpTransport::deliver_local(MailboxId id, Frame frame) {
  auto* box = find_mailbox(id);
  if (box == nullptr || box->closed()) return;  // silent drop
  box->send(std::move(frame));
}

int TcpTransport::peer_fd_locked(Peer& peer) {
  if (peer.dead) return -1;
  if (peer.fd >= 0) return peer.fd;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    peer.dead = true;
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.endpoint.port);
  if (::inet_pton(AF_INET, peer.endpoint.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    peer.dead = true;
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  peer.fd = fd;
  return fd;
}

void TcpTransport::send(const Address& to, Frame frame) {
  if (to.is_nil()) return;
  if (frame.size() > kMaxFrameBytes) return;  // refuse oversized frames
  if (to.node == node_) {
    deliver_local(to.mailbox, std::move(frame));
    return;
  }

  Peer* peer = nullptr;
  {
    std::lock_guard lk(mu_);
    if (down_) return;
    auto it = peers_.find(to.node);
    if (it == peers_.end()) return;  // undeclared peer: silent fail
    peer = it->second.get();
  }

  std::lock_guard plk(peer->mu);
  const int fd = peer_fd_locked(*peer);
  if (fd < 0) return;  // dead peer: silent fail

  // One vectored write per frame: the socket header and the frame bytes go
  // out together, read directly from the shared buffer — no staging copy.
  std::uint8_t header[8];
  put_u32(header, static_cast<std::uint32_t>(frame.size()));
  put_u32(header + 4, static_cast<std::uint32_t>(to.mailbox));
  iovec iov[2];
  iov[0] = {header, sizeof(header)};
  iov[1] = {const_cast<std::uint8_t*>(frame.data()), frame.size()};
  bool ok;
  {
    obs::SpanScope span(obs::Cat::kTxSyscall, -1, -1, -1,
                        static_cast<std::int64_t>(frame.size()));
    ok = write_all_vec(fd, iov, frame.empty() ? 1 : 2);
  }
  if (!ok) {
    ::close(peer->fd);
    peer->fd = -1;
    peer->dead = true;
  }
}

std::optional<Frame> TcpTransport::receive(MailboxId id) {
  auto* box = find_mailbox(id);
  if (box == nullptr) return std::nullopt;
  return box->receive();
}

std::optional<Frame> TcpTransport::try_receive(MailboxId id) {
  auto* box = find_mailbox(id);
  if (box == nullptr) return std::nullopt;
  return box->try_receive();
}

RecvStatus TcpTransport::receive_for(MailboxId id, int timeout_ms,
                                     Frame& out) {
  return mailbox_receive_for(find_mailbox(id), timeout_ms, out);
}

std::size_t TcpTransport::pending(MailboxId id) const {
  std::lock_guard lk(mu_);
  if (down_) return 0;
  auto it = mailboxes_.find(id);
  return it == mailboxes_.end() ? 0 : it->second->pending();
}

std::size_t TcpTransport::live_rx_sessions() const {
  return acceptor_.live_connections();
}

void TcpTransport::rx_loop(int fd) {
  obs::bind_thread("tcp-rx-" + std::to_string(node_), node_);
  for (;;) {
    std::uint8_t header[8];
    if (!read_all(fd, header, sizeof(header))) break;
    const std::uint32_t length = get_u32(header);
    const std::uint32_t mailbox = get_u32(header + 4);
    if (length > kMaxFrameBytes) break;  // malformed stream: drop the peer
    // Receive into a recycled buffer: once the runtime drops the delivered
    // frame, the buffer comes back here instead of the heap.
    const auto allocated_before = rx_arena_.stats().allocated;
    Frame frame = rx_arena_.acquire();
    if (rx_arena_.stats().allocated != allocated_before) {
      obs::trace_instant(obs::Cat::kFrameAlloc, -1, -1, -1,
                         static_cast<std::int64_t>(length));
    }
    frame.bytes().resize(length);
    bool ok = true;
    if (length > 0) {
      obs::SpanScope span(obs::Cat::kRxSyscall, -1, -1, -1,
                          static_cast<std::int64_t>(length));
      ok = read_all(fd, frame.bytes().data(), length);
    }
    if (!ok) break;
    deliver_local(static_cast<MailboxId>(mailbox), std::move(frame));
  }
}

void TcpTransport::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (down_) {
      // Idempotent: a second call must not re-join threads.
      return;
    }
    down_ = true;
    for (auto& [id, box] : mailboxes_) box->close();
    for (auto& [node, peer] : peers_) {
      std::lock_guard plk(peer->mu);
      if (peer->fd >= 0) {
        ::close(peer->fd);
        peer->fd = -1;
      }
      peer->dead = true;
    }
  }
  acceptor_.stop();  // wakes rx threads blocked in read() and joins them
}

}  // namespace de::rpc
