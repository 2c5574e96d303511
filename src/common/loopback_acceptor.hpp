// Loopback TCP acceptor shared by the node transport (rpc::TcpTransport)
// and the ops endpoint (obs::AdminServer): one listener on 127.0.0.1, one
// accept thread, one thread per accepted connection.
//
// The accept loop never ends on a transient failure — that would lock every
// later client out of a healthy listener. It retries EINTR, ECONNABORTED and
// EPROTO at once (aborted handshakes are routine under connect storms) and
// backs off 2 ms on EMFILE, ENFILE, ENOBUFS and ENOMEM (fd and buffer
// exhaustion is transient: finished connections and closing peers free
// slots). Threads of finished connections are joined on the next accept
// wakeup, so a long-lived listener does not accrete one dead thread per
// past client.
//
// stop() wakes every connection with SHUT_RDWR, wakes the blocked accept()
// with ::shutdown, joins, and only then closes the listener fd, so the
// accept thread never reads a recycled fd number.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace de {

class LoopbackAcceptor {
 public:
  /// Serves one accepted connection on its own thread and returns when the
  /// connection is done. It must not close `fd`: the acceptor closes it
  /// after serve returns.
  using Serve = std::function<void(int fd)>;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, readable
  /// via port() at once) with listen(2) queue depth `backlog`, then starts
  /// the accept thread. Throws de::Error naming `owner` if the listener
  /// cannot be bound.
  LoopbackAcceptor(std::uint16_t port, int backlog, std::string_view owner,
                   Serve serve);
  ~LoopbackAcceptor();

  LoopbackAcceptor(const LoopbackAcceptor&) = delete;
  LoopbackAcceptor& operator=(const LoopbackAcceptor&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accepted connections whose serve call has not returned yet.
  std::size_t live_connections() const;

  /// Stops accepting, wakes and joins every connection thread, closes the
  /// listener. Idempotent; the destructor calls it.
  void stop();

 private:
  void accept_loop();
  void serve_then_close(int fd);
  /// Moves finished connection threads into `out` for joining outside the
  /// lock; caller holds mu_.
  void reap_finished_locked(std::vector<std::thread>& out);

  Serve serve_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  bool down_ = false;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::thread::id> conn_done_;
};

}  // namespace de
