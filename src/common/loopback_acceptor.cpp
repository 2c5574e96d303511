#include "common/loopback_acceptor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <utility>

#include "common/require.hpp"

namespace de {

LoopbackAcceptor::LoopbackAcceptor(std::uint16_t port, int backlog,
                                   std::string_view owner, Serve serve)
    : serve_(std::move(serve)) {
  DE_REQUIRE(backlog > 0, "listen backlog must be positive");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DE_REQUIRE(listen_fd_ >= 0, std::string(owner) + ": socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(std::string(owner) + ": cannot bind loopback listener");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

LoopbackAcceptor::~LoopbackAcceptor() { stop(); }

std::size_t LoopbackAcceptor::live_connections() const {
  std::lock_guard lk(mu_);
  return conn_fds_.size();
}

void LoopbackAcceptor::reap_finished_locked(std::vector<std::thread>& out) {
  for (const auto id : conn_done_) {
    for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
      if (it->get_id() == id) {
        out.push_back(std::move(*it));
        conn_threads_.erase(it);
        break;
      }
    }
  }
  conn_done_.clear();
}

void LoopbackAcceptor::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::vector<std::thread> finished;
    if (fd < 0) {
      const int err = errno;
      {
        std::lock_guard lk(mu_);
        if (down_) return;  // listener shut down: the only clean exit
        reap_finished_locked(finished);
      }
      for (auto& t : finished) t.join();
      if (err == EINTR || err == ECONNABORTED || err == EPROTO) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      return;  // genuinely fatal (EBADF, EINVAL, ...) without shutdown
    }
    {
      std::lock_guard lk(mu_);
      if (down_) {
        ::close(fd);
        return;
      }
      reap_finished_locked(finished);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { serve_then_close(fd); });
    }
    for (auto& t : finished) t.join();
  }
}

void LoopbackAcceptor::serve_then_close(int fd) {
  serve_(fd);
  // Deregister before closing so stop() never touches a recycled fd, then
  // park this thread's id for the accept loop to reap the handle.
  std::lock_guard lk(mu_);
  std::erase(conn_fds_, fd);
  ::close(fd);
  conn_done_.push_back(std::this_thread::get_id());
}

void LoopbackAcceptor::stop() {
  std::vector<std::thread> conns;
  {
    std::lock_guard lk(mu_);
    if (down_) return;  // idempotent: a second call must not re-join
    down_ = true;
    // Wake connection threads blocked in read(); they close their own fd.
    // conn_threads_ still holds finished-but-unreaped threads — moving the
    // whole vector joins those too.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conns = std::move(conn_threads_);
    conn_done_.clear();
  }
  // Wake accept() with ::shutdown only; the fd is closed *after* the join so
  // the accept thread never reads a recycled fd number (closing first races
  // with its next accept() and, on Linux, would not even wake a blocked one).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& t : conns) t.join();
}

}  // namespace de
