// Live ops plane front door (DESIGN.md §observability, "Ops plane"): a
// tiny HTTP/1.0 server on a loopback listener, serving GET requests from a
// thread-safe route table. One server instance is shared by whatever wants
// to expose state — the serving front door (serve::StreamServer, and so
// every serve_stream run) registers /metrics, /healthz, /membership,
// /streams and /trace/dump for its lifetime.
//
// This is deliberately not a web framework: HTTP/1.0, GET only, one
// request per connection, Connection: close. The listener is the same
// de::LoopbackAcceptor rpc::TcpTransport uses, so the endpoint shares its
// accept-path hardening: transient accept() failures never end the loop,
// finished connection threads are reaped on the next accept wakeup, and
// shutdown never lets the accept thread read a recycled fd number.
// Connections additionally carry a receive timeout so a stalled scraper
// cannot wedge a serving thread forever.
//
// Handlers run on connection threads: they must be safe to call
// concurrently with the owning runtime (scrape-time snapshots, not locks
// over hot paths). A handler registered with route() stays callable until
// unroute() or close() returns — callers that capture stack state must
// unroute before that state dies (runtime/serve.cpp uses a scope guard).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/loopback_acceptor.hpp"

namespace de::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// A GET handler; `query` is the raw string after '?' ("" when absent).
using AdminHandler = std::function<HttpResponse(std::string_view query)>;

/// Value of `key` in a raw `&`-separated query string, or nullopt when the
/// key is absent. Matches whole keys only — query_param("ms=500", "s")
/// misses — unlike a naive find("s="), which would hit the substring.
std::optional<std::string_view> query_param(std::string_view query,
                                            std::string_view key);

class AdminServer {
 public:
  /// Binds a loopback listener (port 0 = kernel-assigned ephemeral port,
  /// readable via port() immediately) and starts the accept thread.
  explicit AdminServer(std::uint16_t port = 0);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  std::uint16_t port() const { return acceptor_.port(); }

  /// Registers (or replaces) the handler for `path` (exact match, no
  /// query). Thread-safe.
  void route(const std::string& path, AdminHandler handler);
  /// Drops `path`'s handler. After unroute() returns, no connection thread
  /// is inside the old handler and none will enter it. Thread-safe.
  void unroute(const std::string& path);

  /// Stops accepting, joins all connection threads, closes the listener.
  /// Idempotent; the destructor calls it.
  void close();

 private:
  void serve_connection(int fd);

  mutable std::mutex mu_;
  std::map<std::string, AdminHandler, std::less<>> routes_;
  /// Declared last: its accept thread starts once the route table exists.
  LoopbackAcceptor acceptor_;
};

/// Minimal blocking HTTP GET against 127.0.0.1:`port` — the scrape client
/// used by tests and bench/obs_overhead's 1 Hz scraper thread.
struct HttpGetResult {
  int status = 0;
  std::string body;
};
/// nullopt on connect/IO failure or unparseable response.
std::optional<HttpGetResult> http_get(std::uint16_t port,
                                      const std::string& path);

}  // namespace de::obs
