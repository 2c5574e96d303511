#include "rpc/shaped_transport.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "obs/trace.hpp"

namespace de::rpc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

}  // namespace

ShapingSpec ShapingSpec::uniform(int n_nodes, Mbps rate) {
  DE_REQUIRE(n_nodes >= 1 && rate > 0, "shaping spec parameters");
  ShapingSpec spec;
  spec.node_traces.assign(static_cast<std::size_t>(n_nodes),
                          net::ThroughputTrace::constant(rate));
  return spec;
}

ShapedTransport::ShapedTransport(Transport& inner, ShapingSpec spec,
                                 Clock::time_point start)
    : inner_(inner),
      spec_(std::move(spec)),
      start_(start),
      pacer_("pacer", inner.local_node(), [this](const Address& to, Frame f) {
        obs::trace_instant(obs::Cat::kPacedSend, -1, -1, -1,
                           static_cast<std::int64_t>(f.size()));
        inner_.send(to, std::move(f));
      }) {
  DE_REQUIRE(!spec_.node_traces.empty(), "shaping spec has no traces");
  DE_REQUIRE(spec_.time_scale > 0, "shaping time scale must be positive");
  DE_REQUIRE(static_cast<std::size_t>(inner_.local_node()) <
                 spec_.node_traces.size(),
             "local node outside the shaping spec");
}

ShapedTransport::~ShapedTransport() { shutdown(); }

Mbps ShapedTransport::link_rate(NodeId to, Clock::time_point now) const {
  const Seconds t = seconds_between(start_, now) * spec_.time_scale;
  const auto& mine =
      spec_.node_traces[static_cast<std::size_t>(inner_.local_node())];
  if (to < 0 || static_cast<std::size_t>(to) >= spec_.node_traces.size()) {
    return mine.at(t);  // unknown peer: bottlenecked by our own radio only
  }
  return std::min(mine.at(t),
                  spec_.node_traces[static_cast<std::size_t>(to)].at(t));
}

void ShapedTransport::send(const Address& to, Frame frame) {
  if (to.is_nil() || to.node == inner_.local_node()) {
    // Loopback is exempt: a node's traffic to itself never crosses its radio.
    inner_.send(to, std::move(frame));
    return;
  }
  const auto now = Clock::now();
  {
    std::lock_guard lk(mu_);
    if (down_) return;
    auto& next_free = next_free_[to.node];
    const auto begin = std::max(next_free, now);
    // Rate at the frame's actual transmission start, not at enqueue: under
    // backlog those can fall in different trace regimes, and both the
    // pacing and the sampled telemetry must reflect the regime that
    // actually carries the frame.
    const Mbps rate = link_rate(to.node, begin);
    const double duration_s =
        static_cast<double>(frame.size()) * 8.0 / (rate * 1e6);
    const auto due = begin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(duration_s));
    next_free = due;
    auto& window = window_[to.node];
    window.bytes += static_cast<Bytes>(frame.size());
    window.busy_s += duration_s;
    pacer_.push(due, to, std::move(frame));
  }
}

std::vector<LinkRateSample> ShapedTransport::sample_link_rates() {
  std::vector<LinkRateSample> samples;
  std::lock_guard lk(mu_);
  samples.reserve(window_.size());
  for (auto& [peer, window] : window_) {
    if (window.bytes == 0 || window.busy_s <= 0) continue;
    LinkRateSample sample;
    sample.peer = peer;
    sample.mbps =
        static_cast<double>(window.bytes) * 8.0 / (window.busy_s * 1e6);
    sample.mbytes = static_cast<double>(window.bytes) / 1e6;
    samples.push_back(sample);
    window = LinkWindow{};
  }
  return samples;
}

void ShapedTransport::shutdown() {
  {
    std::lock_guard lk(mu_);
    down_ = true;
  }
  pacer_.stop();  // frames mid-transmission go down with the link
  inner_.shutdown();
}

}  // namespace de::rpc
