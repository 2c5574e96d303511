#include "rpc/fault_transport.hpp"

#include <utility>

namespace de::rpc {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic per-frame randomness: a short splitmix chain keyed by
/// (seed, src, dst, link send index). `lane` separates the independent
/// drop / dup / delay / delay-width draws of one frame.
double frame_u01(std::uint64_t seed, NodeId src, NodeId dst,
                 std::uint64_t link_seq, int lane) {
  std::uint64_t key = seed;
  key = splitmix64(key ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
                          static_cast<std::uint32_t>(dst)));
  key = splitmix64(key ^ link_seq);
  key = splitmix64(key ^ static_cast<std::uint64_t>(lane));
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjectingTransport::FaultInjectingTransport(Transport& inner,
                                                FaultSpec spec)
    : inner_(inner), spec_(std::move(spec)) {
  if (spec_.delay_prob > 0.0) {
    delayed_.emplace("fault-delay", inner_.local_node(),
                     [this](const Address& to, Frame frame) {
                       inner_.send(to, std::move(frame));
                       std::lock_guard lk(mu_);
                       ++stats_.forwarded;
                     });
  }
}

FaultInjectingTransport::~FaultInjectingTransport() { shutdown(); }

bool FaultInjectingTransport::link_severed_locked(NodeId to,
                                                  std::uint64_t link_seq) const {
  // A dead node sends nothing, whatever the per-link settings say.
  if (all_down_) return true;
  // A manual setting fully decides the link while present — down forces a
  // partition, up force-heals through an active scheduled outage window.
  if (auto it = manual_down_.find(to); it != manual_down_.end()) {
    return it->second;
  }
  if (auto it = manual_down_.find(kNilNode); it != manual_down_.end()) {
    return it->second;
  }
  for (const auto& outage : spec_.outages) {
    if (outage.to != kNilNode && outage.to != to) continue;
    if (link_seq >= outage.sever_at && link_seq < outage.heal_at) return true;
  }
  return false;
}

void FaultInjectingTransport::set_link_down(NodeId to, bool down) {
  std::lock_guard lk(mu_);
  // The wildcard resets all per-link state: "everything down/up from here"
  // must not be shadowed by an older per-link entry.
  if (to == kNilNode) manual_down_.clear();
  manual_down_[to] = down;
}

void FaultInjectingTransport::kill_node() {
  std::lock_guard lk(mu_);
  all_down_ = true;
}

void FaultInjectingTransport::revive_node() {
  std::lock_guard lk(mu_);
  all_down_ = false;
}

FaultStats FaultInjectingTransport::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

void FaultInjectingTransport::send(const Address& to, Frame frame) {
  const NodeId src = inner_.local_node();
  if (to.is_nil() || to.node == src) {
    // Loopback is exempt: a process does not lose frames to itself.
    inner_.send(to, std::move(frame));
    return;
  }

  std::uint64_t seq = 0;
  bool severed = false;
  {
    std::lock_guard lk(mu_);
    if (down_) return;
    seq = link_seq_[to.node]++;
    ++stats_.sent;
    severed = link_severed_locked(to.node, seq);
    if (severed) ++stats_.severed;
  }
  if (severed) return;

  const bool drop =
      spec_.drop_prob > 0.0 &&
      frame_u01(spec_.seed, src, to.node, seq, 0) < spec_.drop_prob;
  if (drop) {
    std::lock_guard lk(mu_);
    ++stats_.dropped;
    return;
  }

  const bool dup =
      spec_.dup_prob > 0.0 &&
      frame_u01(spec_.seed, src, to.node, seq, 1) < spec_.dup_prob;
  const bool delay =
      spec_.delay_prob > 0.0 &&
      frame_u01(spec_.seed, src, to.node, seq, 2) < spec_.delay_prob;

  Frame dup_frame;
  if (dup) dup_frame = frame;  // refcount share: a duplicate is the same bytes

  if (delay) {
    const double width = frame_u01(spec_.seed, src, to.node, seq, 3);
    const int span = spec_.delay_max_ms - spec_.delay_min_ms;
    const int delay_ms =
        spec_.delay_min_ms + static_cast<int>(width * (span > 0 ? span + 1 : 1));
    delayed_->push(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(delay_ms),
                   to, std::move(frame));
    std::lock_guard lk(mu_);
    ++stats_.delayed;
  } else {
    inner_.send(to, std::move(frame));
    std::lock_guard lk(mu_);
    ++stats_.forwarded;
  }

  if (dup) {
    // When the original was delayed, the duplicate overtakes it — a genuine
    // reordering on top of the duplication.
    inner_.send(to, std::move(dup_frame));
    std::lock_guard lk(mu_);
    ++stats_.duplicated;
    ++stats_.forwarded;
  }
}

void FaultInjectingTransport::shutdown() {
  {
    std::lock_guard lk(mu_);
    down_ = true;
  }
  // Frames still held count as lost — the network went down with them.
  if (delayed_) delayed_->stop();
  inner_.shutdown();
}

}  // namespace de::rpc
