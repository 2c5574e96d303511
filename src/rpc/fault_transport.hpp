// FaultInjectingTransport: a Transport decorator that deterministically
// degrades the send path of any backend — the adversarial scheduler the
// resilient data plane is proven against (DESIGN.md §fault-model).
//
// Faults are decided per outgoing frame by hashing (seed, src node, dst
// node, per-link send index), so the drop/duplicate/delay pattern for a
// given send sequence is independent of thread interleavings and fully
// reproducible from the seed. Supported faults:
//
//  * drop       — the frame vanishes (at-most-once made concrete);
//  * duplicate  — the frame is delivered twice;
//  * delay      — the frame is held in a TimedFrameQueue and delivered
//                 late, which also reorders it behind later sends on the
//                 link (the queue's thread starts only if delay_prob > 0);
//  * partition  — a link is severed for a window of its send indices
//                 (LinkOutage schedule) or manually via set_link_down();
//                 severed frames are dropped and counted separately.
//
// The receive path is untouched: faults happen "on the wire", never in the
// local mailbox. Local loopback sends (to.node == local_node()) bypass
// injection — no real deployment loses traffic to itself.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "rpc/timed_queue.hpp"
#include "rpc/transport.hpp"

namespace de::rpc {

/// One scheduled partition window: link (local -> to) is severed while the
/// link's send index n satisfies sever_at <= n < heal_at (indices start at
/// 0). `to == kNilNode` matches every destination.
struct LinkOutage {
  NodeId to = kNilNode;
  std::uint64_t sever_at = 0;
  std::uint64_t heal_at = ~0ull;
};

/// Fault plan for one endpoint's outgoing links. All probabilities are
/// independent per frame; decisions derive from `seed`, so two transports
/// given the same spec and the same send sequence fail identically.
struct FaultSpec {
  std::uint64_t seed = 0xD157ED6EULL;
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  int delay_min_ms = 1;  ///< held-frame window (delay doubles as reordering)
  int delay_max_ms = 5;
  std::vector<LinkOutage> outages;
};

/// Counters of what the injector did (monotonic over the transport's life).
struct FaultStats {
  std::uint64_t sent = 0;        ///< frames offered to send()
  std::uint64_t forwarded = 0;   ///< frames actually passed to the inner transport
  std::uint64_t dropped = 0;     ///< lost to drop_prob
  std::uint64_t severed = 0;     ///< lost to a partition (schedule or manual)
  std::uint64_t duplicated = 0;  ///< extra copies delivered
  std::uint64_t delayed = 0;     ///< frames held on the timer thread
};

class FaultInjectingTransport final : public Transport {
 public:
  /// Decorates `inner` (not owned; must outlive this object).
  FaultInjectingTransport(Transport& inner, FaultSpec spec);
  ~FaultInjectingTransport() override;

  FaultInjectingTransport(const FaultInjectingTransport&) = delete;
  FaultInjectingTransport& operator=(const FaultInjectingTransport&) = delete;

  NodeId local_node() const override { return inner_.local_node(); }
  Address open_mailbox(MailboxId id) override { return inner_.open_mailbox(id); }
  void send(const Address& to, Frame frame) override;
  std::optional<Frame> receive(MailboxId id) override {
    return inner_.receive(id);
  }
  std::optional<Frame> try_receive(MailboxId id) override {
    return inner_.try_receive(id);
  }
  RecvStatus receive_for(MailboxId id, int timeout_ms, Frame& out) override {
    return inner_.receive_for(id, timeout_ms, out);
  }
  std::size_t pending(MailboxId id) const override {
    return inner_.pending(id);
  }

  /// Stops the delay thread (pending held frames are dropped) and shuts the
  /// inner transport down. Idempotent.
  void shutdown() override;

  /// Manual partition control. While a link has a manual setting it fully
  /// overrides the outage schedule (down forces a partition, up force-heals
  /// an active window). `to == kNilNode` applies to every link and resets
  /// all per-link settings.
  void set_link_down(NodeId to, bool down);

  /// Chaos-schedule node death: severs every outgoing link of THIS endpoint
  /// (all_down), composing with — not clobbering — per-link manual settings,
  /// so several nodes can be killed and revived independently. To make node
  /// N unreachable cluster-wide, call kill_node on N's own transport (its tx
  /// half) and set_link_down(N, true) on every peer (the rx half); the
  /// fabric's set_node_down() helper does both.
  void kill_node();
  void revive_node();

  FaultStats stats() const;

 private:
  bool link_severed_locked(NodeId to, std::uint64_t link_seq) const;

  Transport& inner_;
  const FaultSpec spec_;

  mutable std::mutex mu_;
  std::map<NodeId, std::uint64_t> link_seq_;  ///< frames offered per link
  std::map<NodeId, bool> manual_down_;
  bool all_down_ = false;  ///< kill_node(): every outgoing link severed
  FaultStats stats_;
  bool down_ = false;

  /// Delayed frames; engaged only when the spec can delay.
  std::optional<TimedFrameQueue> delayed_;
};

}  // namespace de::rpc
