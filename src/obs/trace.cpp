#include "obs/trace.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace de::obs {

const char* cat_name(Cat cat) {
  switch (cat) {
    case Cat::kScatter: return "scatter";
    case Cat::kGather: return "gather";
    case Cat::kAssemble: return "assemble";
    case Cat::kCompute: return "compute";
    case Cat::kComputeBand: return "compute_band";
    case Cat::kHaloPost: return "halo_post";
    case Cat::kSenderWrite: return "sender_write";
    case Cat::kTxSyscall: return "tx_syscall";
    case Cat::kRxSyscall: return "rx_syscall";
    case Cat::kRtoFire: return "rto_fire";
    case Cat::kNackResend: return "nack_resend";
    case Cat::kRecvTimeout: return "recv_timeout";
    case Cat::kDupDrop: return "dup_drop";
    case Cat::kParkChunk: return "park_chunk";
    case Cat::kEpochRegister: return "epoch_register";
    case Cat::kEpochPush: return "epoch_push";
    case Cat::kReplan: return "replan";
    case Cat::kSwapDecision: return "swap_decision";
    case Cat::kDriftSample: return "drift_sample";
    case Cat::kPoolTask: return "pool_task";
    case Cat::kPacedSend: return "paced_send";
    case Cat::kTelemetryPub: return "telemetry_pub";
    case Cat::kFrameAlloc: return "frame_alloc";
    case Cat::kHeartbeatPub: return "heartbeat_pub";
    case Cat::kLeaseExpire: return "lease_expire";
    case Cat::kMembershipSwap: return "membership_swap";
    case Cat::kImageCancel: return "image_cancel";
    case Cat::kJoinAdopt: return "join_adopt";
    case Cat::kRetxCancel: return "retx_cancel";
    case Cat::kLaneEvictCat: return "lane_evict";
    case Cat::kCount: break;
  }
  return "unknown";
}

std::int64_t now_us() {
  // One fixed origin per process: initialized on first use, before any
  // recording thread exists (TraceRecorder::instance() touches it too).
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

namespace {

/// Per-thread binding, set by bind_thread and copied into the ring a thread
/// acquires. Lives in the thread, not the recorder, so binding works
/// whether tracing is enabled before or after the thread starts.
struct ThreadBinding {
  std::string name;
  int node = -1;
};

thread_local ThreadBinding t_binding;

constexpr std::size_t kWords = sizeof(TraceEvent) / 8;

}  // namespace

/// One thread's ring. Single writer (the owning thread), any number of
/// concurrent snapshot readers. Every slot is a miniature seqlock: the
/// stamp holds (event index + 1), is zeroed before the words are rewritten
/// and republished after, so a reader either copies a whole event or
/// rejects the slot. All accesses are atomic (TSan-clean); acquire/release
/// on x86 compiles to plain loads/stores.
struct TraceRecorder::Ring {
  explicit Ring(std::size_t capacity, ThreadBinding binding)
      : cap(capacity), slots(capacity), bind(std::move(binding)) {}

  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< event index + 1; 0 = invalid
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  const std::size_t cap;
  std::vector<Slot> slots;
  ThreadBinding bind;
  std::atomic<std::uint64_t> head{0};  ///< events ever written

  void write(const TraceEvent& ev) {
    const std::uint64_t idx = head.load(std::memory_order_relaxed);
    Slot& slot = slots[idx % cap];
    std::uint64_t w[kWords];
    std::memcpy(w, &ev, sizeof(ev));
    slot.stamp.store(0, std::memory_order_release);
    for (std::size_t k = 0; k < kWords; ++k) {
      slot.words[k].store(w[k], std::memory_order_release);
    }
    slot.stamp.store(idx + 1, std::memory_order_release);
    head.store(idx + 1, std::memory_order_release);
  }

  /// Copies the event at logical index `idx` if its slot still holds it.
  bool read(std::uint64_t idx, TraceEvent& out) const {
    const Slot& slot = slots[idx % cap];
    if (slot.stamp.load(std::memory_order_acquire) != idx + 1) return false;
    std::uint64_t w[kWords];
    for (std::size_t k = 0; k < kWords; ++k) {
      w[k] = slot.words[k].load(std::memory_order_acquire);
    }
    // Re-check: the writer zeroes the stamp before rewriting the words, so
    // an unchanged stamp proves the copy above was not torn by a lap.
    if (slot.stamp.load(std::memory_order_acquire) != idx + 1) return false;
    std::memcpy(&out, w, sizeof(out));
    return true;
  }
};

/// Thread-local handle: which session's ring this thread holds. Kept as a
/// shared_ptr so a ring outlives its thread until the recorder drops it.
struct TraceRecorder::ThreadSlot {
  std::shared_ptr<Ring> ring;
  std::uint64_t session = 0;
};

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  (void)now_us();  // pin the process time origin before any recording
  return recorder;
}

void TraceRecorder::enable(const TraceConfig& config) {
  std::lock_guard lk(mu_);
  config_ = config;
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  rings_.clear();
  session_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_release);
}

TraceRecorder::Ring* TraceRecorder::ring_for_this_thread() {
  thread_local ThreadSlot slot;
  const std::uint64_t session = session_.load(std::memory_order_acquire);
  if (slot.ring == nullptr || slot.session != session) {
    auto ring = [&] {
      std::lock_guard lk(mu_);
      rings_.push_back(
          std::make_shared<Ring>(config_.ring_capacity, t_binding));
      return rings_.back();
    }();
    slot.ring = std::move(ring);
    slot.session = session;
  }
  return slot.ring.get();
}

void TraceRecorder::record(TraceEvent ev) {
  if (!enabled()) return;
  Ring* ring = ring_for_this_thread();
  ev.node = static_cast<std::int16_t>(ring->bind.node);
  ring->write(ev);
}

TraceDump TraceRecorder::snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lk(mu_);
    rings = rings_;
  }
  TraceDump dump;
  dump.threads.reserve(rings.size());
  for (const auto& ring : rings) {
    ThreadTrace t;
    t.name = ring->bind.name;
    t.node = ring->bind.node;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t first = head > ring->cap ? head - ring->cap : 0;
    t.dropped = first;
    t.events.reserve(static_cast<std::size_t>(head - first));
    for (std::uint64_t idx = first; idx < head; ++idx) {
      TraceEvent ev;
      if (ring->read(idx, ev)) {
        t.events.push_back(ev);
      } else {
        ++t.dropped;  // overwritten (or mid-rewrite) during this snapshot
      }
    }
    dump.threads.push_back(std::move(t));
  }
  return dump;
}

std::uint64_t TraceDump::total_events() const {
  std::uint64_t n = 0;
  for (const auto& t : threads) n += t.events.size();
  return n;
}

std::uint64_t TraceDump::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& t : threads) n += t.dropped;
  return n;
}

void bind_thread(const std::string& name, int node) {
  t_binding.name = name;
  t_binding.node = node;
#if defined(__linux__)
  // The kernel caps names at 16 bytes including the terminator.
  char os_name[16];
  std::snprintf(os_name, sizeof(os_name), "%s", name.c_str());
  pthread_setname_np(pthread_self(), os_name);
#endif
}

}  // namespace de::obs
