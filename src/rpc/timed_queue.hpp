// TimedFrameQueue: frames held until a due time, then released one by one
// on a single thread — the timing half shared by ShapedTransport (a frame
// is due when its paced transmission completes) and FaultInjectingTransport
// (a delayed frame is due when its injected delay has passed).
//
// Frames release in (due time, enqueue order): two frames with the same
// due time leave in the order they were pushed, which is what keeps the
// shaper's per-link FIFO exact. stop() drops whatever is still held — those
// frames go down with the link.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "rpc/transport.hpp"

namespace de::rpc {

class TimedFrameQueue {
 public:
  using Clock = std::chrono::steady_clock;
  /// Called on the release thread, outside the queue's lock, once per frame
  /// whose due time has passed.
  using Release = std::function<void(const Address& to, Frame frame)>;

  /// Starts the release thread, named `thread_name` and bound to `node`
  /// for traces (obs::bind_thread).
  TimedFrameQueue(std::string thread_name, NodeId node, Release release);
  ~TimedFrameQueue();

  TimedFrameQueue(const TimedFrameQueue&) = delete;
  TimedFrameQueue& operator=(const TimedFrameQueue&) = delete;

  /// Holds `frame` for `to` until `due`. Dropped once stop() has run.
  void push(Clock::time_point due, const Address& to, Frame frame);

  /// Drops every held frame and joins the release thread. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  struct Held {
    Clock::time_point due;
    std::uint64_t seq = 0;  ///< enqueue order: FIFO tie-break on equal dues
    Address to;
    Frame frame;
    bool operator>(const Held& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  void loop();

  const std::string thread_name_;
  const NodeId node_;
  const Release release_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Held, std::vector<Held>, std::greater<Held>> held_;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace de::rpc
