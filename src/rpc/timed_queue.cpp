#include "rpc/timed_queue.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace de::rpc {

TimedFrameQueue::TimedFrameQueue(std::string thread_name, NodeId node,
                                 Release release)
    : thread_name_(std::move(thread_name)),
      node_(node),
      release_(std::move(release)) {
  thread_ = std::thread([this] { loop(); });
}

TimedFrameQueue::~TimedFrameQueue() { stop(); }

void TimedFrameQueue::push(Clock::time_point due, const Address& to,
                           Frame frame) {
  {
    std::lock_guard lk(mu_);
    if (stop_) return;
    held_.push(Held{due, next_seq_++, to, std::move(frame)});
  }
  cv_.notify_one();
}

void TimedFrameQueue::loop() {
  obs::bind_thread(thread_name_, node_);
  std::unique_lock lk(mu_);
  for (;;) {
    if (stop_) return;
    if (held_.empty()) {
      cv_.wait(lk, [this] { return stop_ || !held_.empty(); });
      continue;
    }
    const auto due = held_.top().due;
    if (Clock::now() < due) {
      cv_.wait_until(lk, due);
      continue;
    }
    // const_cast: priority_queue::top() is const, but we are about to pop.
    Held item = std::move(const_cast<Held&>(held_.top()));
    held_.pop();
    lk.unlock();
    release_(item.to, std::move(item.frame));
    lk.lock();
  }
}

void TimedFrameQueue::stop() {
  {
    std::lock_guard lk(mu_);
    if (stop_) return;  // idempotent: a second call must not re-join
    stop_ = true;
    while (!held_.empty()) held_.pop();
  }
  cv_.notify_all();
  thread_.join();
}

}  // namespace de::rpc
