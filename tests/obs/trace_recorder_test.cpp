// TraceRecorder: ring wraparound drops oldest (and counts them), snapshots
// never observe torn events even with writers live (run under TSan by the
// sanitize CI job), sessions reset cleanly, and thread bindings land in the
// dump.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace de::obs {
namespace {

// The recorder is a process-global singleton, so every test begins with a
// fresh enable() (which discards prior rings) and ends disabled.
class TraceRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override { TraceRecorder::instance().disable(); }
};

TEST_F(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder::instance().disable();
  trace_instant(Cat::kScatter, 1, 2, 3);
  { SpanScope span(Cat::kGather, 1, -1, 0); }
  TraceConfig config;
  TraceRecorder::instance().enable(config);
  // Fresh session: nothing from the disabled period survived.
  EXPECT_EQ(TraceRecorder::instance().snapshot().total_events(), 0u);
}

TEST_F(TraceRecorderTest, WraparoundDropsOldestAndCounts) {
  TraceConfig config;
  config.ring_capacity = 8;
  TraceRecorder::instance().enable(config);
  bind_thread("wrap-test", 3);
  for (int i = 0; i < 20; ++i) {
    trace_instant(Cat::kPoolTask, i, -1, -1, i);
  }
  const TraceDump dump = TraceRecorder::instance().snapshot();
  std::uint64_t events = 0;
  for (const auto& t : dump.threads) {
    if (t.name != "wrap-test") continue;
    EXPECT_EQ(t.node, 3);
    EXPECT_EQ(t.events.size(), 8u);
    EXPECT_EQ(t.dropped, 12u);
    // Survivors are the newest 8, oldest first: args 12..19.
    for (std::size_t k = 0; k < t.events.size(); ++k) {
      EXPECT_EQ(t.events[k].arg, static_cast<std::int64_t>(12 + k));
      EXPECT_EQ(t.events[k].node, 3);
    }
    events += t.events.size();
  }
  EXPECT_EQ(events, 8u);
}

TEST_F(TraceRecorderTest, SpanAndInstantShapes) {
  TraceRecorder::instance().enable({});
  bind_thread("shape-test", 1);
  trace_instant(Cat::kRtoFire, 5, -1, 2, 77);
  {
    SpanScope span(Cat::kComputeBand, 9, 4, 1);
    span.set_arg(123);
  }
  const TraceDump dump = TraceRecorder::instance().snapshot();
  bool saw_instant = false;
  bool saw_span = false;
  for (const auto& t : dump.threads) {
    if (t.name != "shape-test") continue;
    for (const auto& ev : t.events) {
      if (ev.cat == static_cast<std::uint16_t>(Cat::kRtoFire)) {
        saw_instant = true;
        EXPECT_LT(ev.dur_us, 0);  // instants carry negative duration
        EXPECT_EQ(ev.seq, 5);
        EXPECT_EQ(ev.epoch, 2);
        EXPECT_EQ(ev.arg, 77);
      }
      if (ev.cat == static_cast<std::uint16_t>(Cat::kComputeBand)) {
        saw_span = true;
        EXPECT_GE(ev.dur_us, 0);  // spans close with a real duration
        EXPECT_EQ(ev.seq, 9);
        EXPECT_EQ(ev.volume, 4);
        EXPECT_EQ(ev.arg, 123);
      }
    }
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_span);
}

TEST_F(TraceRecorderTest, ReenableDiscardsPreviousSession) {
  TraceRecorder::instance().enable({});
  trace_instant(Cat::kScatter, 1);
  EXPECT_GE(TraceRecorder::instance().snapshot().total_events(), 1u);
  TraceRecorder::instance().enable({});
  EXPECT_EQ(TraceRecorder::instance().snapshot().total_events(), 0u);
}

TEST_F(TraceRecorderTest, ConcurrentWritersNeverTearEvents) {
  TraceConfig config;
  config.ring_capacity = 64;  // small: force heavy wrap under the readers
  TraceRecorder::instance().enable(config);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &go] {
      bind_thread("stress-" + std::to_string(w), w);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        // Every id field carries the same value: a torn slot that mixed two
        // events would show disagreeing fields.
        trace_instant(Cat::kPoolTask, i, i, i, i);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Snapshot while the writers hammer; every observed event must be
  // internally consistent (whole, never a mix of two writes).
  for (int round = 0; round < 50; ++round) {
    const TraceDump dump = TraceRecorder::instance().snapshot();
    for (const auto& t : dump.threads) {
      for (const auto& ev : t.events) {
        EXPECT_EQ(ev.seq, ev.volume);
        EXPECT_EQ(ev.volume, ev.epoch);
        EXPECT_EQ(static_cast<std::int64_t>(ev.seq), ev.arg);
      }
    }
  }
  for (auto& t : writers) t.join();

  // Quiescent accounting: per stress ring, survivors + dropped = written.
  const TraceDump final_dump = TraceRecorder::instance().snapshot();
  for (const auto& t : final_dump.threads) {
    if (t.name.rfind("stress-", 0) != 0) continue;
    EXPECT_EQ(t.events.size() + t.dropped,
              static_cast<std::uint64_t>(kPerWriter))
        << t.name;
    // With no writer racing this snapshot, nothing may read as torn: the
    // ring is full and exactly capacity events survive.
    EXPECT_EQ(t.events.size(), std::size_t{64}) << t.name;
  }
}

}  // namespace
}  // namespace de::obs
