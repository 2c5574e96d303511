// Trace merge + export: clock-offset estimation from telemetry samples,
// per-node timebase alignment within a bounded tolerance, Chrome trace JSON
// shape, and the per-node span rollup.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace de::obs {
namespace {

TraceEvent make_span(Cat cat, std::int64_t ts_us, std::int32_t dur_us,
                     int seq = -1, int volume = -1, int epoch = -1,
                     std::int64_t arg = 0) {
  TraceEvent ev;
  ev.cat = static_cast<std::uint16_t>(cat);
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.seq = seq;
  ev.volume = volume;
  ev.epoch = epoch;
  ev.arg = arg;
  return ev;
}

TEST(ClockSyncBook, MinimumDiffWins) {
  ClockSyncBook book;
  // Node 0's clock runs 500us behind the collector's; delivery delays of
  // 40/10/90us inflate each observation. The minimum-delay sample (10us)
  // bounds the estimate closest to truth.
  book.ingest(0, 1000, 1540);
  book.ingest(0, 2000, 2510);
  book.ingest(0, 3000, 3590);
  const auto offsets = book.offsets_us(2);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], 510);
  EXPECT_EQ(offsets[1], ClockSyncBook::kNoOffset);  // never heard from
  // Out-of-range nodes are ignored, not stored.
  book.ingest(7, 1, 2);
  EXPECT_EQ(book.offsets_us(2)[1], ClockSyncBook::kNoOffset);
}

// Fills a 2-provider + requester capture where both providers' events
// describe the same physical instant, each in its own skewed timebase.
// (Out-param: ClockSyncBook owns a mutex, so TraceCapture cannot move.)
void fill_capture(TraceCapture& capture) {
  // Node-local clock of node n = process clock - origin[n].
  capture.node_origin_us = {1000, 4000, 0};  // requester = node 2, origin 0

  ThreadTrace provider0;
  provider0.name = "provider-0";
  provider0.node = 0;
  provider0.events.push_back(
      make_span(Cat::kComputeBand, 11000, 500, /*seq=*/7, /*volume=*/0, 0));
  ThreadTrace provider1;
  provider1.name = "provider-1";
  provider1.node = 1;
  provider1.events.push_back(
      make_span(Cat::kComputeBand, 11000, 800, /*seq=*/7, /*volume=*/0, 0));
  ThreadTrace requester;
  requester.name = "requester";
  requester.node = 2;
  requester.events.push_back(
      make_span(Cat::kGather, 11000, 900, /*seq=*/7, -1, 0));
  requester.dropped = 3;
  capture.dump.threads = {provider0, provider1, requester};
}

TEST(MergeCapture, SharedClockFallsBackToZeroShift) {
  TraceCapture capture;  // empty sync book
  fill_capture(capture);
  const MergedTrace merged = merge_capture(capture);
  ASSERT_EQ(merged.offsets_us.size(), 3u);
  EXPECT_EQ(merged.offsets_us[0], 0);
  EXPECT_EQ(merged.offsets_us[1], 0);
  EXPECT_EQ(merged.offsets_us[2], 0);
  ASSERT_EQ(merged.events.size(), 3u);
  for (const auto& me : merged.events) {
    EXPECT_EQ(me.event.ts_us, 11000);  // in-process shared clock is exact
  }
  EXPECT_EQ(merged.dropped, 3u);
}

TEST(MergeCapture, TelemetryOffsetsRealignSkewedNodes) {
  TraceCapture capture;
  fill_capture(capture);
  // Ideal (delay-free) telemetry samples: node n's local clock read
  // (t - origin[n]) arrives when the requester's local clock reads t (the
  // requester's origin is 0). The estimated offset then exactly equals
  // origin[n], and the merge maps every node's events back onto the shared
  // process timebase.
  capture.sync.ingest(0, 5000 - 1000, 5000);
  capture.sync.ingest(1, 5000 - 4000, 5000);
  const MergedTrace merged = merge_capture(capture);
  // shift(n) = est - origin[n] + origin[collector] = 0 for ideal samples.
  EXPECT_EQ(merged.offsets_us[0], 0);
  EXPECT_EQ(merged.offsets_us[1], 0);
  for (const auto& me : merged.events) {
    EXPECT_EQ(me.event.ts_us, 11000);
  }
}

TEST(MergeCapture, DelayedSamplesStayWithinDeliveryTolerance) {
  TraceCapture capture;
  fill_capture(capture);
  // Real samples carry queuing delay: the report is received `delay` after
  // it was stamped, biasing the offset estimate by at most min(delay).
  const std::int64_t kMinDelay0 = 120;
  capture.sync.ingest(0, 4000, 1000 + 4000 + 700);        // slow sample
  capture.sync.ingest(0, 6000, 1000 + 6000 + kMinDelay0); // fast sample
  const MergedTrace merged = merge_capture(capture);
  // The estimate errs by exactly the fastest delivery; merged timestamps of
  // node 0 land within that bound of their true position.
  EXPECT_EQ(merged.offsets_us[0], kMinDelay0);
  for (const auto& me : merged.events) {
    const auto& t = merged.threads[static_cast<std::size_t>(me.thread_index)];
    if (t.node != 0) continue;
    EXPECT_GE(me.event.ts_us, 11000);
    EXPECT_LE(me.event.ts_us - 11000, kMinDelay0);
  }
}

TEST(MergeCapture, EventsSortedByMergedTime) {
  TraceCapture capture;
  fill_capture(capture);
  capture.dump.threads[0].events.push_back(
      make_span(Cat::kHaloPost, 9000, 10));
  const MergedTrace merged = merge_capture(capture);
  for (std::size_t i = 1; i < merged.events.size(); ++i) {
    EXPECT_LE(merged.events[i - 1].event.ts_us, merged.events[i].event.ts_us);
  }
}

TEST(WriteChromeTrace, EmitsPerfettoLoadableShape) {
  TraceCapture capture;
  fill_capture(capture);
  const MergedTrace merged = merge_capture(capture);
  std::ostringstream os;
  write_chrome_trace(os, merged);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process + thread naming metadata.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("node-0"), std::string::npos);
  EXPECT_NE(json.find("provider-1"), std::string::npos);
  EXPECT_NE(json.find("requester"), std::string::npos);
  // Spans with correlation args; the requester's gather chains to the same
  // image id the providers computed.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"image\":7"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  std::int64_t depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SpanTotals, RollupPerNodeWidestFirst) {
  TraceCapture capture;
  fill_capture(capture);
  capture.dump.threads[0].events.push_back(
      make_span(Cat::kHaloPost, 12000, 2000));
  capture.dump.threads[0].events.push_back(
      make_span(Cat::kHaloPost, 15000, 1000));
  const auto totals = span_totals_by_node(merge_capture(capture));
  ASSERT_FALSE(totals.empty());
  // Node 0 leads (sorted by node), its widest category first: kHaloPost
  // (3000us over 2 spans) above kComputeBand (500us).
  EXPECT_EQ(totals[0].node, 0);
  EXPECT_EQ(totals[0].cat, Cat::kHaloPost);
  EXPECT_EQ(totals[0].total_us, 3000);
  EXPECT_EQ(totals[0].spans, 2);
  EXPECT_EQ(totals[1].node, 0);
  EXPECT_EQ(totals[1].cat, Cat::kComputeBand);
  EXPECT_EQ(totals[1].total_us, 500);
}

}  // namespace
}  // namespace de::obs
