// Trace export + cluster merge (DESIGN.md §observability).
//
// Each node of a cluster records trace events in its *own* steady-clock
// timebase (node-local micros = process micros - the node's clock origin;
// on a real deployment these are genuinely independent clocks). To see one
// image flow requester -> provider -> requester on a single timeline, the
// per-node traces must be aligned: every kTelemetry (and kHeartbeat) frame
// carries the sender's node-local steady clock at publish, the receiver
// stamps its own local clock at ingest, and the pair bounds the offset
// between the two clocks to within the one-way delivery delay. The merge
// takes, per node, the *minimum* observed (receive - report) difference —
// the sample with the least queuing — as the offset estimate, exactly the
// one-way half of NTP's clock filter.
//
// The merged timeline is serialized as Chrome trace-event JSON ("Trace
// Event Format"), loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing: one process per cluster node, one track per runtime
// thread (named via obs::bind_thread), span events ("ph":"X") with the
// (image, volume, epoch) correlation ids as args.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace de::obs {

/// One telemetry-derived clock observation: node `node`'s local clock read
/// `reported_us` was received when the local (merging) node's clock read
/// `received_us`.
struct ClockSample {
  int node = -1;
  std::int64_t reported_us = 0;
  std::int64_t received_us = 0;
};

/// Estimates, for each node, the offset that maps its local clock into the
/// collector's: collector_time ~ node_time + offset(node). Only the sample
/// with the least delivery delay per node is kept (the only one the
/// estimate uses), so a long-lived collector feeding it every telemetry
/// frame and heartbeat stays bounded. Thread-safe ingest.
class ClockSyncBook {
 public:
  void ingest(int node, std::int64_t reported_us, std::int64_t received_us);

  /// Minimum observed (received - reported) per node — the estimate with
  /// the least delivery-delay bias. Nodes never heard from are absent.
  /// Node ids index the returned vector; missing entries hold `kNoOffset`.
  static constexpr std::int64_t kNoOffset =
      std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> offsets_us(int n_nodes) const;

  /// The retained sample of every node heard from, one per node.
  std::vector<ClockSample> samples() const;

 private:
  mutable std::mutex mu_;
  std::vector<ClockSample> samples_;
};

/// A complete traced run: the recorder dump plus everything needed to merge
/// node timebases — per-node clock origins (process-steady micros at node
/// creation; node i's local time = process time - origin[i]) and the
/// telemetry-derived sync book. Nodes are 0..n_devices-1 providers plus the
/// requester at index n_devices, matching the fabric layout.
struct TraceCapture {
  TraceDump dump;
  std::vector<std::int64_t> node_origin_us;
  ClockSyncBook sync;

  int n_nodes() const { return static_cast<int>(node_origin_us.size()); }
  int requester_node() const { return n_nodes() - 1; }
};

/// One event on the merged timeline: the event plus its resolved thread
/// identity, with ts_us rebased into the collector node's timebase.
struct MergedEvent {
  TraceEvent event;
  int thread_index = 0;  ///< index into MergedTrace::threads
};

struct MergedThread {
  std::string name;
  int node = -1;
};

struct MergedTrace {
  std::vector<MergedThread> threads;
  std::vector<MergedEvent> events;   ///< sorted by rebased ts_us
  std::vector<std::int64_t> offsets_us;  ///< applied per node (0 = collector)
  std::uint64_t dropped = 0;         ///< ring-wrapped events not present
};

/// Rebases every thread's events into the collector's timebase and sorts
/// them into one timeline. Events of node n are shifted from process time
/// into node-local time via capture.node_origin_us[n], then back into the
/// collector's clock via the sync book's offset estimate for n (nodes the
/// book never saw fall back to origin arithmetic alone — exact in-process,
/// documented-approximate across machines). Events of unbound threads
/// (node -1) are kept unshifted on the collector clock.
MergedTrace merge_capture(const TraceCapture& capture);

/// Writes `merged` as Chrome trace-event JSON. Perfetto-loadable: nodes
/// appear as processes (pid = node id, requester last), threads as named
/// tracks, spans as "ph":"X" events with seq/volume/epoch/arg args, and
/// instants as "ph":"i".
void write_chrome_trace(std::ostream& os, const MergedTrace& merged);
/// Same, to a file; returns false when the file cannot be opened.
bool write_chrome_trace(const std::string& path, const MergedTrace& merged);

/// Flight-recorder window trim: keeps only events whose span *end* falls
/// within the trailing `window_us` of the merged timeline (measured back
/// from the latest event end). The rings are already bounded per thread;
/// this bounds a /trace/dump snapshot in *time* so "the last N seconds"
/// means the same thing on every track regardless of per-thread event
/// rates. window_us <= 0 keeps everything.
MergedTrace trim_to_window(MergedTrace merged, std::int64_t window_us);

/// Aggregate span time per (node, category) — the "where does the
/// wall-clock go" rollup the trace demo prints. Sorted widest-first within
/// each node.
struct CategoryTotal {
  int node = -1;
  Cat cat = Cat::kCount;
  std::int64_t total_us = 0;
  std::int64_t spans = 0;
};
std::vector<CategoryTotal> span_totals_by_node(const MergedTrace& merged);

}  // namespace de::obs
