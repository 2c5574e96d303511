// Layer probes: each times calls into one module's public functions from
// outside, on the workload's own model and strategy, after serving ended.
#pragma once

#include "harness.hpp"
#include "net/network.hpp"
#include "obs/trace_export.hpp"

namespace distbench {

/// cnn: re-runs every (volume, device part) of `strategy` through
/// cnn::volume_forward_rows on warm caches (fast engine, shared pool).
struct CnnProbe {
  double compute_ms_per_image = 0;  ///< sum over all parts
  double critical_device_ms = 0;    ///< busiest device's sum
  double gflops = 0;                ///< part FLOPs / part time
};
CnnProbe probe_cnn(const Tenant& tenant, const sim::RawStrategy& strategy,
                   int reps);

/// rpc: encodes and decodes one image's chunk set (scatter, halo and
/// gather chunks of the halo-first schedule) with the wire codec, and
/// times a chunk-sized frame one way over a standalone TcpTransport pair.
struct RpcProbe {
  double encode_us_per_image = 0;
  double decode_us_per_image = 0;
  double tcp_oneway_us = 0;
};
RpcProbe probe_rpc(const Tenant& tenant, const sim::RawStrategy& strategy,
                   int reps);

/// Median wall time of one sim::execute_strategy call, in microseconds.
double probe_sim_execute_us(const cnn::CnnModel& model,
                            const sim::RawStrategy& strategy,
                            const sim::ClusterLatency& latency,
                            const net::Network& network, int reps);

/// runtime: per-image critical-path split of one traced phase. Images
/// whose window overlaps events a ring dropped are counted as incomplete
/// and left out of the medians.
struct TraceSplit {
  double scatter_ms = 0;
  double compute_ms = 0;
  double halo_wait_ms = 0;
  double gather_wait_ms = 0;
  double unattributed_ms = 0;
  double straggler_max_score = 0;
  double incomplete_frac = 0;
  double dropped_frac = 0;  ///< dropped / (kept + dropped) events
  std::int64_t images = 0;  ///< attributed images, complete or not
};
TraceSplit split_trace(const obs::TraceCapture& capture);

}  // namespace distbench
