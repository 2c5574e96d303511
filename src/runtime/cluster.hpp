// Distributed runtime: one worker per service provider, real tensor chunks
// flowing through an rpc::Transport, real conv/pool arithmetic.
//
// This is the data-plane counterpart of the event simulator: it executes a
// RawStrategy end-to-end (scatter -> per-volume split-part compute -> halo
// redistribution -> gather) with genuine concurrency, and its gathered
// output must equal the single-device reference forward bit-for-bit — the
// system-level proof of the Vertical-Splitting Law and of the transfer
// planning logic. A finite run is a one-image runtime::serve_stream, over
// shared memory (run_distributed) or a loopback TCP cluster
// (run_distributed_tcp); both push every chunk through the binary wire
// format. With RunOptions::faults the fabric is degraded by a
// FaultInjectingTransport and the reliability protocol must still
// reproduce the reference bit-for-bit — the adversarial-scheduling proof.
// Timing remains the simulator's job (DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "cnn/exec_engine.hpp"
#include "obs/metrics.hpp"
#include "rpc/fault_transport.hpp"
#include "runtime/reliable.hpp"
#include "runtime/worker.hpp"
#include "sim/exec_sim.hpp"

namespace de::runtime {

/// Knobs of one cluster run. Fault injection requires the reliability
/// protocol: lost frames with no retransmission would hang the plan's
/// chunk accounting (the pre-v2 behaviour this layer exists to fix).
struct RunOptions {
  ReliabilityOptions reliability;
  const rpc::FaultSpec* faults = nullptr;  ///< not owned; may be null
  /// Conv/pool engine the provider workers execute with. The fast engine is
  /// bit-exact vs the reference (tests/cnn/exec_engine_test.cpp), so the
  /// gathered output is engine-independent; it defaults on so every worker
  /// uses the packed kernels + shared-pool row bands.
  cnn::ExecContext exec = cnn::ExecContext::fast_shared();
  /// Chunk path: halo-first zero-copy (default) or the serial copying
  /// baseline. Both are bit-exact; the baseline exists for in-run A/B
  /// benches and the conformance tests.
  DataPlaneMode data_plane = DataPlaneMode::kOverlapZeroCopy;
};

struct ClusterResult {
  cnn::Tensor output;        ///< stitched output of the last volume
  /// Canonical per-run metrics (runtime/runtime_metrics.hpp names). The
  /// scalar fields below are views into this snapshot, kept for existing
  /// callers; the snapshot is the source of truth and uses the same names
  /// as ServeResult::metrics.
  obs::MetricsSnapshot metrics;
  std::int64_t messages_exchanged = 0;
  Bytes bytes_moved = 0;     ///< payload bytes across all chunk messages
  Bytes wire_bytes = 0;      ///< frame bytes on the wire, headers included
  Bytes bytes_copied = 0;    ///< userspace copies on the chunk path
  std::int64_t frame_allocs = 0;  ///< frame buffers the arenas had to malloc
  std::int64_t retransmits = 0;        ///< reliability-layer chunk resends
  std::int64_t duplicates_dropped = 0; ///< repeats absorbed by rx-side dedup
  std::int64_t recv_timeouts = 0;      ///< expired bounded waits (nack rounds)
};

/// Runs `strategy` on `n_devices` worker threads over the in-process
/// transport. `weights[l]` must hold the conv weights for layer l (ignored
/// entries for pooling layers).
ClusterResult run_distributed(const cnn::CnnModel& model,
                              const sim::RawStrategy& strategy,
                              const std::vector<cnn::ConvWeights>& weights,
                              const cnn::Tensor& input, int n_devices,
                              const RunOptions& options = {});

/// Same execution, but every node gets its own TcpTransport endpoint on
/// loopback: chunks genuinely cross the kernel's TCP stack as
/// length-prefixed wire frames. Must reproduce run_reference bit-for-bit,
/// exactly like the in-process path.
ClusterResult run_distributed_tcp(const cnn::CnnModel& model,
                                  const sim::RawStrategy& strategy,
                                  const std::vector<cnn::ConvWeights>& weights,
                                  const cnn::Tensor& input, int n_devices,
                                  const RunOptions& options = {});

/// Reference single-device forward of the conv chain (for cross-checking).
cnn::Tensor run_reference(const cnn::CnnModel& model,
                          const std::vector<cnn::ConvWeights>& weights,
                          const cnn::Tensor& input);

/// Random per-layer weights for a model (pool layers get empty entries).
std::vector<cnn::ConvWeights> random_weights(const cnn::CnnModel& model, Rng& rng);

}  // namespace de::runtime
