// Static transfer plan of a strategy: which output rows each device produces
// per volume, which input rows it needs, and how many inbound chunk messages
// it should expect. Shared by the in-process and TCP data planes and by the
// pipelined serving loop — the plan depends only on the strategy, never on
// the transport.
#pragma once

#include <vector>

#include "cnn/conv_exec.hpp"
#include "rpc/address.hpp"
#include "sim/exec_sim.hpp"

namespace de::runtime {

struct TransferPlan {
  int n_devices = 0;
  /// parts[l][i]: output rows device i produces for volume l (maybe empty).
  std::vector<std::vector<cnn::RowInterval>> parts;
  /// needs[l][i]: volume-l input rows device i requires.
  std::vector<std::vector<cnn::RowInterval>> needs;
  /// expected[l][i]: inbound chunk messages for volume l at device i.
  std::vector<std::vector<int>> expected;

  int num_volumes() const { return static_cast<int>(parts.size()); }
  /// The requester's node id on the transport (providers are 0..n-1).
  rpc::NodeId requester_node() const { return n_devices; }
  /// Devices holding a non-empty share of the final volume (gather senders).
  int holders_of_last() const;
  /// True when device i ever computes or receives anything for one image.
  bool device_active(int i) const;
};

/// Validates `strategy` against `model` and builds the plan (same interval
/// algebra as the event simulator).
TransferPlan build_transfer_plan(const cnn::CnnModel& model,
                                 const sim::RawStrategy& strategy,
                                 int n_devices);

/// One outbound chunk of a (volume, device) part under the halo-first
/// schedule: destination node (a provider for halos, the requester for
/// gather bands), the absolute output rows it carries, and the index of the
/// last compute band it waits on — the chunk may ship the moment bands
/// [0, ready_after_band] are done.
struct OutboundChunk {
  rpc::NodeId to = rpc::kNilNode;
  cnn::RowInterval rows;
  int ready_after_band = 0;
};

/// Halo-first compute/send schedule of parts[l][i]. `bands` is a disjoint
/// row partition of the part in compute order: rows some neighbor's next-
/// volume need intersects ("boundary") first, interior rows last, so every
/// halo chunk is in flight while the interior still computes. For the final
/// volume the part instead streams to the requester as roughly equal gather
/// bands (each its own OutboundChunk). Executing the bands in order is
/// bit-exact with one whole-part call — bands only re-cut the row loop.
/// Depends only on the plan, so it is computed once per run, never per
/// image. Empty parts yield an empty schedule.
struct PartSchedule {
  std::vector<cnn::RowInterval> bands;
  std::vector<OutboundChunk> sends;
};

/// `max_gather_bands` caps the final volume's streamed bands (small parts
/// collapse to one band — a band under ~4 rows is all header overhead).
PartSchedule plan_part_schedule(const TransferPlan& plan, int l, int i,
                                int max_gather_bands = 4);


/// Copies rows [src_begin, src_end) (absolute) from `src` (whose row 0 is
/// absolute row `src_offset`) into `dst` (whose row 0 is `dst_offset`).
void blit_rows(const cnn::Tensor& src, int src_offset, int src_begin,
               int src_end, cnn::Tensor& dst, int dst_offset);

/// Extracts absolute rows [begin, end) of `src` whose row 0 is `src_offset`.
cnn::Tensor slice_rows(const cnn::Tensor& src, int src_offset, int begin,
                       int end);

}  // namespace de::runtime
