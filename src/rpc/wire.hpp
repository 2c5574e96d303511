// Binary wire format of the cluster data plane (DESIGN.md §wire-format).
//
// Every payload starts with an 8-byte header:
//
//   u32 magic   = 0x44454447  ("DEDG")
//   u16 version = kWireVersion (6). Every node is built from one tree, so
//                 there is one version: decoders reject any other.
//   u16 type    (MsgType)
//
// followed by the type-specific body, all little-endian:
//
//   kScatter / kHaloRows / kGather (tensor chunk):
//     i32 seq          image sequence number within a stream
//     i32 volume       destination layer-volume index
//     i32 row_offset   absolute first row within that volume's input/output
//     i32 from_node    sending node (kNilNode when untracked)
//     u32 chunk_id     per-link id for ack/dedup (0 = untracked)
//     i32 epoch        strategy epoch the chunk's image belongs to
//     i32 stream       serving stream (tenant) the image belongs to
//     i32 h, i32 w, i32 c
//     f32 * (h*w*c)    row-major HWC floats as raw IEEE-754 bit patterns
//   kHaloRequest:
//     i32 seq, i32 volume, i32 begin, i32 end, i32 from_node
//   kShutdown:
//     (empty body)
//   kAck:
//     i32 from_node (the acker), u32 chunk_id
//   kNack:
//     i32 from_node (the complainer), i32 seq, i32 volume
//   kTelemetry:
//     i32 from_node, f32 window_s, f32 compute_ms, i32 images,
//     i64 steady_now_us   sender's node-local steady clock at publish
//                         (clock-offset alignment for trace merging)
//     i32 n_links, then per link: i32 peer, f32 mbps, f32 mbytes
//   kReconfigure:
//     i32 from_node (kNilNode when untracked), u32 chunk_id (0 = untracked),
//     i32 epoch, i32 from_seq, i32 stream, i32 model_id,
//     i32 n_devices, i32 n_volumes,
//     then per volume: i32 first, i32 last, i32 * (n_devices+1) cuts
//   kStreamHello:
//     u32 listen_port (the client's dial-back port), i32 model_id,
//     i32 window (requested in-flight window; 0 = server default)
//   kStreamAccept:
//     i32 stream (door-assigned id), i32 window (granted)
//   kStreamReject:
//     i32 reason (StreamRejectMsg::Reason)
//   kStreamClose:
//     i32 stream
//   kDispatch:
//     i32 from_node (kNilNode when untracked), u32 chunk_id (0 = untracked),
//     i32 stream, i32 seq (global fleet sequence), i32 epoch
//   kHeartbeat:
//     i32 from_node, u32 hb_seq (per-sender monotone), i64 steady_now_us
//   kMembership:
//     i32 from_node (kNilNode when untracked), u32 chunk_id (0 = untracked),
//     i32 cancel_below (images below this seq are void), i32 resume_seq,
//     i32 n_died then i32 * n_died dead node ids,
//     i32 n_joined then per joiner: i32 node, u32 id_base
//   kLaneEvict:
//     i32 from_node (kNilNode when untracked), u32 chunk_id (0 = untracked),
//     i32 stream, i32 below_seq
//
// decode_* throws de::Error on malformed input (bad magic/version/type,
// truncated body, trailing garbage, negative or overflowing extents); a
// frame accepted by decode re-encodes to the identical byte string, and
// chunk/telemetry/reconfigure decoding never allocates before the claimed
// counts are proven consistent with the frame length.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnn/conv_exec.hpp"
#include "cnn/layer_volume.hpp"
#include "rpc/address.hpp"
#include "rpc/transport.hpp"

namespace de::rpc {

inline constexpr std::uint32_t kWireMagic = 0x44454447;  // "DEDG"
inline constexpr std::uint16_t kWireVersion = 6;

enum class MsgType : std::uint16_t {
  kScatter = 1,      ///< requester -> provider: volume-0 input rows
  kHaloRequest = 2,  ///< provider -> provider: pull request for halo rows
  kHaloRows = 3,     ///< provider -> provider: halo rows between volumes
  kGather = 4,       ///< provider -> requester: final-volume output rows
  kShutdown = 5,     ///< requester -> provider: end of stream
  kAck = 6,          ///< receiver -> sender: chunk `chunk_id` arrived
  kNack = 7,         ///< receiver -> peers: still missing (seq, volume)
  kTelemetry = 8,    ///< node -> controller: link rates + compute ms
  kReconfigure = 9,  ///< requester -> provider: new strategy epoch
  kStreamHello = 10,   ///< client -> door: open a serving stream
  kStreamAccept = 11,  ///< door -> client: stream admitted
  kStreamReject = 12,  ///< door -> client: stream refused
  kStreamClose = 13,   ///< either way: end of a serving stream
  kDispatch = 14,      ///< front end -> provider: global seq ownership
  kHeartbeat = 15,     ///< node -> controller: liveness lease renewal
  kMembership = 16,    ///< requester -> provider: fleet changed
  kLaneEvict = 17,     ///< requester -> provider: drop a stream's lane
};

/// A horizontal slice of some volume's tensor, tagged with the image it
/// belongs to. Used by kScatter, kHaloRows, and kGather. `from_node` and
/// `chunk_id` are the reliability handles: a chunk with chunk_id > 0 asks
/// the receiver to ack it back to {from_node, kCtrlMailbox} and to drop
/// repeats of the same (from_node, chunk_id). Ids count up gaplessly per
/// sender->receiver link, so a receiver's dedup watermark keeps advancing.
struct ChunkMsg {
  MsgType type = MsgType::kHaloRows;
  std::int32_t seq = 0;
  std::int32_t volume = 0;
  std::int32_t row_offset = 0;
  NodeId from_node = kNilNode;
  std::uint32_t chunk_id = 0;
  std::int32_t epoch = 0;   ///< strategy epoch of the chunk's image
  std::int32_t stream = 0;  ///< serving stream (tenant) of the image
  cnn::Tensor rows;
};

/// Pull request for rows [begin, end) of volume `volume`'s input; the
/// holder answers with a kHaloRows chunk addressed to `from_node`.
struct HaloRequestMsg {
  std::int32_t seq = 0;
  std::int32_t volume = 0;
  std::int32_t begin = 0;
  std::int32_t end = 0;
  NodeId from_node = kNilNode;
};

/// "Chunk `chunk_id` from you reached me" — sent to the original sender's
/// control mailbox; the sender stops retransmitting it.
struct AckMsg {
  NodeId from_node = kNilNode;  ///< the acker
  std::uint32_t chunk_id = 0;
};

/// "I am still waiting on input chunks for (seq, volume)" — broadcast to
/// peers' control mailboxes after a receive timeout; holders of unacked
/// chunks destined to `from_node` retransmit immediately.
struct NackMsg {
  NodeId from_node = kNilNode;  ///< the complainer
  std::int32_t seq = 0;
  std::int32_t volume = 0;
};

/// One link's achieved throughput over a telemetry window, as observed by
/// the sending endpoint (ctrl-plane ground truth for the online planner).
struct LinkRateSample {
  NodeId peer = kNilNode;
  double mbps = 0;    ///< achieved megabits per second while the link was busy
  double mbytes = 0;  ///< megabytes moved in the window (sample weight)
};

/// Periodic control-plane report from one node: per-link achieved rates
/// plus the node's mean per-image compute time over the window. Published
/// fire-and-forget to the controller's kTelemetryMailbox — a lost frame
/// just widens the next window.
struct TelemetryMsg {
  NodeId from_node = kNilNode;
  double window_s = 0;     ///< wall seconds the report covers
  double compute_ms = 0;   ///< mean per-image compute in the window (0 = idle)
  std::int32_t images = 0; ///< images finished in the window
  /// Sender's node-local steady clock (micros) at publish time. Paired
  /// with the receiver's local clock at ingest, it bounds the inter-node
  /// clock offset to the one-way delivery delay — the raw material for
  /// merging per-node traces onto one timeline (obs::ClockSyncBook).
  std::int64_t steady_now_us = 0;
  std::vector<LinkRateSample> links;
};

/// "From image `from_seq` on, serve strategy epoch `epoch`" — the zero-drain
/// cutover frame. Sent by the requester to every provider *before* any
/// epoch-`epoch` chunk, on the data mailbox (per-sender FIFO makes the order
/// visible); with reliability enabled it is tracked/acked exactly like a
/// tensor chunk. The strategy travels as plain volumes + cumulative cuts
/// (the sim::RawStrategy fields) so rpc stays independent of the simulator.
struct ReconfigureMsg {
  NodeId from_node = kNilNode;   ///< sender (kNilNode when untracked)
  std::uint32_t chunk_id = 0;    ///< reliability handle (0 = untracked)
  std::int32_t epoch = 0;        ///< new epoch id (monotonic, >= 0)
  std::int32_t from_seq = 0;     ///< first image served under the new epoch
  std::int32_t stream = 0;       ///< epoch lane the swap applies to
  std::int32_t model_id = 0;     ///< tenant model the lane serves
  std::int32_t n_devices = 0;
  std::vector<cnn::LayerVolume> volumes;
  std::vector<std::vector<int>> cuts;  ///< one (n_devices+1) vector per volume
};

/// Client -> front door: open a serving stream. The door dials back to the
/// client's listener (`listen_port` on the connection's source host) to
/// deliver the kStreamAccept/kStreamReject answer and, later, output rows —
/// TcpTransport connections are unidirectional, so a session is one
/// client->door link plus one door->client link.
struct StreamHelloMsg {
  std::uint32_t listen_port = 0;  ///< client's dial-back TCP port
  std::int32_t model_id = 0;      ///< tenant model index on the fleet
  std::int32_t window = 0;        ///< requested in-flight window (0 = default)
};

/// Door -> client: the stream is admitted. `stream` tags every subsequent
/// frame in both directions; `window` is the granted in-flight cap.
struct StreamAcceptMsg {
  std::int32_t stream = 0;
  std::int32_t window = 0;
};

/// Door -> client: admission refused.
struct StreamRejectMsg {
  enum Reason : std::int32_t {
    kBusy = 1,          ///< stream cap reached
    kUnknownModel = 2,  ///< model_id outside the fleet's tenant set
    kBadRequest = 3,    ///< malformed hello fields
  };
  std::int32_t reason = kBadRequest;
};

/// Either direction: no more images on `stream` (client done, or the door
/// is evicting the tenant). Outputs already in flight still drain.
struct StreamCloseMsg {
  std::int32_t stream = 0;
};

/// Front end -> provider: "global fleet image `seq` belongs to stream
/// `stream` and is served under that lane's epoch `epoch`". Broadcast on the
/// data mailbox before the image's kScatter chunks (per-sender FIFO makes
/// the order visible); with reliability enabled it is tracked/acked exactly
/// like a tensor chunk. Providers process images strictly in global-seq
/// order, so a dispatch announcement is what lets them resolve which
/// tenant's lane (model, plan, epoch table) image `seq` uses.
struct DispatchMsg {
  NodeId from_node = kNilNode;  ///< sender (kNilNode when untracked)
  std::uint32_t chunk_id = 0;   ///< reliability handle (0 = untracked)
  std::int32_t stream = 0;
  std::int32_t seq = 0;   ///< global fleet sequence number
  std::int32_t epoch = 0; ///< the lane epoch the image is served under
};

/// Node -> controller: "I am alive". Published fire-and-forget on the
/// controller's kTelemetryMailbox at a fixed period; each arrival renews the
/// sender's lease in the TelemetryBook. `hb_seq` counts up per sender so a
/// delayed/reordered heartbeat can never renew a lease the sender has since
/// let lapse; `steady_now_us` pairs with the receiver's arrival clock to
/// bound clock skew (ClockSyncBook), but lease expiry itself is judged on
/// receiver arrival time and is therefore skew-immune.
struct HeartbeatMsg {
  NodeId from_node = kNilNode;
  std::uint32_t hb_seq = 0;        ///< per-sender monotone heartbeat counter
  std::int64_t steady_now_us = 0;  ///< sender's steady clock at publish
};

/// One adopted joiner inside a membership change. `id_base` is the joiner's
/// new outgoing chunk-id incarnation base: every peer fast-forwards its
/// dedup watermark for `node` to `id_base` so the (restarted) joiner's fresh
/// ids are never mistaken for replays of its previous life, and the joiner
/// itself restarts its outgoing ids above the base. Bases strictly increase
/// per adoption, which also makes re-applied (retransmitted) membership
/// frames idempotent on the joiner.
struct MembershipJoin {
  NodeId node = kNilNode;
  std::uint32_t id_base = 0;
};

/// Requester -> provider: the fleet changed. Sent on the data mailbox ahead
/// of the recovery kReconfigure (per-sender FIFO makes the order visible);
/// with reliability enabled it is tracked/acked exactly like a tensor chunk.
/// Receivers drop all state for images with seq < cancel_below (they will be
/// re-dispatched under fresh seqs >= resume_seq), mark `died` nodes inactive
/// (no halo pulls, no nacks toward them), and adopt `joined` nodes at the
/// next epoch boundary.
struct MembershipMsg {
  NodeId from_node = kNilNode;   ///< sender (kNilNode when untracked)
  std::uint32_t chunk_id = 0;    ///< reliability handle (0 = untracked)
  std::int32_t cancel_below = 0; ///< images below this global seq are void
  std::int32_t resume_seq = 0;   ///< first seq dispatched after the change
  std::vector<NodeId> died;
  std::vector<MembershipJoin> joined;
};

/// Requester -> provider: stream `stream` is closed and drained below
/// `below_seq`; evict its epoch lane (schedules, owner rows, epoch history).
/// A provider whose cursor has not yet passed `below_seq` defers the
/// eviction until it has — per-sender FIFO means no later frame can revive
/// the lane. Bounds the epoch history a long-idle or departed tenant pins.
struct LaneEvictMsg {
  NodeId from_node = kNilNode;  ///< sender (kNilNode when untracked)
  std::uint32_t chunk_id = 0;   ///< reliability handle (0 = untracked)
  std::int32_t stream = 0;
  std::int32_t below_seq = 0;
};

/// Borrowed decode of a tensor-chunk frame: every header field plus a
/// pointer to the row payload *inside* the frame bytes — no allocation and
/// no copy. Validation is identical to decode_chunk (which is implemented
/// on top of this view, so the two can never disagree). The view is valid
/// only while the frame bytes it was decoded from stay alive; a Frame's
/// buffer is stable across moves and refcount shares, so stashing
/// {Frame, ChunkView} pairs is safe.
struct ChunkView {
  MsgType type = MsgType::kHaloRows;
  std::int32_t seq = 0;
  std::int32_t volume = 0;
  std::int32_t row_offset = 0;
  NodeId from_node = kNilNode;
  std::uint32_t chunk_id = 0;
  std::int32_t epoch = 0;
  std::int32_t stream = 0;
  std::int32_t h = 0;
  std::int32_t w = 0;
  std::int32_t c = 0;
  const std::uint8_t* payload = nullptr;  ///< h*w*c little-endian f32

  std::size_t payload_bytes() const {
    return static_cast<std::size_t>(h) * static_cast<std::size_t>(w) *
           static_cast<std::size_t>(c) * 4;
  }
  /// Materializes the rows as an owning tensor (one copy; legacy path and
  /// tests — the zero-copy path blits with copy_rows_to instead).
  cnn::Tensor to_tensor() const;
};

/// Header peek without decoding the body; throws on bad magic/version.
MsgType peek_type(std::span<const std::uint8_t> frame);

/// True for the tensor-carrying types (kScatter/kHaloRows/kGather) — the
/// frames decode_chunk accepts.
bool is_chunk_type(MsgType t);

Payload encode_chunk(const ChunkMsg& msg);
Payload encode_halo_request(const HaloRequestMsg& msg);
Payload encode_shutdown();
Payload encode_ack(const AckMsg& msg);
Payload encode_nack(const NackMsg& msg);
Payload encode_telemetry(const TelemetryMsg& msg);
Payload encode_reconfigure(const ReconfigureMsg& msg);
Payload encode_stream_hello(const StreamHelloMsg& msg);
Payload encode_stream_accept(const StreamAcceptMsg& msg);
Payload encode_stream_reject(const StreamRejectMsg& msg);
Payload encode_stream_close(const StreamCloseMsg& msg);
Payload encode_dispatch(const DispatchMsg& msg);
Payload encode_heartbeat(const HeartbeatMsg& msg);
Payload encode_membership(const MembershipMsg& msg);
Payload encode_lane_evict(const LaneEvictMsg& msg);

/// Zero-copy chunk encode: writes into `frame`'s (reusable) buffer the
/// exact bytes encode_chunk would produce for a ChunkMsg carrying absolute
/// rows [rows.begin, rows.end) of `src` (whose row 0 is absolute row
/// `src_offset`, and whose wire row_offset becomes rows.begin) — one header
/// write plus one contiguous row-range copy, no sliced temporary tensor.
/// Returns the payload byte count (the frame is header + payload).
std::size_t encode_chunk_into(Frame& frame, MsgType type, std::int32_t seq,
                              std::int32_t volume, NodeId from_node,
                              std::uint32_t chunk_id, std::int32_t epoch,
                              std::int32_t stream, const cnn::Tensor& src,
                              int src_offset, cnn::RowInterval rows);

ChunkMsg decode_chunk(std::span<const std::uint8_t> frame);
ChunkView decode_chunk_view(std::span<const std::uint8_t> frame);
HaloRequestMsg decode_halo_request(std::span<const std::uint8_t> frame);
AckMsg decode_ack(std::span<const std::uint8_t> frame);
NackMsg decode_nack(std::span<const std::uint8_t> frame);
TelemetryMsg decode_telemetry(std::span<const std::uint8_t> frame);
ReconfigureMsg decode_reconfigure(std::span<const std::uint8_t> frame);
StreamHelloMsg decode_stream_hello(std::span<const std::uint8_t> frame);
StreamAcceptMsg decode_stream_accept(std::span<const std::uint8_t> frame);
StreamRejectMsg decode_stream_reject(std::span<const std::uint8_t> frame);
StreamCloseMsg decode_stream_close(std::span<const std::uint8_t> frame);
DispatchMsg decode_dispatch(std::span<const std::uint8_t> frame);
HeartbeatMsg decode_heartbeat(std::span<const std::uint8_t> frame);
MembershipMsg decode_membership(std::span<const std::uint8_t> frame);
LaneEvictMsg decode_lane_evict(std::span<const std::uint8_t> frame);

/// Blits the view's absolute rows [src_begin, src_end) straight from the
/// wire bytes into `dst`, whose row 0 is absolute row `dst_offset` —
/// bit-exact with materializing a tensor and copying, minus that tensor.
void copy_rows_to(const ChunkView& view, int src_begin, int src_end,
                  cnn::Tensor& dst, int dst_offset);

}  // namespace de::rpc
