#include "rpc/wire.hpp"

#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "core/serialize.hpp"

namespace de::rpc {

namespace {

void write_header(core::ByteWriter& w, MsgType type) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
}

/// Every node is built from one tree, so there is one wire version: a
/// frame of any other version is malformed.
MsgType read_header(core::ByteReader& r) {
  DE_REQUIRE(r.u32() == kWireMagic, "wire: bad magic");
  DE_REQUIRE(r.u16() == kWireVersion, "wire: unsupported version");
  const auto raw = r.u16();
  DE_REQUIRE(raw >= static_cast<std::uint16_t>(MsgType::kScatter) &&
                 raw <= static_cast<std::uint16_t>(MsgType::kLaneEvict),
             "wire: unknown message type");
  return static_cast<MsgType>(raw);
}

}  // namespace

bool is_chunk_type(MsgType t) {
  return t == MsgType::kScatter || t == MsgType::kHaloRows ||
         t == MsgType::kGather;
}

MsgType peek_type(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  return read_header(r);
}

namespace {

void encode_chunk_body(core::ByteWriter& w, MsgType type, std::int32_t seq,
                       std::int32_t volume, std::int32_t row_offset,
                       NodeId from_node, std::uint32_t chunk_id,
                       std::int32_t epoch, std::int32_t stream, std::int32_t h,
                       std::int32_t ww, std::int32_t c,
                       std::span<const float> rows) {
  write_header(w, type);
  w.i32(seq);
  w.i32(volume);
  w.i32(row_offset);
  w.i32(from_node);
  w.u32(chunk_id);
  w.i32(epoch);
  w.i32(stream);
  w.i32(h);
  w.i32(ww);
  w.i32(c);
  w.f32_span(rows);
}

}  // namespace

Payload encode_chunk(const ChunkMsg& msg) {
  DE_REQUIRE(is_chunk_type(msg.type), "wire: not a chunk message type");
  DE_REQUIRE(msg.rows.size() ==
                 static_cast<std::size_t>(msg.rows.h) *
                     static_cast<std::size_t>(msg.rows.w) *
                     static_cast<std::size_t>(msg.rows.c),
             "wire: tensor extents disagree with data size");
  core::ByteWriter w;
  encode_chunk_body(w, msg.type, msg.seq, msg.volume, msg.row_offset,
                    msg.from_node, msg.chunk_id, msg.epoch, msg.stream,
                    msg.rows.h, msg.rows.w, msg.rows.c, msg.rows.data);
  return w.take();
}

std::size_t encode_chunk_into(Frame& frame, MsgType type, std::int32_t seq,
                              std::int32_t volume, NodeId from_node,
                              std::uint32_t chunk_id, std::int32_t epoch,
                              std::int32_t stream, const cnn::Tensor& src,
                              int src_offset, cnn::RowInterval rows) {
  DE_REQUIRE(is_chunk_type(type), "wire: not a chunk message type");
  DE_REQUIRE(!rows.empty(), "wire: empty row range");
  DE_REQUIRE(rows.begin >= src_offset && rows.end - src_offset <= src.h,
             "wire: row range outside the source tensor");
  const std::size_t row_floats =
      static_cast<std::size_t>(src.w) * static_cast<std::size_t>(src.c);
  const std::span<const float> payload(
      src.data.data() +
          static_cast<std::size_t>(rows.begin - src_offset) * row_floats,
      static_cast<std::size_t>(rows.size()) * row_floats);
  Payload& bytes = frame.bytes();
  bytes.clear();
  core::ByteWriter w(bytes);
  encode_chunk_body(w, type, seq, volume, rows.begin, from_node, chunk_id,
                    epoch, stream, rows.size(), src.w, src.c, payload);
  return payload.size() * 4;
}

Payload encode_halo_request(const HaloRequestMsg& msg) {
  core::ByteWriter w;
  write_header(w, MsgType::kHaloRequest);
  w.i32(msg.seq);
  w.i32(msg.volume);
  w.i32(msg.begin);
  w.i32(msg.end);
  w.i32(msg.from_node);
  return w.take();
}

Payload encode_shutdown() {
  core::ByteWriter w;
  write_header(w, MsgType::kShutdown);
  return w.take();
}

Payload encode_ack(const AckMsg& msg) {
  core::ByteWriter w;
  write_header(w, MsgType::kAck);
  w.i32(msg.from_node);
  w.u32(msg.chunk_id);
  return w.take();
}

Payload encode_nack(const NackMsg& msg) {
  core::ByteWriter w;
  write_header(w, MsgType::kNack);
  w.i32(msg.from_node);
  w.i32(msg.seq);
  w.i32(msg.volume);
  return w.take();
}

ChunkView decode_chunk_view(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  ChunkView view;
  view.type = read_header(r);
  DE_REQUIRE(is_chunk_type(view.type), "wire: frame is not a tensor chunk");
  view.seq = r.i32();
  view.volume = r.i32();
  view.row_offset = r.i32();
  view.from_node = r.i32();
  view.chunk_id = r.u32();
  DE_REQUIRE(view.from_node >= kNilNode, "wire: malformed chunk sender");
  DE_REQUIRE(view.chunk_id == 0 || view.from_node != kNilNode,
             "wire: tracked chunk without a sender");
  view.epoch = r.i32();
  DE_REQUIRE(view.epoch >= 0, "wire: negative chunk epoch");
  view.stream = r.i32();
  DE_REQUIRE(view.stream >= 0, "wire: negative chunk stream");
  view.h = r.i32();
  view.w = r.i32();
  view.c = r.i32();
  DE_REQUIRE(view.seq >= 0 && view.volume >= 0 && view.row_offset >= 0,
             "wire: negative chunk coordinates");
  DE_REQUIRE(view.h > 0 && view.w > 0 && view.c > 0,
             "wire: non-positive tensor extents");
  // Overflow-safe product: bound h*w before multiplying in c, so a crafted
  // triple whose full product wraps mod 2^64 (e.g. 2^21 * 2^21 * 2^22)
  // cannot slip past the cap as a tiny wrapped value.
  constexpr std::size_t kMaxElems =
      std::numeric_limits<std::int32_t>::max() / 4;
  const std::size_t plane =
      static_cast<std::size_t>(view.h) * static_cast<std::size_t>(view.w);
  DE_REQUIRE(plane <= kMaxElems, "wire: tensor extents overflow");
  const std::size_t elems = plane * static_cast<std::size_t>(view.c);
  DE_REQUIRE(elems <= kMaxElems, "wire: tensor extents overflow");
  // Size check before anyone allocates for this frame: a frame claiming
  // huge extents is rejected here, so hostile input can never drive a huge
  // allocation downstream.
  DE_REQUIRE(r.remaining() == elems * 4,
             "wire: payload size disagrees with tensor extents");
  view.payload = frame.data() + (frame.size() - r.remaining());
  return view;
}

cnn::Tensor ChunkView::to_tensor() const {
  cnn::Tensor rows(h, w, c);
  core::ByteReader r(std::span<const std::uint8_t>(payload, payload_bytes()));
  r.f32_span(rows.data);
  return rows;
}

ChunkMsg decode_chunk(std::span<const std::uint8_t> frame) {
  const ChunkView view = decode_chunk_view(frame);
  ChunkMsg msg;
  msg.type = view.type;
  msg.seq = view.seq;
  msg.volume = view.volume;
  msg.row_offset = view.row_offset;
  msg.from_node = view.from_node;
  msg.chunk_id = view.chunk_id;
  msg.epoch = view.epoch;
  msg.stream = view.stream;
  msg.rows = view.to_tensor();
  return msg;
}

void copy_rows_to(const ChunkView& view, int src_begin, int src_end,
                  cnn::Tensor& dst, int dst_offset) {
  DE_ASSERT(dst.w == view.w && dst.c == view.c, "wire blit extent mismatch");
  DE_ASSERT(src_begin >= view.row_offset &&
                src_end <= view.row_offset + view.h &&
                src_begin - dst_offset >= 0 &&
                src_end - dst_offset <= dst.h,
            "wire blit row range out of bounds");
  const std::size_t row_floats =
      static_cast<std::size_t>(view.w) * static_cast<std::size_t>(view.c);
  const std::uint8_t* src =
      view.payload +
      static_cast<std::size_t>(src_begin - view.row_offset) * row_floats * 4;
  core::ByteReader r(std::span<const std::uint8_t>(
      src, static_cast<std::size_t>(src_end - src_begin) * row_floats * 4));
  r.f32_span(std::span<float>(
      dst.data.data() +
          static_cast<std::size_t>(src_begin - dst_offset) * row_floats,
      static_cast<std::size_t>(src_end - src_begin) * row_floats));
}

HaloRequestMsg decode_halo_request(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kHaloRequest,
             "wire: frame is not a halo request");
  HaloRequestMsg msg;
  msg.seq = r.i32();
  msg.volume = r.i32();
  msg.begin = r.i32();
  msg.end = r.i32();
  msg.from_node = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after halo request");
  DE_REQUIRE(msg.seq >= 0 && msg.volume >= 0 && msg.begin >= 0 &&
                 msg.end >= msg.begin && msg.from_node >= 0,
             "wire: malformed halo request fields");
  return msg;
}

AckMsg decode_ack(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kAck,
             "wire: frame is not an ack");
  AckMsg msg;
  msg.from_node = r.i32();
  msg.chunk_id = r.u32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after ack");
  DE_REQUIRE(msg.from_node >= 0 && msg.chunk_id > 0,
             "wire: malformed ack fields");
  return msg;
}

Payload encode_telemetry(const TelemetryMsg& msg) {
  core::ByteWriter w;
  write_header(w, MsgType::kTelemetry);
  w.i32(msg.from_node);
  w.f32(static_cast<float>(msg.window_s));
  w.f32(static_cast<float>(msg.compute_ms));
  w.i32(msg.images);
  w.i64(msg.steady_now_us);
  w.i32(static_cast<std::int32_t>(msg.links.size()));
  for (const auto& link : msg.links) {
    w.i32(link.peer);
    w.f32(static_cast<float>(link.mbps));
    w.f32(static_cast<float>(link.mbytes));
  }
  return w.take();
}

TelemetryMsg decode_telemetry(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kTelemetry,
             "wire: frame is not a telemetry report");
  TelemetryMsg msg;
  msg.from_node = r.i32();
  msg.window_s = r.f32();
  msg.compute_ms = r.f32();
  msg.images = r.i32();
  msg.steady_now_us = r.i64();
  const std::int32_t n_links = r.i32();
  // NaN fails the >= 0 comparisons on its own; infinities need the
  // explicit check — an Inf rate would poison every EWMA it touches.
  DE_REQUIRE(msg.from_node >= 0 && msg.window_s >= 0 && msg.compute_ms >= 0 &&
                 msg.images >= 0 && msg.steady_now_us >= 0 && n_links >= 0 &&
                 std::isfinite(msg.window_s) && std::isfinite(msg.compute_ms),
             "wire: malformed telemetry fields");
  // Length cross-check before the vector allocation: a hostile link count
  // cannot drive a huge speculative reserve.
  DE_REQUIRE(r.remaining() == static_cast<std::size_t>(n_links) * 12,
             "wire: telemetry size disagrees with link count");
  msg.links.reserve(static_cast<std::size_t>(n_links));
  for (std::int32_t k = 0; k < n_links; ++k) {
    LinkRateSample link;
    link.peer = r.i32();
    link.mbps = r.f32();
    link.mbytes = r.f32();
    DE_REQUIRE(link.peer >= 0 && link.mbps >= 0 && link.mbytes >= 0 &&
                   std::isfinite(link.mbps) && std::isfinite(link.mbytes),
               "wire: malformed telemetry link sample");
    msg.links.push_back(link);
  }
  return msg;
}

Payload encode_reconfigure(const ReconfigureMsg& msg) {
  DE_REQUIRE(msg.epoch >= 0 && msg.from_seq >= 0 && msg.n_devices >= 1,
             "wire: malformed reconfigure message");
  DE_REQUIRE(msg.stream >= 0, "wire: negative reconfigure stream");
  DE_REQUIRE(msg.model_id >= 0, "wire: negative reconfigure model id");
  DE_REQUIRE(!msg.volumes.empty() && msg.volumes.size() == msg.cuts.size(),
             "wire: reconfigure volume/cut counts disagree");
  core::ByteWriter w;
  write_header(w, MsgType::kReconfigure);
  w.i32(msg.from_node);
  w.u32(msg.chunk_id);
  w.i32(msg.epoch);
  w.i32(msg.from_seq);
  w.i32(msg.stream);
  w.i32(msg.model_id);
  w.i32(msg.n_devices);
  w.i32(static_cast<std::int32_t>(msg.volumes.size()));
  for (std::size_t l = 0; l < msg.volumes.size(); ++l) {
    DE_REQUIRE(msg.cuts[l].size() ==
                   static_cast<std::size_t>(msg.n_devices) + 1,
               "wire: reconfigure cut vector has wrong arity");
    w.i32(msg.volumes[l].first);
    w.i32(msg.volumes[l].last);
    for (const int cut : msg.cuts[l]) w.i32(cut);
  }
  return w.take();
}

ReconfigureMsg decode_reconfigure(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kReconfigure,
             "wire: frame is not a reconfigure");
  ReconfigureMsg msg;
  msg.from_node = r.i32();
  msg.chunk_id = r.u32();
  msg.epoch = r.i32();
  msg.from_seq = r.i32();
  msg.stream = r.i32();
  msg.model_id = r.i32();
  msg.n_devices = r.i32();
  const std::int32_t n_volumes = r.i32();
  DE_REQUIRE(msg.from_node >= kNilNode, "wire: malformed reconfigure sender");
  DE_REQUIRE(msg.chunk_id == 0 || msg.from_node != kNilNode,
             "wire: tracked reconfigure without a sender");
  DE_REQUIRE(msg.epoch >= 0 && msg.from_seq >= 0, "wire: malformed epoch");
  DE_REQUIRE(msg.stream >= 0, "wire: negative reconfigure stream");
  DE_REQUIRE(msg.model_id >= 0, "wire: negative reconfigure model id");
  DE_REQUIRE(msg.n_devices >= 1 && msg.n_devices <= 1 << 16,
             "wire: hostile reconfigure device count");
  DE_REQUIRE(n_volumes >= 1 && n_volumes <= 1 << 16,
             "wire: hostile reconfigure volume count");
  // Exact length check before any per-volume allocation.
  const std::size_t per_volume =
      8 + 4 * (static_cast<std::size_t>(msg.n_devices) + 1);
  DE_REQUIRE(r.remaining() == static_cast<std::size_t>(n_volumes) * per_volume,
             "wire: reconfigure size disagrees with its counts");
  msg.volumes.reserve(static_cast<std::size_t>(n_volumes));
  msg.cuts.reserve(static_cast<std::size_t>(n_volumes));
  for (std::int32_t l = 0; l < n_volumes; ++l) {
    cnn::LayerVolume volume;
    volume.first = r.i32();
    volume.last = r.i32();
    DE_REQUIRE(volume.first >= 0 && volume.last > volume.first,
               "wire: malformed reconfigure volume");
    std::vector<int> cuts(static_cast<std::size_t>(msg.n_devices) + 1);
    for (auto& cut : cuts) {
      cut = r.i32();
      DE_REQUIRE(cut >= 0, "wire: negative reconfigure cut");
    }
    msg.volumes.push_back(volume);
    msg.cuts.push_back(std::move(cuts));
  }
  return msg;
}

Payload encode_stream_hello(const StreamHelloMsg& msg) {
  DE_REQUIRE(msg.listen_port >= 1 && msg.listen_port <= 65535,
             "wire: stream hello with no dial-back port");
  DE_REQUIRE(msg.model_id >= 0 && msg.window >= 0,
             "wire: malformed stream hello fields");
  core::ByteWriter w;
  write_header(w, MsgType::kStreamHello);
  w.u32(msg.listen_port);
  w.i32(msg.model_id);
  w.i32(msg.window);
  return w.take();
}

StreamHelloMsg decode_stream_hello(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kStreamHello,
             "wire: frame is not a stream hello");
  StreamHelloMsg msg;
  msg.listen_port = r.u32();
  msg.model_id = r.i32();
  msg.window = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after stream hello");
  DE_REQUIRE(msg.listen_port >= 1 && msg.listen_port <= 65535,
             "wire: stream hello with no dial-back port");
  DE_REQUIRE(msg.model_id >= 0 && msg.window >= 0,
             "wire: malformed stream hello fields");
  return msg;
}

Payload encode_stream_accept(const StreamAcceptMsg& msg) {
  DE_REQUIRE(msg.stream >= 0 && msg.window >= 1,
             "wire: malformed stream accept fields");
  core::ByteWriter w;
  write_header(w, MsgType::kStreamAccept);
  w.i32(msg.stream);
  w.i32(msg.window);
  return w.take();
}

StreamAcceptMsg decode_stream_accept(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kStreamAccept,
             "wire: frame is not a stream accept");
  StreamAcceptMsg msg;
  msg.stream = r.i32();
  msg.window = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after stream accept");
  DE_REQUIRE(msg.stream >= 0 && msg.window >= 1,
             "wire: malformed stream accept fields");
  return msg;
}

Payload encode_stream_reject(const StreamRejectMsg& msg) {
  DE_REQUIRE(msg.reason >= StreamRejectMsg::kBusy &&
                 msg.reason <= StreamRejectMsg::kBadRequest,
             "wire: unknown stream reject reason");
  core::ByteWriter w;
  write_header(w, MsgType::kStreamReject);
  w.i32(msg.reason);
  return w.take();
}

StreamRejectMsg decode_stream_reject(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kStreamReject,
             "wire: frame is not a stream reject");
  StreamRejectMsg msg;
  msg.reason = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after stream reject");
  DE_REQUIRE(msg.reason >= StreamRejectMsg::kBusy &&
                 msg.reason <= StreamRejectMsg::kBadRequest,
             "wire: unknown stream reject reason");
  return msg;
}

Payload encode_stream_close(const StreamCloseMsg& msg) {
  DE_REQUIRE(msg.stream >= 0, "wire: negative stream close id");
  core::ByteWriter w;
  write_header(w, MsgType::kStreamClose);
  w.i32(msg.stream);
  return w.take();
}

StreamCloseMsg decode_stream_close(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kStreamClose,
             "wire: frame is not a stream close");
  StreamCloseMsg msg;
  msg.stream = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after stream close");
  DE_REQUIRE(msg.stream >= 0, "wire: negative stream close id");
  return msg;
}

Payload encode_dispatch(const DispatchMsg& msg) {
  DE_REQUIRE(msg.stream >= 0 && msg.seq >= 0 && msg.epoch >= 0,
             "wire: malformed dispatch fields");
  core::ByteWriter w;
  write_header(w, MsgType::kDispatch);
  w.i32(msg.from_node);
  w.u32(msg.chunk_id);
  w.i32(msg.stream);
  w.i32(msg.seq);
  w.i32(msg.epoch);
  return w.take();
}

DispatchMsg decode_dispatch(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kDispatch,
             "wire: frame is not a dispatch");
  DispatchMsg msg;
  msg.from_node = r.i32();
  msg.chunk_id = r.u32();
  msg.stream = r.i32();
  msg.seq = r.i32();
  msg.epoch = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after dispatch");
  DE_REQUIRE(msg.from_node >= kNilNode, "wire: malformed dispatch sender");
  DE_REQUIRE(msg.chunk_id == 0 || msg.from_node != kNilNode,
             "wire: tracked dispatch without a sender");
  DE_REQUIRE(msg.stream >= 0 && msg.seq >= 0 && msg.epoch >= 0,
             "wire: malformed dispatch fields");
  return msg;
}

Payload encode_heartbeat(const HeartbeatMsg& msg) {
  DE_REQUIRE(msg.from_node >= 0, "wire: heartbeat needs a sender");
  DE_REQUIRE(msg.hb_seq > 0, "wire: heartbeat sequence starts at 1");
  DE_REQUIRE(msg.steady_now_us >= 0, "wire: negative heartbeat clock");
  core::ByteWriter w;
  write_header(w, MsgType::kHeartbeat);
  w.i32(msg.from_node);
  w.u32(msg.hb_seq);
  w.i64(msg.steady_now_us);
  return w.take();
}

HeartbeatMsg decode_heartbeat(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kHeartbeat,
             "wire: frame is not a heartbeat");
  HeartbeatMsg msg;
  msg.from_node = r.i32();
  msg.hb_seq = r.u32();
  msg.steady_now_us = r.i64();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after heartbeat");
  DE_REQUIRE(msg.from_node >= 0 && msg.hb_seq > 0 && msg.steady_now_us >= 0,
             "wire: malformed heartbeat fields");
  return msg;
}

Payload encode_membership(const MembershipMsg& msg) {
  DE_REQUIRE(msg.cancel_below >= 0 && msg.resume_seq >= msg.cancel_below,
             "wire: malformed membership watermarks");
  DE_REQUIRE(!msg.died.empty() || !msg.joined.empty(),
             "wire: membership change with no change");
  core::ByteWriter w;
  write_header(w, MsgType::kMembership);
  w.i32(msg.from_node);
  w.u32(msg.chunk_id);
  w.i32(msg.cancel_below);
  w.i32(msg.resume_seq);
  w.i32(static_cast<std::int32_t>(msg.died.size()));
  for (const NodeId node : msg.died) {
    DE_REQUIRE(node >= 0, "wire: negative dead node id");
    w.i32(node);
  }
  w.i32(static_cast<std::int32_t>(msg.joined.size()));
  for (const MembershipJoin& join : msg.joined) {
    DE_REQUIRE(join.node >= 0, "wire: negative joined node id");
    w.i32(join.node);
    w.u32(join.id_base);
  }
  return w.take();
}

MembershipMsg decode_membership(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kMembership,
             "wire: frame is not a membership change");
  MembershipMsg msg;
  msg.from_node = r.i32();
  msg.chunk_id = r.u32();
  msg.cancel_below = r.i32();
  msg.resume_seq = r.i32();
  const std::int32_t n_died = r.i32();
  DE_REQUIRE(msg.from_node >= kNilNode, "wire: malformed membership sender");
  DE_REQUIRE(msg.chunk_id == 0 || msg.from_node != kNilNode,
             "wire: tracked membership without a sender");
  DE_REQUIRE(msg.cancel_below >= 0 && msg.resume_seq >= msg.cancel_below,
             "wire: malformed membership watermarks");
  DE_REQUIRE(n_died >= 0 && n_died <= 1 << 16,
             "wire: hostile membership death count");
  // The joined count sits after the died array, so prove the died array fits
  // before walking it, then cross-check the joined length the same way —
  // never a speculative allocation off either claimed count.
  DE_REQUIRE(r.remaining() >= static_cast<std::size_t>(n_died) * 4 + 4,
             "wire: membership size disagrees with death count");
  msg.died.reserve(static_cast<std::size_t>(n_died));
  for (std::int32_t k = 0; k < n_died; ++k) {
    const NodeId node = r.i32();
    DE_REQUIRE(node >= 0, "wire: negative dead node id");
    msg.died.push_back(node);
  }
  const std::int32_t n_joined = r.i32();
  DE_REQUIRE(n_joined >= 0 && n_joined <= 1 << 16,
             "wire: hostile membership join count");
  DE_REQUIRE(r.remaining() == static_cast<std::size_t>(n_joined) * 8,
             "wire: membership size disagrees with join count");
  DE_REQUIRE(n_died > 0 || n_joined > 0,
             "wire: membership change with no change");
  msg.joined.reserve(static_cast<std::size_t>(n_joined));
  for (std::int32_t k = 0; k < n_joined; ++k) {
    MembershipJoin join;
    join.node = r.i32();
    join.id_base = r.u32();
    DE_REQUIRE(join.node >= 0, "wire: negative joined node id");
    msg.joined.push_back(join);
  }
  return msg;
}

Payload encode_lane_evict(const LaneEvictMsg& msg) {
  DE_REQUIRE(msg.stream >= 0 && msg.below_seq >= 0,
             "wire: malformed lane evict fields");
  core::ByteWriter w;
  write_header(w, MsgType::kLaneEvict);
  w.i32(msg.from_node);
  w.u32(msg.chunk_id);
  w.i32(msg.stream);
  w.i32(msg.below_seq);
  return w.take();
}

LaneEvictMsg decode_lane_evict(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kLaneEvict,
             "wire: frame is not a lane evict");
  LaneEvictMsg msg;
  msg.from_node = r.i32();
  msg.chunk_id = r.u32();
  msg.stream = r.i32();
  msg.below_seq = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after lane evict");
  DE_REQUIRE(msg.from_node >= kNilNode, "wire: malformed lane evict sender");
  DE_REQUIRE(msg.chunk_id == 0 || msg.from_node != kNilNode,
             "wire: tracked lane evict without a sender");
  DE_REQUIRE(msg.stream >= 0 && msg.below_seq >= 0,
             "wire: malformed lane evict fields");
  return msg;
}

NackMsg decode_nack(std::span<const std::uint8_t> frame) {
  core::ByteReader r(frame);
  DE_REQUIRE(read_header(r) == MsgType::kNack,
             "wire: frame is not a nack");
  NackMsg msg;
  msg.from_node = r.i32();
  msg.seq = r.i32();
  msg.volume = r.i32();
  DE_REQUIRE(r.exhausted(), "wire: trailing bytes after nack");
  DE_REQUIRE(msg.from_node >= 0 && msg.seq >= 0 && msg.volume >= 0,
             "wire: malformed nack fields");
  return msg;
}

}  // namespace de::rpc
