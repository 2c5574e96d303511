// Conformance suite of the zero-copy chunk codec: encode_chunk_into must
// produce byte-identical frames to the legacy tensor-slicing encode_chunk,
// and decode_chunk_view must agree field-for-field and float-for-float with
// the owning decode_chunk — over fuzzed geometries, tracked and untracked
// frames, and recycled arena buffers. The whole zero-copy invariant of the
// data plane rests on these equivalences: if they hold, swapping the
// copying path for the borrowing one cannot change a single wire byte or
// blitted float.
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "rpc/frame.hpp"
#include "rpc/wire.hpp"
#include "runtime/transfer_plan.hpp"

namespace de::rpc {
namespace {

cnn::Tensor random_tensor(int h, int w, int c, Rng& rng) {
  cnn::Tensor t(h, w, c);
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

MsgType chunk_type(int k) {
  switch (k % 3) {
    case 0: return MsgType::kScatter;
    case 1: return MsgType::kHaloRows;
    default: return MsgType::kGather;
  }
}

TEST(ZeroCopyWire, EncodeIntoMatchesLegacyBytesFuzzed) {
  Rng rng(2024);
  FrameArena arena;
  for (int iter = 0; iter < 200; ++iter) {
    const int h = rng.uniform_int(1, 12);
    const int w = rng.uniform_int(1, 9);
    const int c = rng.uniform_int(1, 7);
    const int src_offset = rng.uniform_int(0, 50);
    const auto src = random_tensor(h, w, c, rng);
    const int begin = src_offset + rng.uniform_int(0, h - 1);
    const int end = begin + rng.uniform_int(1, src_offset + h - begin);
    const cnn::RowInterval rows{begin, end};
    const bool tracked = rng.uniform_int(0, 1) == 1;
    const NodeId from = tracked ? rng.uniform_int(0, 5) : kNilNode;
    const std::uint32_t id =
        tracked ? static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20)) : 0;

    ChunkMsg msg;
    msg.type = chunk_type(iter);
    msg.seq = rng.uniform_int(0, 1000);
    msg.volume = rng.uniform_int(0, 8);
    msg.row_offset = rows.begin;
    msg.from_node = from;
    msg.chunk_id = id;
    msg.epoch = rng.uniform_int(0, 9);
    msg.stream = rng.uniform_int(0, 6);
    msg.rows = runtime::slice_rows(src, src_offset, rows.begin, rows.end);
    const Payload legacy = encode_chunk(msg);

    Frame frame = arena.acquire();  // recycled across iterations on purpose
    const std::size_t payload_bytes =
        encode_chunk_into(frame, msg.type, msg.seq, msg.volume, from, id,
                          msg.epoch, msg.stream, src, src_offset, rows);
    EXPECT_EQ(payload_bytes, msg.rows.size() * 4);
    ASSERT_EQ(frame.size(), legacy.size());
    EXPECT_TRUE(frame == legacy) << "iter " << iter;
  }
}

TEST(ZeroCopyWire, ViewAgreesWithOwningDecodeFuzzed) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    ChunkMsg msg;
    msg.type = chunk_type(iter);
    msg.seq = rng.uniform_int(0, 100);
    msg.volume = rng.uniform_int(0, 5);
    msg.row_offset = rng.uniform_int(0, 40);
    msg.rows = random_tensor(rng.uniform_int(1, 10), rng.uniform_int(1, 8),
                             rng.uniform_int(1, 6), rng);
    if (rng.uniform_int(0, 1) == 1) {
      msg.from_node = rng.uniform_int(0, 4);
      msg.chunk_id = static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
    }
    msg.epoch = rng.uniform_int(0, 5);
    msg.stream = rng.uniform_int(0, 5);
    const Payload frame = encode_chunk(msg);

    const ChunkMsg owning = decode_chunk(frame);
    const ChunkView view = decode_chunk_view(frame);
    EXPECT_EQ(view.type, owning.type);
    EXPECT_EQ(view.seq, owning.seq);
    EXPECT_EQ(view.volume, owning.volume);
    EXPECT_EQ(view.row_offset, owning.row_offset);
    EXPECT_EQ(view.from_node, owning.from_node);
    EXPECT_EQ(view.chunk_id, owning.chunk_id);
    EXPECT_EQ(view.epoch, owning.epoch);
    EXPECT_EQ(view.epoch, msg.epoch);
    EXPECT_EQ(view.stream, owning.stream);
    EXPECT_EQ(view.stream, msg.stream);
    EXPECT_EQ(view.h, owning.rows.h);
    EXPECT_EQ(view.w, owning.rows.w);
    EXPECT_EQ(view.c, owning.rows.c);
    ASSERT_EQ(view.payload_bytes(), owning.rows.size() * 4);
    const cnn::Tensor materialized = view.to_tensor();
    EXPECT_EQ(materialized.data, owning.rows.data);
  }
}

TEST(ZeroCopyWire, CopyRowsToMatchesMaterializedBlit) {
  Rng rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    const int h = rng.uniform_int(2, 10);
    const int w = rng.uniform_int(1, 6);
    const int c = rng.uniform_int(1, 5);
    ChunkMsg msg;
    msg.row_offset = rng.uniform_int(0, 20);
    msg.rows = random_tensor(h, w, c, rng);
    const Payload frame = encode_chunk(msg);
    const ChunkView view = decode_chunk_view(frame);

    // A destination strictly larger than the chunk, with its own offset.
    const int dst_offset = rng.uniform_int(0, msg.row_offset);
    const int dst_h = (msg.row_offset - dst_offset) + h + rng.uniform_int(0, 4);
    const int begin = msg.row_offset + rng.uniform_int(0, h - 1);
    const int end = begin + rng.uniform_int(1, msg.row_offset + h - begin);

    cnn::Tensor via_view(dst_h, w, c);
    copy_rows_to(view, begin, end, via_view, dst_offset);

    cnn::Tensor via_tensor(dst_h, w, c);
    runtime::blit_rows(msg.rows, msg.row_offset, begin, end, via_tensor,
                       dst_offset);
    EXPECT_EQ(via_view.data, via_tensor.data) << "iter " << iter;
  }
}

TEST(ZeroCopyWire, EncodeIntoRejectsBadRanges) {
  Rng rng(1);
  const auto src = random_tensor(4, 3, 2, rng);
  Frame frame;
  // Empty range.
  EXPECT_THROW(encode_chunk_into(frame, MsgType::kGather, 0, 0, kNilNode, 0, 0,
                                 0, src, 10, cnn::RowInterval{12, 12}),
               Error);
  // Range outside the tensor.
  EXPECT_THROW(encode_chunk_into(frame, MsgType::kGather, 0, 0, kNilNode, 0, 0,
                                 0, src, 10, cnn::RowInterval{9, 12}),
               Error);
  EXPECT_THROW(encode_chunk_into(frame, MsgType::kGather, 0, 0, kNilNode, 0, 0,
                                 0, src, 10, cnn::RowInterval{12, 15}),
               Error);
  // Non-chunk type.
  EXPECT_THROW(encode_chunk_into(frame, MsgType::kAck, 0, 0, kNilNode, 0, 0,
                                 0, src, 10, cnn::RowInterval{10, 12}),
               Error);
}

TEST(ZeroCopyWire, ViewRejectsTruncatedAndTrailingBytes) {
  Rng rng(3);
  ChunkMsg msg;
  msg.rows = random_tensor(2, 3, 2, rng);
  Payload frame = encode_chunk(msg);
  for (const std::size_t cut : {frame.size() - 1, frame.size() - 5,
                                std::size_t{12}, std::size_t{0}}) {
    const Payload truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_chunk_view(truncated), Error);
  }
  frame.push_back(0);  // trailing garbage disagrees with the extents
  EXPECT_THROW(decode_chunk_view(frame), Error);
}

}  // namespace
}  // namespace de::rpc
