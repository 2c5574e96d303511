// Reference-oracle conformance suite for the fast execution engine: every
// tensor the fast path produces must be bit-identical (ASSERT_EQ on floats,
// no tolerance) to the reference scalar path — across every distinct conv
// layer configuration in the model zoo, across randomized layer geometries,
// across degenerate row bands (1-row intervals, boundary rows, slack crops),
// with and without ThreadPool tiling, for EVERY ISA dispatch target this
// host supports (generic / SSE2 / AVX2 / AVX-512), and with the fused
// conv→relu→maxpool epilogue on and off.
#include "cnn/exec_engine.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <string>

#include "cnn/exec_kernel.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/model.hpp"
#include "cnn/model_zoo.hpp"
#include "common/require.hpp"
#include "device/latency_model.hpp"

namespace de::cnn {
namespace {

Tensor random_tensor(int h, int w, int c, Rng& rng) {
  Tensor t(h, w, c);
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void expect_bitexact(const Tensor& got, const Tensor& want,
                     const std::string& what) {
  ASSERT_EQ(got.h, want.h) << what;
  ASSERT_EQ(got.w, want.w) << what;
  ASSERT_EQ(got.c, want.c) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.data[i], want.data[i])
        << what << " — flat index " << i << " of " << want.size();
  }
}

/// Runs one conv layer over `out_rows` with the minimal required crop (plus
/// `slack` extra leading rows) and checks fast == reference — serially and
/// tiled across `pool`, for every ISA dispatch target this host supports.
void check_conv_rows(const LayerConfig& l, RowInterval out_rows, Rng& rng,
                     ThreadPool* pool, const std::string& what,
                     int slack = 0) {
  const auto need = input_rows_for(l, out_rows);
  const int offset = std::max(0, need.begin - slack);
  // A band entirely inside the zero padding needs no input rows at all
  // (`need` is empty); a 1-row buffer still satisfies the coverage contract.
  const auto crop =
      random_tensor(std::max(1, need.end - offset), l.in_w, l.in_c, rng);
  const auto w = ConvWeights::random(l, rng);

  const auto ref = conv_forward_rows(l, crop, offset, out_rows, w);
  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    const auto fast = conv_forward_rows(l, crop, offset, out_rows, w, ctx);
    expect_bitexact(fast, ref,
                    what + " serial [" + to_string(isa) + "]");
    if (pool != nullptr) {
      ctx.pool = pool;
      const auto tiled = conv_forward_rows(l, crop, offset, out_rows, w, ctx);
      expect_bitexact(tiled, ref,
                      what + " tiled [" + to_string(isa) + "]");
    }
  }
}

/// Fused conv→pool epilogue over `out_rows` (pool rows) against the unfused
/// two-layer reference chain — per ISA, serial and tiled, plus the fast
/// unfused path (ctx.fuse_conv_pool = false) as a third witness.
void check_conv_pool_rows(const LayerConfig& conv, const LayerConfig& pool_l,
                          RowInterval out_rows, Rng& rng, ThreadPool* pool,
                          const std::string& what) {
  ASSERT_TRUE(can_fuse_conv_pool(conv, pool_l)) << what;
  const RowInterval conv_rows = input_rows_for(pool_l, out_rows);
  const auto need = input_rows_for(conv, conv_rows);
  const auto crop =
      random_tensor(std::max(1, need.size()), conv.in_w, conv.in_c, rng);
  const auto w = ConvWeights::random(conv, rng);

  const auto conv_ref =
      conv_forward_rows(conv, crop, need.begin, conv_rows, w);
  const auto ref =
      maxpool_forward_rows(pool_l, conv_ref, conv_rows.begin, out_rows);

  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    expect_bitexact(conv_pool_forward_rows(conv, pool_l, crop, need.begin,
                                           out_rows, w, ctx),
                    ref, what + " fused serial [" + to_string(isa) + "]");
    if (pool != nullptr) {
      ctx.pool = pool;
      expect_bitexact(conv_pool_forward_rows(conv, pool_l, crop, need.begin,
                                             out_rows, w, ctx),
                      ref, what + " fused tiled [" + to_string(isa) + "]");
    }
  }
  // The volume path with fusion disabled must agree too (same layers run as
  // two separate fast calls).
  const LayerConfig layers[] = {conv, pool_l};
  const ConvWeights wts[] = {w, ConvWeights{}};
  ExecContext unfused = ExecContext::fast(pool);
  unfused.fuse_conv_pool = false;
  expect_bitexact(volume_forward_rows(layers, crop, need.begin, out_rows, wts,
                                      unfused),
                  ref, what + " unfused volume");
  ExecContext fused = ExecContext::fast(pool);
  expect_bitexact(volume_forward_rows(layers, crop, need.begin, out_rows, wts,
                                      fused),
                  ref, what + " fused volume");
}

// Every distinct conv configuration that appears anywhere in the paper's
// eight-model zoo, exercised on a first-row band, a mid band, and a last-row
// band (the minimal crop of a band is the interesting case: the fast
// kernel's ky clamping and crop-offset arithmetic both engage).
TEST(ExecEngineZoo, EveryConvConfigBitExact) {
  ThreadPool pool(3);
  Rng rng(2024);
  std::map<std::string, LayerConfig> configs;
  for (const auto& name : zoo_names()) {
    const auto m = model_by_name(name);
    for (const auto& l : m.layers()) {
      if (l.kind == LayerKind::kConv) configs.emplace(device::layer_signature(l), l);
    }
  }
  ASSERT_GT(configs.size(), 20u);  // the zoo is genuinely diverse
  for (const auto& [sig, l] : configs) {
    const int out_h = l.out_h();
    check_conv_rows(l, RowInterval{0, 1}, rng, nullptr, sig + " first-row");
    const int mid = out_h / 2;
    check_conv_rows(l, RowInterval{mid, std::min(out_h, mid + 2)}, rng, &pool,
                    sig + " mid-band");
    check_conv_rows(l, RowInterval{out_h - 1, out_h}, rng, nullptr,
                    sig + " last-row");
  }
}

// Zoo pooling configs, same treatment (the fast pool path threads too).
TEST(ExecEngineZoo, EveryPoolConfigBitExact) {
  ThreadPool pool(3);
  Rng rng(77);
  std::map<std::string, LayerConfig> configs;
  for (const auto& name : zoo_names()) {
    const auto m = model_by_name(name);
    for (const auto& l : m.layers()) {
      if (l.kind == LayerKind::kMaxPool)
        configs.emplace(device::layer_signature(l), l);
    }
  }
  ASSERT_FALSE(configs.empty());
  for (const auto& [sig, l] : configs) {
    const int out_h = l.out_h();
    const RowInterval out_rows{out_h / 3, std::min(out_h, out_h / 3 + 3)};
    const auto need = input_rows_for(l, out_rows);
    const auto crop = random_tensor(need.size(), l.in_w, l.in_c, rng);
    const auto ref = maxpool_forward_rows(l, crop, need.begin, out_rows);
    expect_bitexact(maxpool_forward_rows(l, crop, need.begin, out_rows,
                                         ExecContext::fast(&pool)),
                    ref, sig);
  }
}

// Randomized geometry sweep: kernel/stride/padding/channel combinations the
// zoo never hits, including out_c that is smaller than / not a multiple of
// the packed-lane width, 1x1 kernels, strides that skip input rows, padding
// wider than the kernel overhang, and relu on/off. Each case is run over a
// random row interval, a 1-row band, and with a slack crop (the crop starts
// above the first required row).
TEST(ExecEngineProperty, RandomizedConfigsBitExact) {
  ThreadPool pool(3);
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 60; ++iter) {
    const int kernel = rng.uniform_int(1, 5);
    const int stride = rng.uniform_int(1, 3);
    // padding < kernel: a band fully inside the zero padding is rejected by
    // input_rows_for itself (vsl.cpp clips to a non-empty interval), so every
    // legal 1-row band must keep at least one valid tap.
    const int padding = rng.uniform_int(0, kernel - 1);
    const int in_c = rng.uniform_int(1, 7);
    const int out_c = rng.uniform_int(1, 19);
    const int in_h = rng.uniform_int(kernel + stride, 20);
    const int in_w = rng.uniform_int(kernel + stride, 20);
    LayerConfig l;
    try {
      l = LayerConfig::conv(in_w, in_h, in_c, out_c, kernel, stride, padding,
                            /*relu=*/iter % 2 == 0);
      l.validate();
    } catch (const Error&) {
      continue;  // geometry with empty output — not a runnable layer
    }
    const int out_h = l.out_h();
    const std::string what = "iter " + std::to_string(iter) + " k" +
                             std::to_string(kernel) + " s" +
                             std::to_string(stride) + " p" +
                             std::to_string(padding);

    const int a = rng.uniform_int(0, out_h - 1);
    const int b = rng.uniform_int(a + 1, out_h);
    check_conv_rows(l, RowInterval{a, b}, rng, &pool, what + " rand-band");
    const int r = rng.uniform_int(0, out_h - 1);
    check_conv_rows(l, RowInterval{r, r + 1}, rng, nullptr, what + " one-row");
    check_conv_rows(l, RowInterval{a, b}, rng, &pool, what + " slack",
                    /*slack=*/rng.uniform_int(1, 3));
  }
}

// Full-tensor forwards and stitched split-parts through a mixed conv/pool
// volume: the fast engine must agree with the reference through layer
// chaining, not just per layer.
TEST(ExecEngineVolume, ForwardAndSplitPartsBitExact) {
  ThreadPool pool(3);
  Rng rng(9);
  const auto m = ModelBuilder("mini", 24, 24, 3)
                     .conv_same(6, 3)
                     .conv_same(6, 3)
                     .maxpool(2, 2)
                     .conv_same(12, 3)
                     .conv(12, 3, 2, 1)
                     .build();
  std::vector<ConvWeights> weights;
  for (const auto& l : m.layers()) {
    weights.push_back(l.kind == LayerKind::kConv ? ConvWeights::random(l, rng)
                                                 : ConvWeights{});
  }
  const auto in = random_tensor(m.input_h(), m.input_w(), m.input_c(), rng);
  const std::span<const LayerConfig> layers(m.layers());
  const std::span<const ConvWeights> wts(weights);

  const auto ref = volume_forward(layers, in, wts);
  expect_bitexact(volume_forward(layers, in, wts, ExecContext::fast(&pool)),
                  ref, "full forward");

  const int height = layers.back().out_h();
  for (int n_parts : {2, 5, height}) {  // height parts == every band is 1 row
    for (int p = 0; p < n_parts; ++p) {
      const RowInterval part{height * p / n_parts, height * (p + 1) / n_parts};
      if (part.empty()) continue;
      const auto need = required_input_rows(layers, part);
      Tensor crop(need.size(), in.w, in.c);
      for (int y = need.begin; y < need.end; ++y)
        for (int x = 0; x < in.w; ++x)
          for (int ch = 0; ch < in.c; ++ch)
            crop.at(y - need.begin, x, ch) = in.at(y, x, ch);
      const auto ref_part = volume_forward_rows(layers, crop, need.begin, part, wts);
      expect_bitexact(
          volume_forward_rows(layers, crop, need.begin, part, wts,
                              ExecContext::fast(&pool)),
          ref_part,
          "part " + std::to_string(p) + "/" + std::to_string(n_parts));
    }
  }
}

TEST(ExecEngineVolume, BandedIntoMatchesWholePart) {
  // The halo-first data plane fills one part tensor band by band through
  // volume_forward_rows_into; any band partition, in any order, must
  // reproduce the whole-part call byte for byte — for both engines, with
  // and without row-band threading.
  ThreadPool pool(3);
  Rng rng(21);
  const auto m = ModelBuilder("mini", 24, 24, 3)
                     .conv_same(6, 3)
                     .conv_same(6, 5)
                     .maxpool(2, 2)
                     .conv_same(12, 3)
                     .build();
  std::vector<ConvWeights> weights;
  for (const auto& l : m.layers()) {
    weights.push_back(l.kind == LayerKind::kConv ? ConvWeights::random(l, rng)
                                                 : ConvWeights{});
  }
  const auto in = random_tensor(m.input_h(), m.input_w(), m.input_c(), rng);
  const std::span<const LayerConfig> layers(m.layers());
  const std::span<const ConvWeights> wts(weights);

  const int height = layers.back().out_h();
  const RowInterval part{2, height - 1};  // off-origin on purpose
  const auto need = required_input_rows(layers, part);
  Tensor crop(need.size(), in.w, in.c);
  for (int y = need.begin; y < need.end; ++y)
    for (int x = 0; x < in.w; ++x)
      for (int ch = 0; ch < in.c; ++ch)
        crop.at(y - need.begin, x, ch) = in.at(y, x, ch);

  for (const auto& ctx :
       {ExecContext::reference(), ExecContext::fast(),
        ExecContext::fast(&pool)}) {
    const auto whole =
        volume_forward_rows(layers, crop, need.begin, part, wts, ctx);
    for (int n_bands : {1, 3, part.size()}) {
      Tensor dst(part.size(), whole.w, whole.c);
      // Boundary-first order: last band, first band, then the middle ones.
      std::vector<RowInterval> bands;
      for (int b = 0; b < n_bands; ++b) {
        bands.push_back(RowInterval{part.begin + part.size() * b / n_bands,
                                    part.begin + part.size() * (b + 1) / n_bands});
      }
      std::rotate(bands.begin(), bands.end() - 1, bands.end());
      for (const auto& band : bands) {
        if (band.empty()) continue;
        volume_forward_rows_into(layers, crop, need.begin, band, wts, ctx,
                                 dst, part.begin);
      }
      expect_bitexact(dst, whole,
                      std::string(to_string(ctx.engine)) + " bands=" +
                          std::to_string(n_bands));
    }
  }
}

TEST(ExecEngineProperty, PaddingWiderThanKernelBitExact) {
  // padding >= kernel is legal (validate only requires the kernel to fit the
  // padded input) and makes the outermost output columns consist of zero
  // taps only — the fast gather must skip them without ever forming an input
  // address. Rows 0 and out_h-1 are all-padding too and rejected by
  // input_rows_for itself, so the sweep covers the interior rows.
  ThreadPool pool(3);
  Rng rng(88);
  for (const auto& l :
       {LayerConfig::conv(4, 4, 2, 3, /*kernel=*/1, 1, /*padding=*/1),
        LayerConfig::conv(6, 5, 3, 9, /*kernel=*/2, 1, /*padding=*/2),
        LayerConfig::conv(7, 7, 1, 8, /*kernel=*/3, 2, /*padding=*/3)}) {
    const int out_h = l.out_h();
    for (int oy = 0; oy < out_h; ++oy) {
      const RowInterval band{oy, oy + 1};
      bool legal_band = true;
      try {
        input_rows_for(l, band);
      } catch (const Error&) {
        legal_band = false;  // band entirely inside the padding
      }
      if (!legal_band) continue;
      check_conv_rows(l, band, rng, &pool,
                      "wide-pad k" + std::to_string(l.kernel) + " row " +
                          std::to_string(oy));
    }
  }
}

TEST(ExecEngine, CachedPackedWeightsStayBitExact) {
  // One ExecCache across many calls with the same weights (the data plane's
  // per-run pattern): the cached pack must serve every row interval with
  // results identical to fresh packing and to the reference.
  Rng rng(12);
  const auto l = LayerConfig::conv(17, 17, 5, 11, 3, 1, 1);
  const auto in = random_tensor(17, 17, 5, rng);
  const auto w = ConvWeights::random(l, rng);
  ExecCache cache;
  ExecContext ctx = ExecContext::fast();
  ctx.cache = &cache;
  for (const RowInterval rows :
       {RowInterval{0, l.out_h()}, RowInterval{0, 1}, RowInterval{5, 9},
        RowInterval{l.out_h() - 1, l.out_h()}}) {
    const auto ref = conv_forward_rows(l, in, 0, rows, w);
    expect_bitexact(conv_forward_rows(l, in, 0, rows, w, ctx), ref,
                    "cached rows [" + std::to_string(rows.begin) + "," +
                        std::to_string(rows.end) + ")");
  }
}

// Every adjacent conv→pool pair in the zoo fuses (the models interleave
// conv blocks with 2x2 pools); each pair must produce bit-identical pool
// rows through the fused epilogue on first / mid / last bands.
TEST(ExecEngineFused, EveryZooConvPoolPairBitExact) {
  ThreadPool pool(3);
  Rng rng(31337);
  std::map<std::string, std::pair<LayerConfig, LayerConfig>> pairs;
  for (const auto& name : zoo_names()) {
    const auto m = model_by_name(name);
    const auto& layers = m.layers();
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
      if (can_fuse_conv_pool(layers[i], layers[i + 1])) {
        pairs.emplace(device::layer_signature(layers[i]) + "+" +
                          device::layer_signature(layers[i + 1]),
                      std::make_pair(layers[i], layers[i + 1]));
      }
    }
  }
  ASSERT_GT(pairs.size(), 5u);  // fusion opportunities genuinely exist
  for (const auto& [sig, pair] : pairs) {
    const int out_h = pair.second.out_h();
    check_conv_pool_rows(pair.first, pair.second, RowInterval{0, 1}, rng,
                         nullptr, sig + " first-row");
    const int mid = out_h / 2;
    check_conv_pool_rows(pair.first, pair.second,
                         RowInterval{mid, std::min(out_h, mid + 2)}, rng,
                         &pool, sig + " mid-band");
    check_conv_pool_rows(pair.first, pair.second,
                         RowInterval{out_h - 1, out_h}, rng, nullptr,
                         sig + " last-row");
  }
}

// Randomized fused geometries the zoo never hits: pool kernels 2 and 3,
// strides 2 and 3 including the overlapping k=3/s=2 window, odd conv output
// extents (bottom/right pool windows clamp), relu on and off, channel
// counts off the lane width.
TEST(ExecEngineFused, RandomizedConvPoolBitExact) {
  ThreadPool pool(3);
  Rng rng(0xBEEF);
  int ran = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const int kernel = rng.uniform_int(1, 4);
    const int padding = rng.uniform_int(0, kernel - 1);
    const int in_c = rng.uniform_int(1, 5);
    const int out_c = rng.uniform_int(1, 19);
    const int in_h = rng.uniform_int(kernel + 4, 22);
    const int in_w = rng.uniform_int(kernel + 4, 22);
    const int pk = rng.uniform_int(2, 3);
    const int ps = rng.uniform_int(2, 3);
    LayerConfig conv, pl;
    try {
      conv = LayerConfig::conv(in_w, in_h, in_c, out_c, kernel, /*stride=*/1,
                               padding, /*relu=*/iter % 2 == 0);
      conv.validate();
      pl = LayerConfig::maxpool(conv.out_w(), conv.out_h(), conv.out_c, pk, ps);
      pl.validate();
    } catch (const Error&) {
      continue;
    }
    if (!can_fuse_conv_pool(conv, pl)) continue;
    ++ran;
    const int out_h = pl.out_h();
    const std::string what = "iter " + std::to_string(iter) + " pk" +
                             std::to_string(pk) + " ps" + std::to_string(ps);
    const int a = rng.uniform_int(0, out_h - 1);
    const int b = rng.uniform_int(a + 1, out_h);
    check_conv_pool_rows(conv, pl, RowInterval{a, b}, rng, &pool,
                         what + " rand-band");
    check_conv_pool_rows(conv, pl, RowInterval{out_h - 1, out_h}, rng, nullptr,
                         what + " last-row");
  }
  ASSERT_GT(ran, 15);  // the sweep exercised real geometries
}

// Overlapping pool windows (k=3, s=2): adjacent fused bands recompute the
// shared conv rows independently; a band partition of the _into destination
// must still be byte-identical to one whole call.
TEST(ExecEngineFused, BandedIntoMatchesWholeCall) {
  ThreadPool pool(3);
  Rng rng(55);
  const auto conv = LayerConfig::conv(21, 21, 3, 10, 3, 1, 1);
  const auto pl =
      LayerConfig::maxpool(conv.out_w(), conv.out_h(), conv.out_c, 3, 2);
  ASSERT_TRUE(can_fuse_conv_pool(conv, pl));
  const auto crop = random_tensor(conv.in_h, conv.in_w, conv.in_c, rng);
  const auto w = ConvWeights::random(conv, rng);
  const int out_h = pl.out_h();
  const RowInterval part{0, out_h};

  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast(&pool);
    ctx.isa = isa;
    const auto whole =
        conv_pool_forward_rows(conv, pl, crop, 0, part, w, ctx);
    for (int n_bands : {2, 3, out_h}) {
      Tensor dst(out_h, pl.out_w(), pl.out_c);
      for (int b = 0; b < n_bands; ++b) {
        const RowInterval band{out_h * b / n_bands,
                               out_h * (b + 1) / n_bands};
        if (band.empty()) continue;
        conv_pool_forward_rows_into(conv, pl, crop, 0, band, w, ctx, dst, 0);
      }
      expect_bitexact(dst, whole,
                      std::string("fused bands=") + std::to_string(n_bands) +
                          " [" + to_string(isa) + "]");
    }
  }
}

// The 2-D tile plan must partition rows × blocks exactly: every (row, block)
// cell covered once, no overlaps, no gaps — for awkward row/block/thread
// combinations.
TEST(ExecEngineTiles, PlanPartitionsExactly) {
  for (const int rows : {1, 2, 3, 7, 16, 61}) {
    for (const int blocks : {1, 2, 5, 13}) {
      for (const int threads : {1, 2, 3, 4, 8, 40}) {
        const RowInterval out_rows{3, 3 + rows};
        const auto plan = detail::plan_conv_tiles(out_rows, blocks, threads);
        std::vector<int> hits(static_cast<std::size_t>(rows) * blocks, 0);
        for (int i = 0; i < plan.count(); ++i) {
          const auto t = plan.tile(i);
          ASSERT_LE(out_rows.begin, t.rows.begin);
          ASSERT_LE(t.rows.end, out_rows.end);
          ASSERT_LE(0, t.blk_lo);
          ASSERT_LE(t.blk_hi, blocks);
          for (int r = t.rows.begin; r < t.rows.end; ++r) {
            for (int b = t.blk_lo; b < t.blk_hi; ++b) {
              ++hits[static_cast<std::size_t>(r - out_rows.begin) * blocks + b];
            }
          }
        }
        for (std::size_t i = 0; i < hits.size(); ++i) {
          ASSERT_EQ(hits[i], 1)
              << "rows=" << rows << " blocks=" << blocks
              << " threads=" << threads << " cell " << i;
        }
      }
    }
  }
}

// Steady-state flatness: once every participating thread has executed a
// geometry, repeated banded and fused calls must never touch the allocator
// for scratch (the engine-side analogue of the data plane's frame_allocs
// assertion). Warm-up is made deterministic by running the warm call once
// on each pool worker directly (submit + latch) and once on this thread —
// dynamic tile claiming could otherwise leave a worker cold.
TEST(ExecEngineScratch, SteadyStateAllocFlat) {
  ThreadPool pool(3);
  Rng rng(123);
  const auto conv = LayerConfig::conv(24, 24, 3, 12, 3, 1, 1);
  const auto pl =
      LayerConfig::maxpool(conv.out_w(), conv.out_h(), conv.out_c, 2, 2);
  const auto crop = random_tensor(conv.in_h, conv.in_w, conv.in_c, rng);
  const auto w = ConvWeights::random(conv, rng);
  ExecCache cache;
  ExecContext ctx = ExecContext::fast(&pool);
  ctx.cache = &cache;

  const auto warm_one = [&] {
    ExecContext serial = ctx;
    serial.pool = nullptr;  // inline: warms exactly the calling thread
    (void)conv_forward_rows(conv, crop, 0, RowInterval{0, conv.out_h()}, w,
                            serial);
    (void)conv_pool_forward_rows(conv, pl, crop, 0, RowInterval{0, pl.out_h()},
                                 w, serial);
  };
  std::latch ready(static_cast<std::ptrdiff_t>(pool.size()));
  std::latch go(1);
  for (std::size_t t = 0; t < pool.size(); ++t) {
    // Hold every worker until all have a warm task, so one worker cannot
    // drain them all and leave siblings cold.
    (void)pool.submit([&] {
      warm_one();
      ready.count_down();
      go.wait();
    });
  }
  ready.wait();
  go.count_down();
  warm_one();  // parallel_for's caller thread claims tiles too

  const std::uint64_t before = exec_scratch_allocs();
  for (int rep = 0; rep < 5; ++rep) {
    (void)conv_forward_rows(conv, crop, 0, RowInterval{0, conv.out_h()}, w,
                            ctx);
    (void)conv_pool_forward_rows(conv, pl, crop, 0, RowInterval{0, pl.out_h()},
                                 w, ctx);
  }
  EXPECT_EQ(exec_scratch_allocs(), before)
      << "steady-state fast-path calls grew scratch buffers";
}

// One cache serving two packed lane widths (e.g. AVX2's 8 and AVX-512's 16)
// must keep distinct entries per width — results stay bit-exact for both.
TEST(ExecEngine, CacheKeepsPerLaneWidthEntries) {
  const auto isas = supported_kernel_isas();
  Rng rng(64);
  const auto l = LayerConfig::conv(15, 15, 4, 17, 3, 1, 1);
  const auto in = random_tensor(15, 15, 4, rng);
  const auto w = ConvWeights::random(l, rng);
  const auto ref = conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w);
  ExecCache cache;
  for (int rep = 0; rep < 2; ++rep) {  // second pass is all cache hits
    for (const KernelIsa isa : isas) {
      ExecContext ctx = ExecContext::fast();
      ctx.cache = &cache;
      ctx.isa = isa;
      expect_bitexact(conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()},
                                        w, ctx),
                      ref,
                      std::string("cache rep ") + std::to_string(rep) + " [" +
                          to_string(isa) + "]");
    }
  }
}

TEST(ExecEngine, UnsupportedForcedIsaIsALoudError) {
  // Forcing a target the host/build cannot run must throw, never silently
  // fall back (a conformance run forced to one ISA must not measure another).
  Rng rng(5);
  const auto l = LayerConfig::conv(8, 8, 2, 3, 3, 1, 1);
  const auto in = random_tensor(8, 8, 2, rng);
  const auto w = ConvWeights::random(l, rng);
  for (const KernelIsa isa :
       {KernelIsa::kSse2, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (kernel_isa_supported(isa)) continue;
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    EXPECT_THROW(
        conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w, ctx), Error);
  }
  // And the supported list always has the generic target, first, and a
  // compiled conv band for every entry.
  const auto isas = supported_kernel_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::kGeneric);
  for (const KernelIsa isa : isas) {
    EXPECT_NE(detail::conv_band_fn(isa), nullptr) << to_string(isa);
  }
}

TEST(ExecEngine, ReferenceContextIsTheReferencePath) {
  Rng rng(4);
  const auto l = LayerConfig::conv(9, 9, 2, 3, 3, 1, 1);
  const auto in = random_tensor(9, 9, 2, rng);
  const auto w = ConvWeights::random(l, rng);
  expect_bitexact(conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w,
                                    ExecContext::reference()),
                  conv_forward(l, in, w), "reference dispatch");
}

TEST(ExecEngine, NamesRoundTrip) {
  EXPECT_STREQ(to_string(ExecEngine::kReference), "reference");
  EXPECT_STREQ(to_string(ExecEngine::kFast), "fast");
  EXPECT_EQ(exec_engine_from_string("reference"), ExecEngine::kReference);
  EXPECT_EQ(exec_engine_from_string("fast"), ExecEngine::kFast);
  EXPECT_THROW(exec_engine_from_string("warp"), Error);
}

TEST(ExecEngine, FastPathValidatesLikeReference) {
  Rng rng(3);
  const auto l = LayerConfig::conv(8, 8, 2, 2, 3, 1, 1);
  const auto w = ConvWeights::random(l, rng);
  Tensor crop(2, 8, 2);  // needs 4 rows for out rows {2,5}
  EXPECT_THROW(
      conv_forward_rows(l, crop, 1, RowInterval{2, 5}, w, ExecContext::fast()),
      Error);
  EXPECT_THROW(conv_forward_rows(l, crop, 1, RowInterval{2, 2}, w,
                                 ExecContext::fast()),
               Error);
}

}  // namespace
}  // namespace de::cnn
