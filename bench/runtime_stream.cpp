// Streaming throughput of the real data plane: the zero-copy halo-first
// plane (arena frames, wire-byte blits, boundary-band-first compute with a
// dedicated sender thread) serving a pipelined stream over loopback TCP.
// Every delivered image is checked bit-exact against the single-device
// reference; the exit status reports that check.
//
// The workload is the zoo's edge tier (edgenet by default) under a
// DistrEdge-style network-adaptive strategy: every layer is its own volume
// and consecutive volumes use staggered cuts, so each boundary genuinely
// redistributes rows between devices — the regime edge clusters live in,
// where the data plane (not FLOPs) bounds IPS. Results land in
// BENCH_stream.json: measured IPS (best of the laps), wire bytes, copies
// per halo byte, and frame-buffer allocations per image.
//
//   bench_runtime_stream [--quick] [--out PATH] [--images N]
//                        [--model NAME] [--devices N] [--inflight K]
//
// --quick shrinks the image count and lap count (CI smoke). Loopback TCP
// throughout — chunks really cross the kernel's TCP stack.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cnn/model_zoo.hpp"
#include "common/require.hpp"
#include "runtime/serve.hpp"

namespace {

using namespace de;

/// Per-layer volumes with staggered equal splits: even volumes cut at
/// j*h/n, odd volumes at the midpoints ((2j-1)*h)/(2n) — so every volume
/// boundary moves most rows to a different device, like re-planned splits
/// on a heterogeneous cluster do (paper §IV: per-volume split decisions).
sim::RawStrategy staggered_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  std::vector<int> boundaries;
  for (int l = 0; l <= m.num_layers(); ++l) boundaries.push_back(l);
  strategy.volumes =
      cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    const int h = cnn::volume_out_height(m, strategy.volumes[v]);
    std::vector<int> cuts{0};
    for (int j = 1; j < n_devices; ++j) {
      const int at = v % 2 == 0 ? j * h / n_devices
                                : std::min(h, ((2 * j - 1) * h + n_devices) /
                                                  (2 * n_devices));
      cuts.push_back(std::clamp(at, cuts.back(), h));
    }
    cuts.push_back(h);
    strategy.cuts.push_back(std::move(cuts));
  }
  return strategy;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_stream.json";
  std::string model_name = "edgenet";
  int n_images = 0;
  int n_devices = 6;  // the paper-scale edge cluster (fig. 7-9 tier)
  int inflight = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      n_images = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_name = argv[++i];
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      n_devices = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
      inflight = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--images N] "
                   "[--model NAME] [--devices N] [--inflight K]\n",
                   argv[0]);
      return 2;
    }
  }
  if (n_images == 0) n_images = quick ? 16 : 96;

  const auto model = cnn::model_by_name(model_name);
  const auto strategy = staggered_strategy(model, n_devices);

  Rng rng(123);
  const auto weights = runtime::random_weights(model, rng);
  std::vector<cnn::Tensor> images;
  images.reserve(static_cast<std::size_t>(n_images));
  for (int k = 0; k < n_images; ++k) {
    cnn::Tensor t(model.input_h(), model.input_w(), model.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    images.push_back(std::move(t));
  }

  std::printf("model %s: %dx%dx%d, %d layers, %.3f GFLOP/image\n",
              model.name().c_str(), model.input_h(), model.input_w(),
              model.input_c(), model.num_layers(),
              static_cast<double>(model.conv_chain_ops()) * 1e-9);
  std::printf("strategy: %d per-layer volumes, staggered cuts, %d devices, "
              "K=%d in flight, %d images, loopback TCP\n\n",
              static_cast<int>(strategy.volumes.size()), n_devices, inflight,
              n_images);

  const auto run_lap = [&] {
    runtime::ServeOptions options;
    options.use_tcp = true;
    options.inflight = inflight;
    options.keep_outputs = true;  // checked against the reference below
    return runtime::serve_stream(model, strategy, weights, images, n_devices,
                                 options);
  };
  std::vector<cnn::Tensor> references;
  references.reserve(images.size());
  for (const auto& image : images) {
    references.push_back(runtime::run_reference(model, weights, image));
  }
  const auto bit_exact = [&](const runtime::ServeResult& r) {
    if (r.outputs.size() != references.size()) return false;
    for (std::size_t k = 0; k < references.size(); ++k) {
      if (r.outputs[k].data != references[k].data) return false;
    }
    return true;
  };

  // Warm-up lap (page cache, TCP handshakes, malloc arenas), then best-of-N
  // — the same discipline bench_kernel_scaling uses, so one noisy lap on a
  // busy host cannot set the figure.
  bool exact = bit_exact(run_lap());
  const int laps = quick ? 1 : 3;
  runtime::ServeResult best;
  for (int lap = 0; lap < laps; ++lap) {
    auto r = run_lap();
    exact = exact && bit_exact(r);
    if (lap == 0 || r.measured_ips > best.measured_ips) best = std::move(r);
  }

  const double copies = best.bytes_moved > 0
                            ? static_cast<double>(best.bytes_copied) /
                                  static_cast<double>(best.bytes_moved)
                            : 0.0;
  const double allocs_per_image =
      static_cast<double>(best.frame_allocs) / n_images;
  std::printf("%7.2f IPS  wall %.3fs  %lld msgs  %.2f MiB payload  "
              "%.2f MiB wire  %.2f copies/halo-byte  %lld frame allocs "
              "(%.2f/image)\nbit-exact vs reference: %s\n",
              best.measured_ips, best.wall_s,
              static_cast<long long>(best.messages_exchanged),
              static_cast<double>(best.bytes_moved) / (1 << 20),
              static_cast<double>(best.wire_bytes) / (1 << 20), copies,
              static_cast<long long>(best.frame_allocs), allocs_per_image,
              exact ? "yes" : "NO");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"runtime_stream\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"workload\": {\"model\": \"%s\", \"gflop_per_image\": %.6f, "
               "\"images\": %d, \"devices\": %d, \"inflight\": %d, "
               "\"volumes\": %d, \"transport\": \"tcp-loopback\", "
               "\"strategy\": \"per-layer volumes, staggered cuts\"},\n",
               model.name().c_str(),
               static_cast<double>(model.conv_chain_ops()) * 1e-9, n_images,
               n_devices, inflight, static_cast<int>(strategy.volumes.size()));
  std::fprintf(f, "  \"bit_exact_vs_reference\": %s,\n",
               exact ? "true" : "false");
  std::fprintf(f,
               "  \"overlap_zero_copy\": {\"ips\": %.3f, \"wall_s\": %.4f, "
               "\"messages\": %lld, \"payload_bytes\": %lld, "
               "\"wire_bytes\": %lld, \"bytes_copied\": %lld, "
               "\"copies_per_halo_byte\": %.3f, \"frame_allocs\": %lld, "
               "\"frame_allocs_per_image\": %.3f}\n",
               best.measured_ips, best.wall_s,
               static_cast<long long>(best.messages_exchanged),
               static_cast<long long>(best.bytes_moved),
               static_cast<long long>(best.wire_bytes),
               static_cast<long long>(best.bytes_copied), copies,
               static_cast<long long>(best.frame_allocs), allocs_per_image);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return exact ? 0 : 1;
}
