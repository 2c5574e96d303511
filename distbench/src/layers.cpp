#include "layers.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "cnn/exec_engine.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/vsl.hpp"
#include "obs/attribution.hpp"
#include "rpc/tcp_transport.hpp"
#include "rpc/wire.hpp"
#include "runtime/transfer_plan.hpp"

namespace distbench {

namespace {

std::span<const cnn::ConvWeights> volume_weights(
    const std::vector<cnn::ConvWeights>& weights, const cnn::LayerVolume& v) {
  return std::span<const cnn::ConvWeights>(weights).subspan(
      static_cast<std::size_t>(v.first), static_cast<std::size_t>(v.size()));
}

/// act[l] is volume l's full input on the tenant's first input; act[V] is
/// the model output.
std::vector<cnn::Tensor> activations(const Tenant& tenant,
                                     const sim::RawStrategy& strategy) {
  const auto ctx = cnn::ExecContext::fast_shared();
  std::vector<cnn::Tensor> act{tenant.inputs.front()};
  for (const auto& v : strategy.volumes) {
    act.push_back(cnn::volume_forward(cnn::volume_layers(tenant.model, v),
                                      act.back(),
                                      volume_weights(tenant.weights, v), ctx));
  }
  return act;
}

template <typename F>
double median_ms(int reps, F&& body) {
  std::vector<double> laps;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    laps.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(laps));
}

}  // namespace

CnnProbe probe_cnn(const Tenant& tenant, const sim::RawStrategy& strategy,
                   int reps) {
  const auto plan =
      runtime::build_transfer_plan(tenant.model, strategy, kDevices);
  const auto act = activations(tenant, strategy);
  const auto ctx = cnn::ExecContext::fast_shared();
  CnnProbe probe;
  std::vector<double> device_ms(static_cast<std::size_t>(kDevices), 0.0);
  double flops = 0;
  for (int l = 0; l < plan.num_volumes(); ++l) {
    const auto& v = strategy.volumes[static_cast<std::size_t>(l)];
    const auto layers = cnn::volume_layers(tenant.model, v);
    const auto weights = volume_weights(tenant.weights, v);
    for (int i = 0; i < kDevices; ++i) {
      const auto part = plan.parts[static_cast<std::size_t>(l)]
                                  [static_cast<std::size_t>(i)];
      if (part.empty()) continue;
      const auto need = plan.needs[static_cast<std::size_t>(l)]
                                  [static_cast<std::size_t>(i)];
      const auto crop = runtime::slice_rows(act[static_cast<std::size_t>(l)],
                                            0, need.begin, need.end);
      const auto run = [&] {
        (void)cnn::volume_forward_rows(layers, crop, need.begin, part,
                                       weights, ctx);
      };
      run();  // warm the packed-weight and scratch caches
      const double ms = median_ms(reps, run);
      device_ms[static_cast<std::size_t>(i)] += ms;
      probe.compute_ms_per_image += ms;
      flops += static_cast<double>(cnn::split_part_ops(layers, part));
    }
  }
  probe.critical_device_ms =
      *std::max_element(device_ms.begin(), device_ms.end());
  if (probe.compute_ms_per_image > 0) {
    probe.gflops = flops * 1e-9 / (probe.compute_ms_per_image * 1e-3);
  }
  return probe;
}

RpcProbe probe_rpc(const Tenant& tenant, const sim::RawStrategy& strategy,
                   int reps) {
  const auto plan =
      runtime::build_transfer_plan(tenant.model, strategy, kDevices);
  const auto act = activations(tenant, strategy);

  // One image's chunk set: scatter crops, then every part's halo and
  // gather sends under the halo-first schedule.
  struct Chunk {
    rpc::MsgType type;
    int volume = 0;
    std::size_t act = 0;  ///< index into `act` the rows come from
    cnn::RowInterval rows;
  };
  std::vector<Chunk> chunks;
  for (int i = 0; i < kDevices; ++i) {
    const auto need = plan.needs[0][static_cast<std::size_t>(i)];
    if (!need.empty()) chunks.push_back({rpc::MsgType::kScatter, 0, 0, need});
  }
  for (int l = 0; l < plan.num_volumes(); ++l) {
    for (int i = 0; i < kDevices; ++i) {
      for (const auto& send : runtime::plan_part_schedule(plan, l, i).sends) {
        const bool gather = send.to == plan.requester_node();
        chunks.push_back(
            {gather ? rpc::MsgType::kGather : rpc::MsgType::kHaloRows, l,
             static_cast<std::size_t>(l) + 1, send.rows});
      }
    }
  }

  std::vector<rpc::Frame> frames(chunks.size());
  const auto encode_all = [&] {
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const Chunk& c = chunks[k];
      rpc::encode_chunk_into(frames[k], c.type, 0, c.volume, 0,
                             static_cast<std::uint32_t>(k + 1), 0, 0,
                             act[c.act], 0, c.rows);
    }
  };
  std::vector<cnn::Tensor> dst;
  for (const auto& a : act) dst.emplace_back(a.h, a.w, a.c);
  const auto decode_all = [&] {
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const auto view = rpc::decode_chunk_view(frames[k].view());
      rpc::copy_rows_to(view, view.row_offset, view.row_offset + view.h,
                        dst[chunks[k].act], 0);
    }
  };
  encode_all();
  decode_all();
  RpcProbe probe;
  probe.encode_us_per_image = median_ms(reps, encode_all) * 1e3;
  probe.decode_us_per_image = median_ms(reps, decode_all) * 1e3;

  // A frame of the strategy's median chunk size, one way over loopback.
  std::vector<std::size_t> sizes;
  for (const auto& f : frames) sizes.push_back(f.size());
  std::sort(sizes.begin(), sizes.end());
  const rpc::Frame& probe_frame = *std::find_if(
      frames.begin(), frames.end(),
      [&](const rpc::Frame& f) { return f.size() == sizes[sizes.size() / 2]; });
  rpc::TcpTransport a(0);
  rpc::TcpTransport b(1);
  const rpc::Address to = b.open_mailbox(rpc::kDataMailbox);
  a.set_peers({{1, {"127.0.0.1", b.port()}}});
  std::vector<double> oneway;
  for (int r = 0; r < reps + 5; ++r) {
    const auto t0 = Clock::now();
    a.send(to, probe_frame);
    const auto got = b.receive(rpc::kDataMailbox);
    const double us = ms_between(t0, Clock::now()) * 1e3;
    if (!got.has_value()) break;
    if (r >= 5) oneway.push_back(us);  // the first sends dial the peer
  }
  a.shutdown();
  b.shutdown();
  probe.tcp_oneway_us = median(std::move(oneway));
  return probe;
}

double probe_sim_execute_us(const cnn::CnnModel& model,
                            const sim::RawStrategy& strategy,
                            const sim::ClusterLatency& latency,
                            const net::Network& network, int reps) {
  return median_ms(reps, [&] {
           (void)sim::execute_strategy(model, strategy, latency, network);
         }) *
         1e3;
}

TraceSplit split_trace(const obs::TraceCapture& capture) {
  TraceSplit split;
  // Rings drop their oldest events: an image scattered before the first
  // surviving event of a ring that dropped, and that carries the spans
  // attribution walks, may have lost part of its chain.
  std::int64_t cutoff_us = std::numeric_limits<std::int64_t>::min();
  std::map<std::pair<int, int>, std::int64_t> scatter_at;
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  for (const auto& thread : capture.dump.threads) {
    kept += thread.events.size();
    dropped += thread.dropped;
    bool on_path = false;
    for (const auto& ev : thread.events) {
      const auto cat = static_cast<obs::Cat>(ev.cat);
      on_path = on_path || cat == obs::Cat::kScatter ||
                cat == obs::Cat::kGather || cat == obs::Cat::kAssemble ||
                cat == obs::Cat::kCompute || cat == obs::Cat::kComputeBand;
      if (cat != obs::Cat::kScatter) continue;
      auto [it, fresh] = scatter_at.try_emplace({ev.stream, ev.seq}, ev.ts_us);
      if (!fresh) it->second = std::min(it->second, ev.ts_us);
    }
    if (on_path && thread.dropped > 0) {
      cutoff_us = std::max(cutoff_us, thread.events.front().ts_us);
    }
  }
  if (kept + dropped > 0) {
    split.dropped_frac =
        static_cast<double>(dropped) / static_cast<double>(kept + dropped);
  }

  const auto report =
      obs::attribute_critical_paths(obs::merge_capture(capture));
  std::vector<double> scatter, compute, halo, gather, rest;
  std::int64_t incomplete = 0;
  for (const auto& img : report.images) {
    const auto at = scatter_at.find({img.stream, img.seq});
    if (at == scatter_at.end() || at->second < cutoff_us) {
      ++incomplete;
      continue;
    }
    scatter.push_back(static_cast<double>(img.scatter_us) * 1e-3);
    compute.push_back(static_cast<double>(img.compute_us) * 1e-3);
    halo.push_back(static_cast<double>(img.halo_wait_us) * 1e-3);
    gather.push_back(static_cast<double>(img.gather_wait_us) * 1e-3);
    rest.push_back(static_cast<double>(img.unattributed_us) * 1e-3);
  }
  split.images = static_cast<std::int64_t>(report.images.size());
  if (split.images > 0) {
    split.incomplete_frac =
        static_cast<double>(incomplete) / static_cast<double>(split.images);
  }
  split.scatter_ms = median(scatter);
  split.compute_ms = median(compute);
  split.halo_wait_ms = median(halo);
  split.gather_wait_ms = median(gather);
  split.unattributed_ms = median(rest);
  for (const auto& d : report.devices) {
    split.straggler_max_score = std::max(split.straggler_max_score, d.score);
  }
  return split;
}

}  // namespace distbench
