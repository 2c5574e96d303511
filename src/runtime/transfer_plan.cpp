#include "runtime/transfer_plan.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace de::runtime {

int TransferPlan::holders_of_last() const {
  const auto& last = parts.back();
  return static_cast<int>(std::count_if(
      last.begin(), last.end(),
      [](const cnn::RowInterval& p) { return !p.empty(); }));
}

bool TransferPlan::device_active(int i) const {
  for (int l = 0; l < num_volumes(); ++l) {
    if (!parts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)].empty() ||
        expected[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] > 0) {
      return true;
    }
  }
  return false;
}

void blit_rows(const cnn::Tensor& src, int src_offset, int src_begin,
               int src_end, cnn::Tensor& dst, int dst_offset) {
  DE_ASSERT(src.w == dst.w && src.c == dst.c, "blit extent mismatch");
  for (int y = src_begin; y < src_end; ++y) {
    const float* from =
        &src.data[static_cast<std::size_t>(y - src_offset) * src.w * src.c];
    float* to = &dst.data[static_cast<std::size_t>(y - dst_offset) * dst.w * dst.c];
    std::copy(from, from + static_cast<std::size_t>(src.w) * src.c, to);
  }
}

cnn::Tensor slice_rows(const cnn::Tensor& src, int src_offset, int begin, int end) {
  cnn::Tensor out(end - begin, src.w, src.c);
  blit_rows(src, src_offset, begin, end, out, begin);
  return out;
}

PartSchedule plan_part_schedule(const TransferPlan& plan, int l, int i,
                                int max_gather_bands) {
  DE_REQUIRE(l >= 0 && l < plan.num_volumes() && i >= 0 && i < plan.n_devices,
             "part schedule indices out of range");
  DE_REQUIRE(max_gather_bands >= 1, "need at least one gather band");
  const auto& part =
      plan.parts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
  PartSchedule sched;
  if (part.empty()) return sched;

  if (l + 1 == plan.num_volumes()) {
    // Final volume: stream the part to the requester band by band, so the
    // first output rows cross the wire while the rest still compute.
    const int nb = std::clamp(part.size() / 4, 1, max_gather_bands);
    for (int b = 0; b < nb; ++b) {
      const cnn::RowInterval band{part.begin + part.size() * b / nb,
                                  part.begin + part.size() * (b + 1) / nb};
      sched.bands.push_back(band);
      sched.sends.push_back(OutboundChunk{plan.requester_node(), band, b});
    }
    return sched;
  }

  // Intermediate volume: the rows some neighbor's next-volume need overlaps
  // are the boundary; cut the part at every neighbor-need edge so each
  // segment is either fully boundary or fully interior.
  std::vector<OutboundChunk> sends;
  std::vector<int> cuts{part.begin, part.end};
  for (int k = 0; k < plan.n_devices; ++k) {
    if (k == i) continue;
    const auto need = plan.needs[static_cast<std::size_t>(l + 1)]
                                [static_cast<std::size_t>(k)]
                          .intersect(part);
    if (need.empty()) continue;
    sends.push_back(OutboundChunk{k, need, 0});
    cuts.push_back(need.begin);
    cuts.push_back(need.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<cnn::RowInterval> interior;
  for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
    const cnn::RowInterval seg{cuts[s], cuts[s + 1]};
    const bool boundary =
        std::any_of(sends.begin(), sends.end(), [&](const OutboundChunk& o) {
          return !o.rows.intersect(seg).empty();
        });
    (boundary ? sched.bands : interior).push_back(seg);
  }
  sched.bands.insert(sched.bands.end(), interior.begin(), interior.end());

  // A halo chunk is ready once every band its rows touch has computed;
  // bands run in listed order, so that is the largest such band index. The
  // sends are then ordered by readiness so the worker flushes a prefix
  // after each band.
  for (auto& send : sends) {
    for (std::size_t b = 0; b < sched.bands.size(); ++b) {
      if (!send.rows.intersect(sched.bands[b]).empty()) {
        send.ready_after_band = static_cast<int>(b);
      }
    }
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [](const OutboundChunk& a, const OutboundChunk& b) {
                     return a.ready_after_band < b.ready_after_band;
                   });
  sched.sends = std::move(sends);
  return sched;
}

TransferPlan build_transfer_plan(const cnn::CnnModel& model,
                                 const sim::RawStrategy& strategy,
                                 int n_devices) {
  DE_REQUIRE(n_devices >= 1, "need at least one device");
  DE_REQUIRE(strategy.volumes.size() == strategy.cuts.size(), "strategy shape");
  const int n_volumes = static_cast<int>(strategy.volumes.size());
  DE_REQUIRE(n_volumes >= 1, "strategy has no volumes");

  TransferPlan plan;
  plan.n_devices = n_devices;
  plan.parts.resize(static_cast<std::size_t>(n_volumes));
  plan.needs.resize(static_cast<std::size_t>(n_volumes));
  plan.expected.assign(static_cast<std::size_t>(n_volumes),
                       std::vector<int>(static_cast<std::size_t>(n_devices), 0));

  for (int l = 0; l < n_volumes; ++l) {
    const auto layers =
        cnn::volume_layers(model, strategy.volumes[static_cast<std::size_t>(l)]);
    const int height =
        cnn::volume_out_height(model, strategy.volumes[static_cast<std::size_t>(l)]);
    sim::validate_cuts(strategy.cuts[static_cast<std::size_t>(l)], n_devices, height);
    auto& lp = plan.parts[static_cast<std::size_t>(l)];
    auto& ln = plan.needs[static_cast<std::size_t>(l)];
    lp.resize(static_cast<std::size_t>(n_devices));
    ln.resize(static_cast<std::size_t>(n_devices));
    for (int i = 0; i < n_devices; ++i) {
      lp[static_cast<std::size_t>(i)] = cnn::RowInterval{
          strategy.cuts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
          strategy.cuts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i) + 1]};
      if (!lp[static_cast<std::size_t>(i)].empty()) {
        ln[static_cast<std::size_t>(i)] =
            cnn::required_input_rows(layers, lp[static_cast<std::size_t>(i)]);
      }
    }
  }
  for (int l = 0; l < n_volumes; ++l) {
    for (int i = 0; i < n_devices; ++i) {
      const auto& need =
          plan.needs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
      if (need.empty()) continue;
      if (l == 0) {
        plan.expected[0][static_cast<std::size_t>(i)] = 1;  // from the requester
        continue;
      }
      for (int j = 0; j < n_devices; ++j) {
        if (j == i) continue;
        if (!need.intersect(
                     plan.parts[static_cast<std::size_t>(l - 1)][static_cast<std::size_t>(j)])
                 .empty()) {
          plan.expected[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)]++;
        }
      }
    }
  }
  return plan;
}

}  // namespace de::runtime
