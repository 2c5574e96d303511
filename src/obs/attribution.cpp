#include "obs/attribution.hpp"

#include <algorithm>
#include <map>

namespace de::obs {
namespace {

struct Iv {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

std::int64_t total(const std::vector<Iv>& v) {
  std::int64_t t = 0;
  for (const Iv& iv : v) t += iv.hi - iv.lo;
  return t;
}

// Sorted union of possibly-overlapping intervals; drops empties.
std::vector<Iv> merge_union(std::vector<Iv> v) {
  std::erase_if(v, [](const Iv& iv) { return iv.hi <= iv.lo; });
  std::sort(v.begin(), v.end(),
            [](const Iv& a, const Iv& b) { return a.lo < b.lo; });
  std::vector<Iv> out;
  for (const Iv& iv : v) {
    if (!out.empty() && iv.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::vector<Iv> clip(const std::vector<Iv>& v, std::int64_t lo,
                     std::int64_t hi) {
  std::vector<Iv> out;
  for (const Iv& iv : v) {
    const Iv c{std::max(iv.lo, lo), std::min(iv.hi, hi)};
    if (c.hi > c.lo) out.push_back(c);
  }
  return out;
}

// `a` minus `b`; both must already be sorted unions.
std::vector<Iv> subtract(const std::vector<Iv>& a, const std::vector<Iv>& b) {
  std::vector<Iv> out;
  for (Iv iv : a) {
    for (const Iv& cut : b) {
      if (cut.hi <= iv.lo) continue;
      if (cut.lo >= iv.hi) break;
      if (cut.lo > iv.lo) out.push_back({iv.lo, cut.lo});
      iv.lo = std::max(iv.lo, cut.hi);
      if (iv.lo >= iv.hi) break;
    }
    if (iv.hi > iv.lo) out.push_back(iv);
  }
  return merge_union(out);
}

struct PerImage {
  // Requester bounds.
  bool have_scatter = false;
  bool have_gather = false;
  std::int64_t scatter_lo = 0, scatter_hi = 0;
  std::int64_t gather_hi = 0;
  // Provider work chains, keyed by node.
  std::map<int, std::vector<Iv>> compute;
  std::map<int, std::vector<Iv>> assemble;
};

}  // namespace

const DeviceStraggler* AttributionReport::device(int node) const {
  for (const DeviceStraggler& d : devices) {
    if (d.node == node) return &d;
  }
  return nullptr;
}

AttributionReport attribute_critical_paths(const MergedTrace& merged) {
  std::map<std::pair<int, int>, PerImage> images;  // (stream, seq)

  for (const MergedEvent& me : merged.events) {
    const TraceEvent& ev = me.event;
    if (ev.seq < 0 || ev.dur_us < 0) continue;  // spans with a seq only
    const auto cat = static_cast<Cat>(ev.cat);
    const std::int64_t lo = ev.ts_us;
    const std::int64_t hi = ev.ts_us + ev.dur_us;
    auto& img = images[{ev.stream, ev.seq}];
    switch (cat) {
      case Cat::kScatter:
        // A re-dispatched image scatters more than once; attribute from
        // the first attempt so recovery time stays visible in e2e.
        if (!img.have_scatter || lo < img.scatter_lo) {
          img.scatter_lo = lo;
          img.scatter_hi = hi;
          img.have_scatter = true;
        }
        break;
      case Cat::kGather:
        img.gather_hi = img.have_gather ? std::max(img.gather_hi, hi) : hi;
        img.have_gather = true;
        break;
      case Cat::kComputeBand:
        if (ev.node >= 0) img.compute[ev.node].push_back({lo, hi});
        break;
      case Cat::kAssemble:
        if (ev.node >= 0) img.assemble[ev.node].push_back({lo, hi});
        break;
      default:
        break;
    }
  }

  AttributionReport report;
  std::map<int, std::int64_t> critical_count;

  for (auto& [key, img] : images) {
    if (!img.have_scatter || !img.have_gather) continue;  // still in flight
    const std::int64_t t0 = img.scatter_lo;
    const std::int64_t t_end = img.gather_hi;
    if (t_end <= t0) continue;

    ImageBreakdown bd;
    bd.stream = key.first;
    bd.seq = key.second;
    bd.e2e_us = t_end - t0;

    // Critical device: the provider whose work chain ends last — the
    // gather cannot close before its rows arrive. Used for the straggler
    // score, not for the time partition below.
    std::int64_t chain_end = -1;
    std::vector<Iv> all_compute;
    std::vector<Iv> all_assemble;
    for (const auto& [node, ivs] : img.compute) {
      for (const Iv& iv : clip(ivs, t0, t_end)) {
        all_compute.push_back(iv);
        if (iv.hi > chain_end) {
          chain_end = iv.hi;
          bd.critical_node = node;
        }
      }
    }
    for (const auto& [node, ivs] : img.assemble) {
      for (const Iv& iv : clip(ivs, t0, t_end)) {
        all_assemble.push_back(iv);
        if (iv.hi > chain_end) {
          chain_end = iv.hi;
          bd.critical_node = node;
        }
      }
    }

    // Wall-clock partition of [t0, t_end] by priority: scatter, then time
    // at least one provider was computing this image, then input waits not
    // hidden by compute, then the tail between the last provider event and
    // the gather's close. Providers run in parallel, so per-node intervals
    // are unioned, not summed — the components decompose the image's
    // latency window, not total device-time.
    const std::vector<Iv> scatter =
        clip({{img.scatter_lo, img.scatter_hi}}, t0, t_end);
    bd.scatter_us = total(scatter);
    if (bd.critical_node >= 0) {
      const std::vector<Iv> comp = subtract(merge_union(all_compute), scatter);
      std::vector<Iv> halo = subtract(merge_union(all_assemble), scatter);
      halo = subtract(halo, comp);
      const std::vector<Iv> tail =
          subtract(clip({{chain_end, t_end}}, t0, t_end), scatter);
      bd.compute_us = total(comp);
      bd.halo_wait_us = total(halo);
      bd.gather_wait_us = total(tail);
    }
    bd.unattributed_us = bd.e2e_us - bd.scatter_us - bd.compute_us -
                         bd.halo_wait_us - bd.gather_wait_us;

    if (bd.critical_node >= 0) ++critical_count[bd.critical_node];
    report.images.push_back(bd);
  }

  report.images_attributed = static_cast<std::int64_t>(report.images.size());
  for (const auto& [node, n] : critical_count) {
    DeviceStraggler d;
    d.node = node;
    d.images_critical = n;
    d.score = report.images_attributed > 0
                  ? static_cast<double>(n) /
                        static_cast<double>(report.images_attributed)
                  : 0;
    report.devices.push_back(d);
  }
  return report;
}

}  // namespace de::obs
