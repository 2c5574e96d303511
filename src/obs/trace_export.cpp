#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace de::obs {

void ClockSyncBook::ingest(int node, std::int64_t reported_us,
                           std::int64_t received_us) {
  std::lock_guard lk(mu_);
  const auto it = std::find_if(samples_.begin(), samples_.end(),
                               [node](const ClockSample& s) {
                                 return s.node == node;
                               });
  if (it == samples_.end()) {
    samples_.push_back({node, reported_us, received_us});
  } else if (received_us - reported_us < it->received_us - it->reported_us) {
    *it = {node, reported_us, received_us};
  }
}

std::vector<std::int64_t> ClockSyncBook::offsets_us(int n_nodes) const {
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n_nodes),
                                    kNoOffset);
  std::lock_guard lk(mu_);
  for (const auto& s : samples_) {
    if (s.node < 0 || s.node >= n_nodes) continue;
    const std::int64_t diff = s.received_us - s.reported_us;
    auto& slot = offsets[static_cast<std::size_t>(s.node)];
    if (slot == kNoOffset || diff < slot) slot = diff;
  }
  return offsets;
}

std::vector<ClockSample> ClockSyncBook::samples() const {
  std::lock_guard lk(mu_);
  return samples_;
}

MergedTrace merge_capture(const TraceCapture& capture) {
  MergedTrace merged;
  const int n_nodes = capture.n_nodes();
  const int collector = capture.requester_node();

  // Per-node shift applied to process-steady timestamps. In-process all
  // nodes share one physical clock, so origin arithmetic alone would merge
  // exactly; the sync-book estimate is preferred where available because it
  // is what a genuinely distributed deployment would have. The estimated
  // offset maps node-local -> collector-local time; composing with the two
  // origins maps process time of node n back to process time as the
  // collector would stamp it.
  const std::vector<std::int64_t> est =
      capture.sync.offsets_us(n_nodes);
  merged.offsets_us.assign(static_cast<std::size_t>(std::max(n_nodes, 0)),
                           0);
  const std::int64_t collector_origin =
      collector >= 0 ? capture.node_origin_us[collector] : 0;
  for (int n = 0; n < n_nodes; ++n) {
    if (n == collector) continue;
    const std::int64_t origin = capture.node_origin_us[n];
    if (est[static_cast<std::size_t>(n)] != ClockSyncBook::kNoOffset) {
      // process_ts - origin[n] = node-local; + offset = collector-local;
      // + origin[collector] = collector's process timebase.
      merged.offsets_us[static_cast<std::size_t>(n)] =
          est[static_cast<std::size_t>(n)] - origin + collector_origin;
    } else {
      merged.offsets_us[static_cast<std::size_t>(n)] = 0;  // shared clock
    }
  }

  merged.dropped = capture.dump.total_dropped();
  for (const auto& thread : capture.dump.threads) {
    const int ti = static_cast<int>(merged.threads.size());
    merged.threads.push_back({thread.name, thread.node});
    const std::int64_t shift =
        (thread.node >= 0 && thread.node < n_nodes)
            ? merged.offsets_us[static_cast<std::size_t>(thread.node)]
            : 0;
    for (TraceEvent ev : thread.events) {
      ev.ts_us += shift;
      merged.events.push_back({ev, ti});
    }
  }
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.event.ts_us < b.event.ts_us;
                   });
  return merged;
}

namespace {

/// JSON-escapes into `out` (thread names are ASCII role strings, but be
/// safe about quotes/backslashes/control bytes anyway).
void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const MergedTrace& merged) {
  // Chrome trace-event "JSON object format": traceEvents array plus
  // metadata events naming processes (nodes) and threads. pid = node id
  // (+1 so node -1 / unbound maps to pid 0), tid = thread index.
  os << "{\"traceEvents\":[\n";
  std::string line;
  bool first = true;
  auto emit = [&](const std::string& ev_json) {
    if (!first) os << ",\n";
    first = false;
    os << ev_json;
  };

  // Metadata: process names once per distinct node, thread names per track.
  std::vector<int> nodes_seen;
  for (std::size_t ti = 0; ti < merged.threads.size(); ++ti) {
    const auto& t = merged.threads[ti];
    const int pid = t.node + 1;
    if (std::find(nodes_seen.begin(), nodes_seen.end(), t.node) ==
        nodes_seen.end()) {
      nodes_seen.push_back(t.node);
      line.clear();
      line += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
      line += std::to_string(pid);
      line += ",\"tid\":0,\"args\":{\"name\":\"";
      line += t.node < 0 ? "unbound" : "node-" + std::to_string(t.node);
      line += "\"}}";
      emit(line);
    }
    line.clear();
    line += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    line += std::to_string(pid);
    line += ",\"tid\":";
    line += std::to_string(ti);
    line += ",\"args\":{\"name\":\"";
    append_escaped(line, t.name.empty() ? "thread-" + std::to_string(ti)
                                        : t.name);
    line += "\"}}";
    emit(line);
  }

  char buf[256];
  for (const auto& me : merged.events) {
    const TraceEvent& ev = me.event;
    const auto& t = merged.threads[static_cast<std::size_t>(me.thread_index)];
    const int pid = t.node + 1;
    const char* name = cat_name(static_cast<Cat>(ev.cat));
    line.clear();
    if (ev.dur_us >= 0) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%lld,\"dur\":%d",
                    name, name, pid, me.thread_index,
                    static_cast<long long>(ev.ts_us), ev.dur_us);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"cat\":"
                    "\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%lld",
                    name, name, pid, me.thread_index,
                    static_cast<long long>(ev.ts_us));
    }
    line += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"image\":%d,\"volume\":%d,\"epoch\":%d,"
                  "\"stream\":%d,\"arg\":%lld}}",
                  ev.seq, ev.volume, ev.epoch, ev.stream,
                  static_cast<long long>(ev.arg));
    line += buf;
    emit(line);
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
     << merged.dropped << "}}\n";
}

bool write_chrome_trace(const std::string& path, const MergedTrace& merged) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, merged);
  return os.good();
}

MergedTrace trim_to_window(MergedTrace merged, std::int64_t window_us) {
  if (window_us <= 0 || merged.events.empty()) return merged;
  std::int64_t latest = std::numeric_limits<std::int64_t>::min();
  for (const auto& me : merged.events) {
    const std::int64_t end =
        me.event.ts_us + (me.event.dur_us > 0 ? me.event.dur_us : 0);
    latest = std::max(latest, end);
  }
  const std::int64_t cutoff = latest - window_us;
  std::erase_if(merged.events, [cutoff](const MergedEvent& me) {
    const std::int64_t end =
        me.event.ts_us + (me.event.dur_us > 0 ? me.event.dur_us : 0);
    return end < cutoff;
  });
  return merged;
}

std::vector<CategoryTotal> span_totals_by_node(const MergedTrace& merged) {
  // Dense (node+1) x category accumulation; nodes are tiny ints.
  int max_node = -1;
  for (const auto& t : merged.threads) max_node = std::max(max_node, t.node);
  const std::size_t n_cats = static_cast<std::size_t>(Cat::kCount);
  const std::size_t rows = static_cast<std::size_t>(max_node + 2);
  std::vector<std::int64_t> total(rows * n_cats, 0);
  std::vector<std::int64_t> spans(rows * n_cats, 0);
  for (const auto& me : merged.events) {
    if (me.event.dur_us < 0) continue;
    const auto& t = merged.threads[static_cast<std::size_t>(me.thread_index)];
    const std::size_t row = static_cast<std::size_t>(t.node + 1);
    const std::size_t idx = row * n_cats + me.event.cat;
    total[idx] += me.event.dur_us;
    spans[idx] += 1;
  }
  std::vector<CategoryTotal> out;
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t c = 0; c < n_cats; ++c) {
      const std::size_t idx = row * n_cats + c;
      if (spans[idx] == 0) continue;
      out.push_back({static_cast<int>(row) - 1, static_cast<Cat>(c),
                     total[idx], spans[idx]});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CategoryTotal& a, const CategoryTotal& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.total_us > b.total_us;
            });
  return out;
}

}  // namespace de::obs
