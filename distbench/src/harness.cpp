#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

#include "runtime/cluster.hpp"

namespace distbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(0.0, rank - 1));
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

Tenant make_tenant(cnn::CnnModel model, int n_inputs, Rng& rng) {
  Tenant t{std::move(model), {}, {}, {}};
  t.weights = runtime::random_weights(t.model, rng);
  for (int k = 0; k < n_inputs; ++k) {
    cnn::Tensor in(t.model.input_h(), t.model.input_w(), t.model.input_c());
    for (auto& v : in.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    t.refs.push_back(runtime::run_reference(t.model, t.weights, in));
    t.inputs.push_back(std::move(in));
  }
  return t;
}

Fleet::Fleet(const FleetSpec& spec, std::span<const Tenant* const> tenants,
             std::span<const sim::RawStrategy> strategies)
    : built_at_(Clock::now()),
      fabric_(runtime::make_fabric(kDevices, spec.use_tcp, nullptr,
                                   runtime::DataPlaneMode::kOverlapZeroCopy,
                                   spec.shaping)) {
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    fleet_models_.push_back({&tenants[k]->model, &tenants[k]->weights});
    specs_.push_back(
        {&tenants[k]->model, &tenants[k]->weights, strategies[k]});
  }
  providers_ = runtime::spawn_providers_multi(
      fabric_, kDevices, fleet_models_, stats_, {},
      spec.tile_pool ? cnn::ExecContext::fast_shared()
                     : cnn::ExecContext::fast(),
      runtime::DataPlaneMode::kOverlapZeroCopy, spec.telemetry_every);
  serve::StreamServerOptions options;
  options.max_streams = spec.max_streams;
  options.admin = spec.admin;
  if (spec.admin != nullptr) options.node_origins = &fabric_.node_origin_us;
  server_ = std::make_unique<serve::StreamServer>(
      fabric_.requester(), kDevices, specs_, stats_, options);
}

Fleet::~Fleet() {
  server_->close();
  server_.reset();
  providers_.join_all();
}

namespace {

/// Picks the next input of a stream and copies it outside any timed span.
struct Pick {
  int idx = 0;
  cnn::Tensor input;
};

Pick pick(const Tenant& tenant, Rng& rng) {
  const int idx =
      rng.uniform_int(0, static_cast<int>(tenant.inputs.size()) - 1);
  return {idx, tenant.inputs[static_cast<std::size_t>(idx)]};
}

bool exact(const std::optional<cnn::Tensor>& out, const Tenant& tenant,
           int idx) {
  return out.has_value() &&
         out->data == tenant.refs[static_cast<std::size_t>(idx)].data;
}

}  // namespace

double PhaseStats::ips() const {
  const double span = last_delivery_s > 0 ? last_delivery_s : window_s;
  return span > 0 ? static_cast<double>(delivered_in_window) / span : 0;
}

void PhaseStats::add(const PhaseStats& other) {
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  submitted += other.submitted;
  failed += other.failed;
  refused += other.refused;
  delivered += other.delivered;
  delivered_in_window += other.delivered_in_window;
  last_delivery_s = std::max(last_delivery_s, other.last_delivery_s);
  append(latency_ms, other.latency_ms);
  append(submit_block_ms, other.submit_block_ms);
  append(pop_wait_ms, other.pop_wait_ms);
  append(gen_lag_ms, other.gen_lag_ms);
}

PhaseStats closed_loop(serve::StreamServer& server,
                       std::span<const StreamLoad> loads, double seconds,
                       int threads, std::uint64_t seed,
                       const std::function<void()>& midpoint) {
  threads = std::clamp(threads, 1, static_cast<int>(loads.size()));
  std::vector<PhaseStats> per(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const auto t_mid = t0 + span / 2;
  const auto t_end = t0 + span;

  const auto body = [&](int t) {
    PhaseStats& st = per[static_cast<std::size_t>(t)];
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(t));
    struct Pending {
      Clock::time_point at;
      int idx = 0;
    };
    std::vector<std::size_t> mine;
    for (std::size_t s = t; s < loads.size(); s += threads) mine.push_back(s);
    std::vector<std::deque<Pending>> pending(loads.size());
    bool mid_done = !midpoint || t != 0;

    const auto submit_one = [&](std::size_t s) {
      const StreamLoad& load = loads[s];
      Pick next = pick(*load.tenant, rng);
      const auto t_sub = Clock::now();
      const bool ok = server.submit(load.id, std::move(next.input));
      st.submit_block_ms.push_back(ms_between(t_sub, Clock::now()));
      ++st.submitted;
      if (ok) {
        pending[s].push_back({t_sub, next.idx});
      } else {
        ++st.failed;
        ++st.refused;
      }
    };

    for (const std::size_t s : mine) {
      for (int k = 0; k < loads[s].window; ++k) submit_one(s);
    }
    for (bool any = true; any;) {
      any = false;
      for (const std::size_t s : mine) {
        if (pending[s].empty()) continue;
        any = true;
        const auto t_pop = Clock::now();
        const auto out = server.pop(loads[s].id);
        const auto t_ret = Clock::now();
        st.pop_wait_ms.push_back(ms_between(t_pop, t_ret));
        const Pending p = pending[s].front();
        pending[s].pop_front();
        if (!exact(out, *loads[s].tenant, p.idx)) {
          ++st.failed;
        } else {
          ++st.delivered;
          if (t_ret <= t_end) {
            ++st.delivered_in_window;
            st.latency_ms.push_back(ms_between(p.at, t_ret));
            st.last_delivery_s = ms_between(t0, t_ret) * 1e-3;
          }
        }
        if (!mid_done && t_ret >= t_mid) {
          midpoint();
          mid_done = true;
        }
        if (t_ret < t_end && out.has_value()) submit_one(s);
      }
    }
  };

  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& th : pool) th.join();

  PhaseStats total;
  total.window_s = seconds;
  for (const auto& part : per) total.add(part);
  return total;
}

PhaseStats open_loop(serve::StreamServer& server,
                     std::span<const StreamLoad> loads, double rate,
                     double seconds, std::uint64_t seed,
                     const std::function<void()>& midpoint) {
  struct Arrival {
    double at_s = 0;
    std::size_t stream = 0;
    int idx = 0;
  };
  Rng rng(seed);
  std::vector<Arrival> schedule;
  for (double at = 0;;) {
    at += -std::log(1.0 - rng.uniform()) / rate;
    if (at >= seconds) break;
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(loads.size()) - 1));
    const int idx = rng.uniform_int(
        0, static_cast<int>(loads[s].tenant->inputs.size()) - 1);
    schedule.push_back({at, s, idx});
  }

  // One queue and one consumer per stream: records are that stream's
  // accepted submissions, in submission order, which is pop() order.
  struct Record {
    Clock::time_point due;
    int idx = 0;
  };
  struct Queue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Record> records;
    bool done = false;
  };
  std::vector<Queue> queues(loads.size());
  std::vector<PhaseStats> per(loads.size() + 1);

  const auto consume = [&](std::size_t s) {
    PhaseStats& st = per[s];
    Queue& q = queues[s];
    for (;;) {
      Record r;
      {
        std::unique_lock lock(q.mu);
        q.cv.wait(lock, [&] { return q.done || !q.records.empty(); });
        if (q.records.empty()) return;
        r = q.records.front();
        q.records.pop_front();
      }
      const auto t_pop = Clock::now();
      const auto out = server.pop(loads[s].id);
      const auto t_ret = Clock::now();
      st.pop_wait_ms.push_back(ms_between(t_pop, t_ret));
      if (!exact(out, *loads[s].tenant, r.idx)) {
        ++st.failed;
      } else {
        ++st.delivered;
        ++st.delivered_in_window;
        st.latency_ms.push_back(ms_between(r.due, t_ret));
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t s = 0; s < loads.size(); ++s) pool.emplace_back(consume, s);

  PhaseStats& gen = per.back();
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  bool mid_done = !midpoint;
  for (const Arrival& a : schedule) {
    cnn::Tensor input = loads[a.stream].tenant->inputs[
        static_cast<std::size_t>(a.idx)];
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(a.at_s));
    if (!mid_done && a.at_s >= seconds / 2) {
      midpoint();
      mid_done = true;
    }
    std::this_thread::sleep_until(due);
    const auto t_sub = Clock::now();
    gen.gen_lag_ms.push_back(ms_between(due, t_sub));
    const bool ok = server.submit(loads[a.stream].id, std::move(input));
    gen.submit_block_ms.push_back(ms_between(t_sub, Clock::now()));
    ++gen.submitted;
    if (!ok) {
      ++gen.failed;
      ++gen.refused;
      continue;
    }
    Queue& q = queues[a.stream];
    {
      std::lock_guard lock(q.mu);
      q.records.push_back({due, a.idx});
    }
    q.cv.notify_one();
  }
  for (auto& q : queues) {
    {
      std::lock_guard lock(q.mu);
      q.done = true;
    }
    q.cv.notify_one();
  }
  for (auto& th : pool) th.join();

  PhaseStats total;
  total.window_s = seconds;
  for (const auto& part : per) total.add(part);
  return total;
}

std::int64_t warm_up(serve::StreamServer& server,
                     std::span<const StreamLoad> loads, int count) {
  std::int64_t failed = 0;
  for (const auto& load : loads) {
    const auto& tenant = *load.tenant;
    const auto n_inputs = static_cast<int>(tenant.inputs.size());
    int popped = 0;
    for (int sent = 0; sent < count; ++sent) {
      if (sent - popped == load.window) {
        if (!exact(server.pop(load.id), tenant, popped % n_inputs)) ++failed;
        ++popped;
      }
      const auto idx = static_cast<std::size_t>(sent % n_inputs);
      if (!server.submit(load.id, tenant.inputs[idx])) ++failed;
    }
    for (; popped < count; ++popped) {
      if (!exact(server.pop(load.id), tenant, popped % n_inputs)) ++failed;
    }
  }
  return failed;
}

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<std::int64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

namespace {

/// The numeric field `key` of /proc/self/status (0 when absent).
double status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  return 0;
}

int current_threads() { return static_cast<int>(status_field("Threads:")); }

}  // namespace

double peak_rss_mb() { return status_field("VmHWM:") / 1024.0; }

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu h;
  for (int field = 0; field < 8; ++field) {
    std::int64_t ticks = 0;
    if (!(in >> ticks)) break;
    h.total += ticks;
    if (field == 7) h.steal = ticks;
  }
  return h;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
  const auto total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0;
}

struct ThreadSampler::State {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  int peak = 0;
  std::thread thread;
};

ThreadSampler::ThreadSampler() : state_(std::make_unique<State>()) {
  state_->peak = current_threads();
  state_->thread = std::thread([s = state_.get()] {
    std::unique_lock lock(s->mu);
    while (!s->cv.wait_for(lock, std::chrono::milliseconds(20),
                           [s] { return s->stop; })) {
      s->peak = std::max(s->peak, current_threads());
    }
  });
}

ThreadSampler::~ThreadSampler() {
  {
    std::lock_guard lock(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_one();
  state_->thread.join();
}

int ThreadSampler::peak() const {
  std::lock_guard lock(state_->mu);
  return state_->peak;
}

}  // namespace distbench
