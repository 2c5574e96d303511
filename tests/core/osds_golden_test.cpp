// Golden values for the OSDS planner and the DDPG updates it runs.
//
// The nn/ kernels are vectorised per dispatch target under the rule that no
// target may change one bit of what they compute. These tests pin the exact
// output of the scalar kernels the vectorised ones replaced, on the
// benchmarked planning workload (resnet50 on group_DB(100)) and on a run of
// DDPG updates: the best latency's exact bits, every cut, and an FNV-1a hash
// of every trained weight. A reordered sum, a skipped term or a fused
// multiply-add anywhere on the training path changes the hash.
//
// The pins also depend on what the kernels do not control: libm (tanh for
// the actor output, pow in Adam and the OSDS epsilon schedule, log/sin/cos
// in Rng's Gaussian noise) and the compiler. They were captured with GCC
// 12.2 and glibc 2.36 on x86-64. If a toolchain or libm change alone turns
// these tests red, the kernels are not at fault: recapture the values on
// the commit before the change and pin those.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/distredge.hpp"
#include "experiments/scenarios.hpp"
#include "rl/ddpg.hpp"

namespace de::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash of every actor and critic parameter, in parameters() order.
std::uint64_t weights_hash(rl::Ddpg& agent) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (nn::Mlp* net : {&agent.actor(), &agent.critic()}) {
    for (const nn::Matrix* m : net->parameters()) {
      h = fnv1a(h, m->data(), m->size() * sizeof(float));
    }
  }
  return h;
}

TEST(OsdsGolden, Resnet50GroupDbPlanIsBitIdentical) {
  auto scenario = experiments::group_DB(100);
  scenario.model_name = "resnet50";
  const auto built = experiments::build(scenario);
  DistrEdgeConfig config = DistrEdgeConfig::fast();
  // ~600 DDPG updates: enough to find the 500-episode plan, and quick
  // enough for an unoptimised build.
  config.osds.max_episodes = 120;
  DistrEdgePlanner planner(config);
  const DistributionStrategy strategy = planner.plan(built.context());
  const OsdsResult& osds = planner.last_osds();

  EXPECT_EQ(std::bit_cast<std::uint64_t>(osds.best_ms), 0x4044e9b16ffb698bULL)
      << "best_ms " << osds.best_ms << " (want 41.82572746063223)";
  EXPECT_EQ(strategy.boundaries, (std::vector<int>{0, 15, 27, 33, 45, 50}));
  const std::vector<std::vector<int>> want_cuts = {
      {0, 8, 23, 24, 28},
      {0, 0, 14, 14, 14},
      {0, 0, 14, 14, 14},
      {0, 0, 7, 7, 7},
      {0, 0, 7, 7, 7},
  };
  ASSERT_EQ(strategy.splits.size(), want_cuts.size());
  for (std::size_t v = 0; v < want_cuts.size(); ++v) {
    EXPECT_EQ(strategy.splits[v].cuts, want_cuts[v]) << "volume " << v;
  }
  EXPECT_EQ(weights_hash(*osds.agent), 0x1fdb9defaee2ff18ULL);
}

TEST(DdpgGolden, TrainStepWeightsAreBitIdentical) {
  rl::DdpgConfig config;
  config.state_dim = 8;
  config.action_dim = 3;
  config.actor_hidden = {96, 64};
  config.critic_hidden = {128, 96, 48};
  config.batch_size = 32;
  Rng rng(11);
  rl::Ddpg agent(config, rng);
  rl::ReplayBuffer buffer(512, config.state_dim, config.action_dim);
  for (int i = 0; i < 256; ++i) {
    rl::Transition t;
    for (std::size_t j = 0; j < config.state_dim; ++j) {
      t.state.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      t.next_state.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
    for (std::size_t j = 0; j < config.action_dim; ++j) {
      t.action.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
    t.reward = static_cast<float>(rng.uniform(0.0, 2.0));
    t.terminal = i % 16 == 15;
    buffer.push(std::move(t));
  }
  double loss_sum = 0.0;
  for (int step = 0; step < 200; ++step) loss_sum += agent.train_step(buffer, rng);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(loss_sum), 0x404ed880ae1ba5f3ULL)
      << "loss_sum " << loss_sum << " (want 61.691427005291096)";
  EXPECT_EQ(weights_hash(agent), 0xcbf1703b49933704ULL);
}

}  // namespace
}  // namespace de::core
