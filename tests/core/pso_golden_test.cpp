// Golden regression for the PSO partitioner's exact output.
//
// The swarm's RNG draw sequence and every floating-point decision in the
// velocity update, binarization and repair are a contract: a fast path that
// changes one draw or one comparison would shift the whole trajectory while
// the toy-graph tests in pso_test.cpp (which pin only tiny optima) stay
// green.  These cases pin the complete PsoResult — best cost, a digest of the
// best assignment, the per-iteration Gbest history, the evaluation count and
// the iteration count — on a mid-size community graph, at one and at four
// fitness-evaluation threads.  Any intentional change to the PSO stream must
// re-pin the constants below and say so in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/fnv1a.hpp"
#include "core/pso.hpp"
#include "snn/graph.hpp"
#include "util/rng.hpp"

namespace snnmap::core {
namespace {

/// N = 1000 neurons in 25 communities of 40, interleaved by id (community =
/// id mod 25) so neither the id order nor the baselines expose them.  Each
/// neuron sends six synapses into its own community and one to a random
/// neuron; spike counts are 0..7, so silent neurons occur too.  The
/// community structure gives the swarm a long, steady descent, which makes
/// the Gbest history sensitive to every draw.
snn::SnnGraph community_graph() {
  constexpr std::uint32_t kCommunities = 25;
  constexpr std::uint32_t kNeurons = 1000;
  util::Rng rng(2024);
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t pre = 0; pre < kNeurons; ++pre) {
    for (int f = 0; f < 6; ++f) {
      const auto member = static_cast<std::uint32_t>(
          rng.below(kNeurons / kCommunities));
      const std::uint32_t post = member * kCommunities + pre % kCommunities;
      if (post != pre) edges.push_back({pre, post, 1.0F});
    }
    const auto post = static_cast<std::uint32_t>(rng.below(kNeurons));
    if (post != pre) edges.push_back({pre, post, 1.0F});
  }
  std::vector<snn::SpikeTrain> trains;
  for (std::uint32_t i = 0; i < kNeurons; ++i) {
    snn::SpikeTrain train;
    const auto spikes = rng.below(8);
    for (std::uint64_t s = 0; s < spikes; ++s) {
      train.push_back(static_cast<double>(s) + 0.5);
    }
    trains.push_back(std::move(train));
  }
  return snn::SnnGraph::from_parts(kNeurons, std::move(edges),
                                   std::move(trains), 10.0);
}

std::uint64_t assignment_digest(const Partition& p) {
  test::Fnv1a h;
  for (const CrossbarId k : p.assignment()) h.mix(std::uint64_t{k});
  return h.value();
}

struct Golden {
  std::uint64_t best_cost;
  std::uint64_t assignment_fnv;
  std::vector<std::uint64_t> history;
  std::uint64_t fitness_evaluations;
  std::uint32_t iterations_run;
};

void expect_golden(const PsoConfig& base, const hw::Architecture& arch,
                   const Golden& golden) {
  const auto graph = community_graph();
  for (const std::uint32_t threads : {1U, 4U}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PsoConfig config = base;
    config.threads = threads;
    config.track_history = true;
    const PsoResult r = PsoPartitioner(graph, arch, config).optimize();
    EXPECT_EQ(r.best_cost, golden.best_cost);
    EXPECT_EQ(assignment_digest(r.best), golden.assignment_fnv);
    EXPECT_EQ(r.history, golden.history);
    EXPECT_EQ(r.fitness_evaluations, golden.fitness_evaluations);
    EXPECT_EQ(r.iterations_run, golden.iterations_run);
  }
}

/// The pure swarm on the AER-packet fitness: no baseline seeding and no
/// memetic refinement, so every Gbest step in the history comes from the
/// velocity update, binarization and repair.  Five crossbars of 256 leave
/// 28% spare capacity, so both the one-hot and the capacity repair stay
/// busy.
TEST(PsoGolden, PureSwarmFiveCrossbars) {
  hw::Architecture arch;
  arch.crossbar_count = 5;
  arch.neurons_per_crossbar = 256;
  PsoConfig config;
  config.swarm_size = 20;
  config.iterations = 12;
  config.seed = 42;
  config.seed_with_baselines = false;
  config.refine_sweeps = 0;
  config.refine_swap_factor = 0;
  expect_golden(config, arch,
                {10030,
                 2201441649508527170ULL,
                 {10097, 10097, 10068, 10068, 10068, 10068, 10068, 10056,
                  10056, 10056, 10030, 10030},
                 240,
                 12});
}

/// Default constants with memetic refinement on (baselines off, so the
/// refinement only fires when the swarm itself improves on Gbest).
TEST(PsoGolden, RefinedSwarmSixCrossbars) {
  hw::Architecture arch;
  arch.crossbar_count = 6;
  arch.neurons_per_crossbar = 200;
  PsoConfig config;
  config.swarm_size = 12;
  config.iterations = 10;
  config.seed = 3;
  config.seed_with_baselines = false;
  expect_golden(config, arch,
                {3511,
                 18387709126729446662ULL,
                 {3511, 3511, 3511, 3511, 3511, 3511, 3511, 3511, 3511, 3511},
                 120,
                 10});
}

/// A tighter velocity clamp, the cut-spike objective (no refinement) and no
/// baseline seeding on 9 crossbars of 128: exercises a different sigmoid
/// range and more crossbars per neuron.
TEST(PsoGolden, CutSpikesNarrowClampNineCrossbars) {
  hw::Architecture arch;
  arch.crossbar_count = 9;
  arch.neurons_per_crossbar = 128;
  PsoConfig config;
  config.swarm_size = 16;
  config.iterations = 10;
  config.seed = 7;
  config.v_max = 2.5;
  config.inertia = 0.6;
  config.objective = Objective::kCutSpikes;
  config.seed_with_baselines = false;
  expect_golden(config, arch,
                {20199,
                 9965993543895584619ULL,
                 {20412, 20412, 20412, 20389, 20389, 20316, 20316, 20199,
                  20199, 20199},
                 160,
                 10});
}

}  // namespace
}  // namespace snnmap::core
