#include "core/pso.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {
namespace {

/// Two 6-neuron cliques joined by a single bridge edge.  The optimal 2-way
/// partition (capacity 6) puts each clique on its own crossbar, cutting only
/// the bridge.
snn::SnnGraph two_cliques() {
  std::vector<snn::GraphEdge> edges;
  const auto clique = [&edges](std::uint32_t base) {
    for (std::uint32_t a = 0; a < 6; ++a) {
      for (std::uint32_t b = 0; b < 6; ++b) {
        if (a != b) edges.push_back({base + a, base + b, 1.0F});
      }
    }
  };
  clique(0);
  clique(6);
  edges.push_back({0, 6, 1.0F});  // bridge
  std::vector<snn::SpikeTrain> trains(12, snn::SpikeTrain{1.0, 2.0, 3.0});
  return snn::SnnGraph::from_parts(12, std::move(edges), std::move(trains),
                                   10.0);
}

/// The cliques interleaved in declaration order (worst case for PACMAN):
/// even ids belong to clique A, odd ids to clique B.
snn::SnnGraph interleaved_cliques() {
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t a = 0; a < 12; a += 2) {
    for (std::uint32_t b = 0; b < 12; b += 2) {
      if (a != b) edges.push_back({a, b, 1.0F});
    }
  }
  for (std::uint32_t a = 1; a < 12; a += 2) {
    for (std::uint32_t b = 1; b < 12; b += 2) {
      if (a != b) edges.push_back({a, b, 1.0F});
    }
  }
  std::vector<snn::SpikeTrain> trains(12, snn::SpikeTrain{1.0, 2.0, 3.0});
  return snn::SnnGraph::from_parts(12, std::move(edges), std::move(trains),
                                   10.0);
}

hw::Architecture arch_2x6() {
  hw::Architecture arch;
  arch.crossbar_count = 2;
  arch.neurons_per_crossbar = 6;
  return arch;
}

TEST(Pso, FindsTheObviousCut) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 40;
  config.iterations = 60;
  config.seed = 1;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  // Optimal cut = the bridge only = 3 spikes (neuron 0 fires 3 times).
  EXPECT_EQ(result.best_cost, 3u);
  result.best.validate(arch_2x6());
}

TEST(Pso, BeatsPacmanOnInterleavedLayout) {
  const auto g = interleaved_cliques();
  const CostModel cost(g);
  const auto pacman_cost =
      cost.multicast_packet_count(pacman_partition(g, arch_2x6()));
  PsoConfig config;
  config.swarm_size = 40;
  config.iterations = 60;
  config.seed = 2;
  config.seed_with_baselines = false;  // make it earn the win
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  EXPECT_LT(result.best_cost, pacman_cost);
  EXPECT_EQ(result.best_cost, 0u);  // cliques are separable
}

TEST(Pso, SeedingGuaranteesNoWorseThanBaselines) {
  const auto g = two_cliques();
  const CostModel cost(g);
  const auto arch = arch_2x6();
  const auto pacman_cost =
      cost.multicast_packet_count(pacman_partition(g, arch));
  const auto neutrams_cost =
      cost.multicast_packet_count(neutrams_partition(g, arch));
  PsoConfig config;
  config.swarm_size = 5;
  config.iterations = 2;  // almost no optimization: seeding must carry it
  config.seed_with_baselines = true;
  PsoPartitioner pso(g, arch, config);
  const auto result = pso.optimize();
  EXPECT_LE(result.best_cost, std::min(pacman_cost, neutrams_cost));
}

TEST(Pso, ResultSatisfiesConstraints) {
  const auto g = interleaved_cliques();
  hw::Architecture arch;
  arch.crossbar_count = 4;
  arch.neurons_per_crossbar = 4;  // tight capacity forces repair activity
  PsoConfig config;
  config.swarm_size = 20;
  config.iterations = 20;
  PsoPartitioner pso(g, arch, config);
  const auto result = pso.optimize();
  EXPECT_NO_THROW(result.best.validate(arch));
}

TEST(Pso, DeterministicForSameSeed) {
  const auto g = interleaved_cliques();
  PsoConfig config;
  config.swarm_size = 15;
  config.iterations = 15;
  config.seed = 77;
  const auto a = PsoPartitioner(g, arch_2x6(), config).optimize();
  const auto b = PsoPartitioner(g, arch_2x6(), config).optimize();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best, b.best);
}

TEST(Pso, HistoryIsMonotoneNonIncreasing) {
  const auto g = interleaved_cliques();
  PsoConfig config;
  config.swarm_size = 20;
  config.iterations = 30;
  config.track_history = true;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  ASSERT_EQ(result.history.size(), 30u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
  EXPECT_EQ(result.history.back(), result.best_cost);
}

TEST(Pso, LargerSwarmsDoNoWorse) {
  // The Fig. 7 premise: more particles -> better (or equal) optimum at a
  // fixed iteration budget.
  const auto g = interleaved_cliques();
  PsoConfig small;
  small.swarm_size = 4;
  small.iterations = 15;
  small.seed = 5;
  small.seed_with_baselines = false;
  PsoConfig large = small;
  large.swarm_size = 64;
  const auto small_cost =
      PsoPartitioner(g, arch_2x6(), small).optimize().best_cost;
  const auto large_cost =
      PsoPartitioner(g, arch_2x6(), large).optimize().best_cost;
  EXPECT_LE(large_cost, small_cost);
}

TEST(Pso, PatienceStopsEarly) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 30;
  config.iterations = 200;
  config.patience = 5;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  EXPECT_LT(result.iterations_run, 200u);
  EXPECT_EQ(result.best_cost, 3u);  // still finds the optimum
}

TEST(Pso, RejectsOversizedNetworks) {
  const auto g = two_cliques();
  hw::Architecture arch;
  arch.crossbar_count = 2;
  arch.neurons_per_crossbar = 4;  // capacity 8 < 12 neurons
  EXPECT_THROW(PsoPartitioner(g, arch, {}), std::invalid_argument);
}

TEST(Pso, RejectsEmptySwarm) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 0;
  EXPECT_THROW(PsoPartitioner(g, arch_2x6(), config), std::invalid_argument);
}

TEST(Pso, RejectsZeroIterations) {
  // Zero iterations would leave Gbest empty and index it.
  const auto g = two_cliques();
  PsoConfig config;
  config.iterations = 0;
  EXPECT_THROW(PsoPartitioner(g, arch_2x6(), config), std::invalid_argument);
}

TEST(Pso, RejectsVmaxThatIsNotFinitePositive) {
  // std::clamp(v, -v_max, v_max) needs v_max >= 0; the sigmoid bounds table
  // needs a finite, nonzero range.
  const auto g = two_cliques();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v_max :
       {-1.0, 0.0, -0.0, kInf, -kInf, std::nan("")}) {
    PsoConfig config;
    config.v_max = v_max;
    EXPECT_THROW(PsoPartitioner(g, arch_2x6(), config), std::invalid_argument)
        << "v_max=" << v_max;
  }
}

TEST(Pso, RejectsNonFiniteInertia) {
  const auto g = two_cliques();
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::nan("")}) {
    PsoConfig config;
    config.inertia = bad;
    EXPECT_THROW(PsoPartitioner(g, arch_2x6(), config), std::invalid_argument);
  }
}

TEST(Pso, RejectsNonFiniteAccelerationConstants) {
  const auto g = two_cliques();
  for (const double bad : {-std::numeric_limits<double>::infinity(),
                           std::nan("")}) {
    PsoConfig phi1;
    phi1.phi1 = bad;
    EXPECT_THROW(PsoPartitioner(g, arch_2x6(), phi1), std::invalid_argument);
    PsoConfig phi2;
    phi2.phi2 = bad;
    EXPECT_THROW(PsoPartitioner(g, arch_2x6(), phi2), std::invalid_argument);
  }
}

TEST(Pso, AcceptsUnusualButFiniteConstants) {
  // Negative or zero inertia/phi are odd choices, not invalid ones.
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 4;
  config.iterations = 3;
  config.inertia = -0.5;
  config.phi1 = 0.0;
  config.phi2 = -1.0;
  for (const double v_max : {1e-3, 1e300}) {
    config.v_max = v_max;
    PsoPartitioner pso(g, arch_2x6(), config);
    EXPECT_NO_THROW(pso.optimize().best.validate(arch_2x6()));
  }
}

TEST(Pso, CountsFitnessEvaluations) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 10;
  config.iterations = 7;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  EXPECT_EQ(result.fitness_evaluations, 70u);
}

// --- SigmoidBounds: the binarization's bit test must equal the exact
// expression u < 1 / (1 + exp(-v)) for every draw and every velocity.

/// The decision as Eq. 2 has always been evaluated, written out
/// independently of SigmoidBounds.
bool reference_bit(std::uint64_t u53, double v) {
  return static_cast<double>(u53) * 0x1.0p-53 < 1.0 / (1.0 + std::exp(-v));
}

constexpr std::uint64_t kU53End = std::uint64_t{1} << 53;

/// Checks the decision at u53 = m - 1, m and m + 1 (those inside [0, 2^53)).
void expect_exact_near(const SigmoidBounds& bounds, double v,
                       std::uint64_t m) {
  for (std::uint64_t d = 0; d < 3; ++d) {
    const std::uint64_t u53 = m + d - 1;  // wraps below 0; filtered next
    if (u53 >= kU53End) continue;
    ASSERT_EQ(bounds.below_sigmoid(u53, v), reference_bit(u53, v))
        << "v=" << v << " u53=" << u53;
  }
}

/// The smallest u53 whose bit test fails for v: ceil(sigmoid(v) * 2^53).
std::uint64_t flip_point(double v) {
  const double p = 1.0 / (1.0 + std::exp(-v));
  return static_cast<std::uint64_t>(std::min(std::ceil(p * 0x1.0p53),
                                             0x1.0p53));
}

/// Every probe a velocity gets: the exact flip point and both thresholds of
/// the bucket it lies in and of its neighbours, each with one ulp (one u53
/// step) either side, plus the ends of the u range.
void expect_exact_at(const SigmoidBounds& bounds, double v) {
  expect_exact_near(bounds, v, flip_point(v));
  expect_exact_near(bounds, v, 1);
  expect_exact_near(bounds, v, kU53End - 1);
  const double width = bounds.edge(1) - bounds.edge(0);
  const double pos = std::floor((v - bounds.edge(0)) / width);
  if (!(pos >= -1.0 && pos <= static_cast<double>(SigmoidBounds::kBuckets))) {
    return;  // outside the table: only the exact fallback applies
  }
  const auto b = static_cast<std::int64_t>(pos);
  for (std::int64_t nb = b - 1; nb <= b + 1; ++nb) {
    if (nb < 0 || nb >= static_cast<std::int64_t>(SigmoidBounds::kBuckets)) {
      continue;
    }
    const auto bucket = static_cast<std::size_t>(nb);
    expect_exact_near(bounds, v, bounds.hit_below(bucket));
    expect_exact_near(bounds, v, bounds.miss_from(bucket));
  }
}

float float_from_bits(std::uint32_t bits) {
  float f = 0.0F;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

TEST(SigmoidBounds, StridedSweepOverFloatVelocities) {
  // Velocities are stored as float, so every v the binarization sees is a
  // float widened to double.  Walk the float bit patterns of [0, v_max]
  // and their negatives with a prime stride.
  for (const double v_max : {4.0, 2.5, 0.3}) {
    SCOPED_TRACE("v_max=" + std::to_string(v_max));
    const SigmoidBounds bounds(v_max);
    const std::uint32_t top = bits_of(static_cast<float>(v_max));
    for (std::uint32_t bits = 0; bits <= top; bits += 10007) {
      const double v = float_from_bits(bits);
      expect_exact_at(bounds, v);
      expect_exact_at(bounds, -v);
    }
  }
}

TEST(SigmoidBounds, BucketEdgesAndClampLimits) {
  for (const double v_max : {4.0, 2.5, 0.3}) {
    SCOPED_TRACE("v_max=" + std::to_string(v_max));
    const SigmoidBounds bounds(v_max);
    for (std::size_t b = 0; b <= SigmoidBounds::kBuckets; ++b) {
      const auto edge = static_cast<float>(bounds.edge(b));
      for (const float v : {std::nextafter(edge, -1e9F), edge,
                            std::nextafter(edge, 1e9F)}) {
        expect_exact_at(bounds, v);
      }
    }
    // The clamp limits as the velocity update stores them, the float
    // neighbours on both sides, and values far outside the table.
    const auto limit = static_cast<float>(v_max);
    for (const float v :
         {limit, -limit, std::nextafter(limit, 0.0F),
          std::nextafter(-limit, 0.0F), std::nextafter(limit, 1e9F),
          std::nextafter(-limit, -1e9F), 2.0F * limit, -2.0F * limit, 1e30F,
          -1e30F, 0.0F, -0.0F}) {
      expect_exact_at(bounds, v);
    }
  }
}

TEST(SigmoidBounds, HugeClampRangeStaysExact) {
  // The table stops at kMaxSpan; larger |v| go to the exact expression.
  for (const double v_max : {100.0, 1e300}) {
    const SigmoidBounds bounds(v_max);
    for (const float v : {0.0F, 0.5F, -3.0F, 63.9F, -64.1F, 100.0F, -1e30F,
                          std::numeric_limits<float>::max()}) {
      expect_exact_at(bounds, v);
    }
  }
}

TEST(SigmoidBounds, UndecidedBandIsNarrow) {
  // The exact fallback runs only for u53 in [hit_below, miss_from); at
  // v_max 4 that band averages well under 0.1% of the u range, which is
  // what makes the table pay.
  const SigmoidBounds bounds(4.0);
  double band = 0.0;
  for (std::size_t b = 0; b < SigmoidBounds::kBuckets; ++b) {
    ASSERT_LE(bounds.hit_below(b), bounds.miss_from(b));
    band += static_cast<double>(bounds.miss_from(b) - bounds.hit_below(b));
  }
  EXPECT_LT(band / SigmoidBounds::kBuckets * 0x1.0p-53, 1e-3);
}

}  // namespace
}  // namespace snnmap::core
