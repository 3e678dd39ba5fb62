// Binary particle swarm optimization for SNN partitioning — Sec. III.
//
// Dimensions are the paper's x_{i,k} allocation variables (D = N * C).
// Velocities update per Eq. 1 (with an inertia weight and per-component
// random scaling of the cognitive/social terms, the standard Eberhart-
// Kennedy instantiation the paper cites); positions binarize through the
// sigmoid rule of Eqs. 2-3.  Raw binarized positions rarely satisfy the
// constraints, so two repair operators run after every update:
//   1. one-hot repair (Eq. 4): per neuron, keep exactly one set bit —
//      sampled proportionally to the sigmoid probabilities;
//   2. capacity repair (Eq. 5): overflow neurons migrate to the crossbar
//      with free space that least increases the fitness.
// The swarm can be seeded with the PACMAN/NEUTRAMS baseline solutions
// (memetic seeding, on by default): the paper reports PSO always at or
// below both baselines, which seeding guarantees by construction.
// Per-iteration fitness evaluation of the whole swarm fans out over a
// BatchEvaluator worker pool (PsoConfig::threads); all randomness stays on
// the caller's thread, so results are identical at any thread count.
//
// The exact RNG stream is a contract: for a given PsoConfig, the sequence
// of draws and every floating-point expression that feeds a decision fix
// the whole trajectory, and PsoResult is pinned bit for bit by
// tests/core/pso_golden_test.cpp.  The hot loops are fast paths that keep
// it: the draws inline from util/rng.hpp into a register-resident copy of
// the swarm generator, and the binarization decides u < sigmoid(v) from
// precomputed per-velocity-bucket bounds (SigmoidBounds), evaluating the
// exact sigmoid only when u falls between them.  Changing the order or the
// number of draws changes every result and needs re-pinned fixtures.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/cost.hpp"
#include "core/partition.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"
#include "util/rng.hpp"

namespace snnmap::core {

struct PsoConfig {
  std::uint32_t swarm_size = 100;   ///< np (paper explores 10..1000, Fig. 7)
  std::uint32_t iterations = 100;   ///< fixed to 100 in the paper
  double inertia = 0.72;            ///< velocity memory (omega)
  double phi1 = 1.49;               ///< cognitive constant
  double phi2 = 1.49;               ///< social constant
  double v_max = 4.0;               ///< velocity clamp (sigmoid saturation)
  bool seed_with_baselines = true;  ///< include PACMAN/NEUTRAMS particles
  /// Fitness definition (see Objective); AER packets by default.
  Objective objective = Objective::kAerPackets;
  /// Memetic local search: whenever the swarm best improves, run up to this
  /// many greedy single-neuron sweeps (incremental AER deltas) on it.  This
  /// is what lets a laptop-budget swarm reach the optima the paper obtained
  /// with 1000 particles x 100 iterations x 35 min on a cloud VM.  0
  /// disables; only applies to the kAerPackets objective.
  std::uint32_t refine_sweeps = 4;
  /// Swap-based refinement attempts per improvement, as a multiple of the
  /// neuron count (swaps escape capacity-blocked local optima; see
  /// IncrementalAerCost::swap_refine).  0 disables.
  std::uint32_t refine_swap_factor = 8;
  std::uint64_t seed = 42;
  /// Worker threads for batch fitness evaluation: 0 = one per hardware
  /// thread, 1 = serial.  Results are identical for every value (all
  /// randomness stays on the caller's thread; see BatchEvaluator).
  std::uint32_t threads = 0;
  bool track_history = false;       ///< record Gbest cost per iteration
  /// Stop early after this many iterations without Gbest improvement
  /// (0 = never stop early; the paper runs a fixed iteration budget).
  std::uint32_t patience = 0;
};

/// Exact Bernoulli test u < sigmoid(v) for the binarization of Eqs. 2-3,
/// mostly without evaluating exp.  u is a uniform draw given as the 53-bit
/// integer u53 = u * 2^53 (util::Rng::uniform53).  [-v_max, v_max] (at most
/// [-kMaxSpan, kMaxSpan]), slightly widened so clamped velocities that round
/// outward to float stay inside, is cut into kBuckets velocity buckets; each
/// stores integer thresholds from a lower and an upper bound on sigmoid over
/// the bucket, padded in velocity and in probability far beyond any rounding
/// of the bucket index or of exp.  A u53 below the first threshold is a hit
/// and one at or above the second a miss — the answer the exact expression
/// gives — and only a u53 in between (a band averaging about 0.02% of the u
/// range at v_max 4) pays for the exact sigmoid.  The thresholds are
/// integers so the test needs no conversion.
class SigmoidBounds {
 public:
  static constexpr std::size_t kBuckets = 4096;
  /// The table covers at most |v| <= kMaxSpan: sigmoid is within 2^-92 of 0
  /// or 1 beyond it, and velocities out there take the exact expression.
  static constexpr double kMaxSpan = 64.0;

  /// Requires a finite v_max > 0 (PsoPartitioner validates it).
  explicit SigmoidBounds(double v_max);

  /// The binarization probability, exactly as Eq. 2 evaluates it.
  static double sigmoid(double v) noexcept {
    return 1.0 / (1.0 + std::exp(-v));
  }

  /// Equals `util::Rng::unit(u53) < sigmoid(v)`, i.e. u53 * 2^-53 <
  /// sigmoid(v), for every u53 < 2^53 and every v.
  bool below_sigmoid(std::uint64_t u53, double v) const noexcept {
    const double t = (v - lo_) * scale_;
    if (t >= 0.0 && t < static_cast<double>(kBuckets)) [[likely]] {
      const Bucket& b = buckets_[static_cast<std::uint32_t>(t)];
      // Sign-bit tests (u53 and the thresholds are below 2^63) rather than
      // comparisons, so the compiler keeps the 50/50 outcome out of the
      // branch predictor; only the rare undecided case branches.
      const std::uint64_t hit = (u53 - b.hit_below) >> 63;
      const std::uint64_t miss = (b.miss_from - 1 - u53) >> 63;
      if ((hit | miss) != 0) [[likely]] return hit != 0;
    }
    return util::Rng::unit(u53) < sigmoid(v);
  }

  /// Velocity at the low edge of bucket `b` (b = kBuckets: the top edge).
  double edge(std::size_t b) const noexcept {
    return lo_ + static_cast<double>(b) * width_;
  }
  /// Bucket b's thresholds: u53 < hit_below(b) is a hit and u53 >=
  /// miss_from(b) a miss for every v the bucket covers.
  std::uint64_t hit_below(std::size_t b) const {
    return buckets_.at(b).hit_below;
  }
  std::uint64_t miss_from(std::size_t b) const {
    return buckets_.at(b).miss_from;
  }

 private:
  struct Bucket {
    std::uint64_t hit_below;
    std::uint64_t miss_from;
  };

  double lo_;
  double width_;
  double scale_;
  std::vector<Bucket> buckets_;
};

struct PsoResult {
  Partition best;
  std::uint64_t best_cost = 0;          ///< F at the optimum (see objective)
  std::uint32_t iterations_run = 0;
  std::uint64_t fitness_evaluations = 0;
  std::vector<std::uint64_t> history;   ///< Gbest per iteration (if tracked)
};

class PsoPartitioner {
 public:
  /// Throws std::invalid_argument if the network does not fit `arch`, or
  /// if `config` has swarm_size or iterations 0, a v_max that is not finite
  /// and positive, or a non-finite inertia, phi1 or phi2.
  PsoPartitioner(const snn::SnnGraph& graph, const hw::Architecture& arch,
                 PsoConfig config);

  /// Runs the swarm and returns the best feasible partition found.
  PsoResult optimize();

 private:
  struct Particle {
    std::vector<float> velocity;        // N * C
    std::vector<CrossbarId> position;   // one-hot as assignment vector
    std::vector<CrossbarId> best_position;
    std::uint64_t best_cost = ~0ULL;
  };

  /// Evaluates every particle's position into costs_ (parallel fan-out).
  void evaluate_swarm(const std::vector<Particle>& swarm);
  void update_velocity(Particle& p, const std::vector<CrossbarId>& gbest,
                       util::Rng& rng) const;
  void binarize_and_repair(Particle& p, util::Rng& rng);
  void capacity_repair(std::vector<CrossbarId>& assignment, util::Rng& rng);
  std::vector<CrossbarId> random_assignment(util::Rng& rng);

  const snn::SnnGraph& graph_;
  hw::Architecture arch_;
  PsoConfig config_;
  BatchEvaluator evaluator_;
  SigmoidBounds sigmoid_;
  std::vector<std::uint64_t> costs_;  ///< per-particle fitness scratch
  std::uint64_t evaluations_ = 0;
};

}  // namespace snnmap::core
