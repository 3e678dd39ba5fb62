#include "core/pso.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/incremental.hpp"
#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "util/log.hpp"

namespace snnmap::core {
namespace {

/// Rejects constants the swarm update cannot run with: no iteration leaves
/// Gbest empty, and std::clamp (and SigmoidBounds) need 0 < v_max < inf.
PsoConfig validated(const PsoConfig& config) {
  if (config.swarm_size == 0) {
    throw std::invalid_argument("PsoPartitioner: swarm size must be >= 1");
  }
  if (config.iterations == 0) {
    throw std::invalid_argument("PsoPartitioner: iterations must be >= 1");
  }
  if (!std::isfinite(config.v_max) || config.v_max <= 0.0) {
    throw std::invalid_argument(
        "PsoPartitioner: v_max must be finite and > 0");
  }
  if (!std::isfinite(config.inertia) || !std::isfinite(config.phi1) ||
      !std::isfinite(config.phi2)) {
    throw std::invalid_argument(
        "PsoPartitioner: inertia, phi1 and phi2 must be finite");
  }
  return config;
}

}  // namespace

SigmoidBounds::SigmoidBounds(double v_max)
    : lo_(-std::min(v_max, kMaxSpan) * (1.0 + 1.0 / 1024)),
      width_(-2.0 * lo_ / static_cast<double>(kBuckets)),
      scale_(static_cast<double>(kBuckets) / (-2.0 * lo_)),
      buckets_(kBuckets) {
  // The index t = (v - lo_) * scale_ is off from the real-number bucket
  // position by a few ulps, and exp is accurate to about an ulp, so each
  // bound is taken 1/256 of a bucket beyond its edge and then moved 1e-12
  // outward in probability: both pads exceed those errors by many orders of
  // magnitude, and sigmoid is monotone, so every v the index maps into a
  // bucket has sigmoid(v) strictly between the bucket's bounds.  For an
  // integer u53 and a real p, u53 * 2^-53 < p iff u53 < ceil(p * 2^53),
  // and p * 2^53 is exact, so the thresholds are those ceilings, clamped
  // to the range [0, 2^53] of u53.
  const double pad = width_ / 256.0;
  constexpr double kMargin = 1e-12;
  const auto threshold = [](double p) {
    return static_cast<std::uint64_t>(
        std::clamp(std::ceil(p * 0x1.0p53), 0.0, 0x1.0p53));
  };
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets_[b].hit_below = threshold(sigmoid(edge(b) - pad) - kMargin);
    buckets_[b].miss_from = threshold(sigmoid(edge(b + 1) + pad) + kMargin);
  }
}

PsoPartitioner::PsoPartitioner(const snn::SnnGraph& graph,
                               const hw::Architecture& arch, PsoConfig config)
    : graph_(graph),
      arch_(arch),
      config_(validated(config)),
      evaluator_(graph, config.threads, config.swarm_size),
      sigmoid_(config.v_max) {
  if (!arch.fits(graph.neuron_count())) {
    throw std::invalid_argument("PsoPartitioner: network does not fit (" +
                                std::to_string(graph.neuron_count()) + " > " +
                                std::to_string(arch.capacity()) + " neurons)");
  }
}

void PsoPartitioner::evaluate_swarm(const std::vector<Particle>& swarm) {
  // Fan the independent fitness evaluations out across the pool; costs_[i]
  // is particle i's fitness, so the result is order-independent and matches
  // the serial path exactly.
  evaluator_.evaluate(
      swarm.size(),
      [&swarm](std::size_t i) -> const std::vector<CrossbarId>& {
        return swarm[i].position;
      },
      config_.objective, costs_);
  evaluations_ += swarm.size();
}

std::vector<CrossbarId> PsoPartitioner::random_assignment(util::Rng& rng) {
  // Random feasible assignment: shuffle neurons, deal them into crossbars
  // round-robin with capacity tracking.
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<CrossbarId> assignment(n, kUnassigned);
  std::vector<std::uint32_t> occ(c, 0);
  for (const std::uint32_t neuron : order) {
    // Uniform among crossbars with free capacity.
    CrossbarId pick = kUnassigned;
    std::uint32_t seen = 0;
    for (CrossbarId k = 0; k < c; ++k) {
      if (occ[k] >= arch_.neurons_per_crossbar) continue;
      ++seen;
      if (rng.below(seen) == 0) pick = k;
    }
    assignment[neuron] = pick;
    ++occ[pick];
  }
  return assignment;
}

void PsoPartitioner::capacity_repair(std::vector<CrossbarId>& assignment,
                                     util::Rng& rng) {
  const std::uint32_t c = arch_.crossbar_count;
  const std::uint32_t cap = arch_.neurons_per_crossbar;
  std::vector<std::uint32_t> occ(c, 0);
  for (const CrossbarId k : assignment) {
    if (k != kUnassigned) ++occ[k];
  }
  // Evict random residents of overloaded crossbars into a pool (residents
  // listed in neuron order, and only for the overloaded crossbars)...
  std::vector<std::uint32_t> pool;
  std::vector<std::uint32_t> members;
  for (CrossbarId k = 0; k < c; ++k) {
    if (occ[k] <= cap) continue;
    members.clear();
    for (std::uint32_t i = 0; i < assignment.size(); ++i) {
      if (assignment[i] == k) members.push_back(i);
    }
    while (occ[k] > cap) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(members.size()));
      const std::uint32_t neuron = members[pick];
      members[pick] = members.back();
      members.pop_back();
      assignment[neuron] = kUnassigned;
      pool.push_back(neuron);
      --occ[k];
    }
  }
  // ...then re-place each pooled neuron on the feasible crossbar that cuts
  // the fewest incident spikes (greedy, cheapest-first order is the pool's
  // random order — adequate and cheap).
  std::vector<std::uint64_t> to_crossbar(c);
  for (const std::uint32_t neuron : pool) {
    const std::uint64_t incident =
        evaluator_.model().incident_spikes(assignment, neuron, to_crossbar);
    CrossbarId best = kUnassigned;
    std::uint64_t best_cut = ~0ULL;
    for (CrossbarId k = 0; k < c; ++k) {
      if (occ[k] >= cap) continue;
      const std::uint64_t cut = incident - to_crossbar[k];
      if (cut < best_cut) {
        best_cut = cut;
        best = k;
      }
    }
    if (best == kUnassigned) {
      throw std::logic_error("PsoPartitioner: no capacity left during repair");
    }
    assignment[neuron] = best;
    ++occ[best];
  }
}

void PsoPartitioner::update_velocity(Particle& p,
                                     const std::vector<CrossbarId>& gbest,
                                     util::Rng& rng) const {
  // Eq. 1 with inertia and per-component random scaling: each component
  // draws u1 (cognitive) then u2 (social).  Where x, pb and gb are all 0 —
  // every k but a neuron's xi, pbi and gbi — both terms are (phi * u) *
  // (+0.0), a zero carrying phi's sign whatever u is.  Those components use
  // their draws only to advance the stream, so per neuron the 2C draws are
  // taken first, the plain inertia update sweeps all C components without
  // touching them, and the at most three others are then overwritten with
  // the full expression.  The generator is copied into a local so its state
  // stays in registers.
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  const double inertia = config_.inertia;
  const double phi1 = config_.phi1;
  const double phi2 = config_.phi2;
  const double v_max = config_.v_max;
  const double zero1 = std::copysign(0.0, phi1);
  const double zero2 = std::copysign(0.0, phi2);
  const CrossbarId* pbest = p.best_position.empty() ? p.position.data()
                                                    : p.best_position.data();
  std::vector<std::uint64_t> u53(2 * static_cast<std::size_t>(c));
  float* vel = p.velocity.data();
  util::Rng r = rng;
  for (std::uint32_t i = 0; i < n; ++i, vel += c) {
    for (std::uint64_t& u : u53) u = r.uniform53();
    const CrossbarId xi = p.position[i];
    const CrossbarId pbi = pbest[i];
    const CrossbarId gbi = gbest[i];
    const auto full = [&](CrossbarId k) {
      const auto x = static_cast<double>(xi == k);
      const auto pb = static_cast<double>(pbi == k);
      const auto gb = static_cast<double>(gbi == k);
      const double u1 = util::Rng::unit(u53[2 * k]);
      const double u2 = util::Rng::unit(u53[2 * k + 1]);
      const double v = inertia * static_cast<double>(vel[k]) +
                       phi1 * u1 * (pb - x) + phi2 * u2 * (gb - x);
      return static_cast<float>(std::clamp(v, -v_max, v_max));
    };
    const CrossbarId special[3] = {xi, pbi, gbi};
    float updated[3] = {};
    for (int j = 0; j < 3; ++j) {
      if (special[j] < c) updated[j] = full(special[j]);
    }
    for (std::uint32_t k = 0; k < c; ++k) {
      const double v = inertia * static_cast<double>(vel[k]) + zero1 + zero2;
      vel[k] = static_cast<float>(std::clamp(v, -v_max, v_max));
    }
    for (int j = 0; j < 3; ++j) {
      if (special[j] < c) vel[special[j]] = updated[j];
    }
  }
  rng = r;
}

void PsoPartitioner::binarize_and_repair(Particle& p, util::Rng& rng) {
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  // Per-neuron stochastic binarization (Eqs. 2-3) followed by one-hot repair
  // (Eq. 4): among the sampled set bits keep one uniformly; if none were
  // sampled, roulette-select a crossbar proportionally to sigmoid(v).  Only
  // the roulette needs the probabilities themselves; the per-bit tests go
  // through the bounds table.
  const float* vel = p.velocity.data();
  util::Rng r = rng;
  for (std::uint32_t i = 0; i < n; ++i, vel += c) {
    CrossbarId chosen = kUnassigned;
    std::uint64_t set_bits = 0;
    for (std::uint32_t k = 0; k < c; ++k) {
      // A set bit draws below(set_bits) and keeps k on 0.  That draw is
      // taken without a branch: computed for every bit, committed to the
      // stream only on a hit (below_from of 0 is 0 and draws nothing).
      const std::uint64_t hit =
          sigmoid_.below_sigmoid(r.uniform53(), static_cast<double>(vel[k]));
      set_bits += hit;
      const std::uint64_t first = r.next_if(hit != 0);
      const std::uint64_t pick = r.below_from(first, set_bits & (0 - hit));
      const std::uint64_t keep_k = hit & static_cast<std::uint64_t>(pick == 0);
      chosen ^= (chosen ^ k) & static_cast<CrossbarId>(0 - keep_k);
    }
    if (chosen == kUnassigned) {
      double prob_sum = 0.0;
      for (std::uint32_t k = 0; k < c; ++k) {
        prob_sum += SigmoidBounds::sigmoid(static_cast<double>(vel[k]));
      }
      double target = r.uniform() * prob_sum;
      for (std::uint32_t k = 0; k < c; ++k) {
        target -= SigmoidBounds::sigmoid(static_cast<double>(vel[k]));
        if (target <= 0.0 || k == c - 1) {
          chosen = k;
          break;
        }
      }
    }
    p.position[i] = chosen;
  }
  rng = r;
  capacity_repair(p.position, rng);
}

PsoResult PsoPartitioner::optimize() {
  util::Rng rng(config_.seed);
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  const std::size_t dims = static_cast<std::size_t>(n) * c;

  std::vector<Particle> swarm(config_.swarm_size);
  for (auto& p : swarm) {
    p.velocity.resize(dims);
    for (auto& v : p.velocity) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    p.position = random_assignment(rng);
  }
  if (config_.seed_with_baselines) {
    // Memetic seeding: the first particles start from the baselines, so the
    // swarm optimum can never be worse than either of them.
    swarm[0].position = pacman_partition(graph_, arch_).assignment();
    if (swarm.size() > 1) {
      swarm[1].position = neutrams_partition(graph_, arch_).assignment();
    }
  }

  std::vector<CrossbarId> gbest;
  std::uint64_t gbest_cost = ~0ULL;
  PsoResult result;
  std::uint32_t stale = 0;

  for (std::uint32_t iter = 0; iter < config_.iterations; ++iter) {
    bool improved = false;
    evaluate_swarm(swarm);
    for (std::size_t pi = 0; pi < swarm.size(); ++pi) {
      Particle& p = swarm[pi];
      const std::uint64_t f = costs_[pi];
      if (f < p.best_cost) {
        p.best_cost = f;
        p.best_position = p.position;
      }
      if (f < gbest_cost) {
        gbest_cost = f;
        gbest = p.position;
        improved = true;
      }
    }
    if (improved &&
        (config_.refine_sweeps > 0 || config_.refine_swap_factor > 0) &&
        config_.objective == Objective::kAerPackets) {
      // Memetic step: polish the new swarm best with greedy single-neuron
      // moves plus stochastic improving swaps.
      IncrementalAerCost refiner(graph_, gbest, c);
      refiner.greedy_refine(arch_.neurons_per_crossbar,
                            config_.refine_sweeps);
      if (config_.refine_swap_factor > 0) {
        util::Rng swap_rng(config_.seed ^ (0x53A9'0000ULL + iter));
        refiner.swap_refine(
            static_cast<std::uint64_t>(config_.refine_swap_factor) * n,
            swap_rng);
        refiner.greedy_refine(arch_.neurons_per_crossbar,
                              config_.refine_sweeps);
      }
      if (refiner.cost() < gbest_cost) {
        gbest = refiner.assignment();
        gbest_cost = refiner.cost();
      }
    }
    if (config_.track_history) result.history.push_back(gbest_cost);
    result.iterations_run = iter + 1;

    stale = improved ? 0 : stale + 1;
    if (config_.patience != 0 && stale >= config_.patience) break;
    if (iter + 1 == config_.iterations) break;  // skip final wasted update

    // Velocity + position update (Eq. 1), then binarize + repair (Eqs. 2-5).
    for (auto& p : swarm) {
      update_velocity(p, gbest, rng);
      binarize_and_repair(p, rng);
    }
  }

  result.best = Partition(n, c);
  for (std::uint32_t i = 0; i < n; ++i) result.best.assign(i, gbest[i]);
  result.best.validate(arch_);
  result.best_cost = gbest_cost;
  result.fitness_evaluations = evaluations_;
  util::log_info("PSO: best cost ", gbest_cost, " after ",
                 result.iterations_run, " iterations, ", evaluations_,
                 " evaluations");
  return result;
}

}  // namespace snnmap::core
