// Parallel batch evaluation: optimizer fitness batches (BatchEvaluator) and
// independent NoC scenario simulations (BatchNocEvaluator).
//
// Every PSO iteration / GA generation evaluates the Eq. 7/8 objective for an
// entire swarm or population against the same immutable spike graph.  The
// evaluations are independent, so they fan out over a ThreadPool.  Every
// worker reads one shared CostModel (it keeps no mutable state, so const
// calls from many threads do not race), and all randomness stays on the
// caller's thread.  Costs land in a slot indexed by candidate, making
// parallel results bit-identical to the serial path under a fixed seed.
//
// BatchNocEvaluator applies the same pattern to whole NoC simulations:
// ablation sweeps and multi-app workloads run many independent
// (topology, config, traffic) scenarios, each of which is single-threaded
// and deterministic, so they spread across the pool with results landing in
// slots indexed by scenario.
//
// BatchSnnEvaluator closes the loop at the front of the mapping flow: the
// spike trains that annotate the synapse graph come from stochastic
// Poisson-driven simulations, so trustworthy spike statistics need many
// seeds, not a single-seed point estimate.  Each scenario builds its own
// Network (STDP mutates weights in place, so instances cannot be shared)
// and simulates it with its own seeded Rng; results are slot-indexed and
// bit-identical to serial execution.
// BatchCoSimEvaluator fans whole closed-loop co-simulations
// (cosim::CoSimulator) the same way: every scenario owns its Network,
// mapping, topology, and config, runs single-threaded, and lands in a slot
// indexed by scenario — bit-identical across thread counts and submission
// orders, which the fidelity sweeps (mappings x seeds x architectures x
// cycles_per_timestep) rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cost.hpp"
#include "core/partition.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "noc/simulator.hpp"
#include "snn/graph.hpp"
#include "snn/simulator.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {

class BatchEvaluator {
 public:
  /// threads = 0 resolves to hardware_concurrency(); 1 evaluates inline on
  /// the calling thread (serial fallback).  `max_parallelism` is the
  /// largest batch the caller will ever submit (e.g. the swarm size):
  /// worker threads beyond it would never receive a block, so the pool is
  /// clamped to it.
  explicit BatchEvaluator(const snn::SnnGraph& graph,
                          std::uint32_t threads = 0,
                          std::size_t max_parallelism = ~std::size_t{0});

  std::uint32_t thread_count() const noexcept { return pool_.size(); }

  /// The cost model every batch evaluates with; callers may also use it
  /// for serial work (repair operators, one-off evaluations).
  const CostModel& model() const noexcept { return model_; }

  using AssignmentAt =
      std::function<const std::vector<CrossbarId>&(std::size_t)>;

  /// Evaluates `count` candidates into `costs` (resized to `count`):
  /// costs[i] = objective_cost(at(i), objective).  `at` is called from
  /// worker threads and must be safe to invoke concurrently for distinct
  /// indices (a pure indexed view into caller-owned storage).
  void evaluate(std::size_t count, const AssignmentAt& at,
                Objective objective, std::vector<std::uint64_t>& costs);

  /// Convenience over a contiguous population of assignment vectors.
  void evaluate(const std::vector<std::vector<CrossbarId>>& population,
                Objective objective, std::vector<std::uint64_t>& costs);

 private:
  util::ThreadPool pool_;
  const CostModel model_;
};

/// One independent interconnect simulation of a batch.
struct NocScenario {
  noc::Topology topology;
  noc::NocConfig config;
  std::vector<noc::SpikePacketEvent> traffic;
};

/// Fans independent NoC scenario simulations across a ThreadPool.  Every
/// scenario is simulated exactly as a standalone NocSimulator::run would
/// (results are slot-indexed and bit-identical to serial execution);
/// threads = 1 runs inline on the calling thread.
class BatchNocEvaluator {
 public:
  /// threads = 0 resolves to hardware_concurrency().
  explicit BatchNocEvaluator(std::uint32_t threads = 0);

  std::uint32_t thread_count() const noexcept { return pool_.size(); }

  /// Simulates every scenario; results[i] corresponds to scenarios[i].
  /// Scenario traffic is consumed (moved into the simulators).
  std::vector<noc::NocRunResult> run_all(std::vector<NocScenario> scenarios);

 private:
  util::ThreadPool pool_;
};

/// One independent SNN simulation of a batch.  `build` returns a fresh
/// Network per run (called once, on the worker that simulates the scenario);
/// it must be deterministic and safe to invoke concurrently with the other
/// scenarios' builders.
struct SnnScenario {
  std::function<snn::Network()> build;
  snn::SimulationConfig config;
};

/// Everything one scenario run produces: the spike trains plus the final
/// synapse weights (the STDP-visible state the trains alone don't expose).
struct SnnRunResult {
  snn::SimulationResult result;
  std::vector<float> final_weights;  ///< synapse order of the built Network
};

/// Fans independent SNN scenario simulations across a ThreadPool.  Every
/// scenario is simulated exactly as a standalone Simulator::run would
/// (results are slot-indexed and bit-identical to serial execution,
/// independent of submission order); threads = 1 runs inline on the calling
/// thread.
class BatchSnnEvaluator {
 public:
  /// threads = 0 resolves to hardware_concurrency().
  explicit BatchSnnEvaluator(std::uint32_t threads = 0);

  std::uint32_t thread_count() const noexcept { return pool_.size(); }

  /// Simulates every scenario; results[i] corresponds to scenarios[i].
  std::vector<SnnRunResult> run_all(const std::vector<SnnScenario>& scenarios);

  /// Multi-seed sweep convenience: one run of `build` per seed under the
  /// same config; results[i] corresponds to seeds[i].
  std::vector<SnnRunResult> run_seeds(std::function<snn::Network()> build,
                                      snn::SimulationConfig config,
                                      const std::vector<std::uint64_t>& seeds);

 private:
  util::ThreadPool pool_;
};

/// One independent closed-loop co-simulation of a batch.  `build` returns a
/// fresh Network per run (STDP and the co-sim cut marks are per-instance
/// state); it must be deterministic and safe to invoke concurrently with
/// the other scenarios' builders.
struct CoSimScenario {
  std::function<snn::Network()> build;
  Partition partition;
  Placement placement;
  noc::Topology topology;
  cosim::CoSimConfig config;
  /// Also run the same-seed open-loop snn::Simulator and report the
  /// spike-train divergence against it (doubles the SNN work; disable for
  /// pure throughput sweeps).
  bool with_ideal_baseline = true;
};

/// Closed-loop run + its divergence from the ideal interconnect.
struct CoSimOutcome {
  cosim::CoSimResult result;
  /// Zero-initialized when the scenario disabled the baseline run.
  cosim::SpikeDivergence divergence;
};

/// Fans independent co-simulations across a ThreadPool.  Every scenario
/// runs exactly as a standalone cosim::CoSimulator would (results are
/// slot-indexed and bit-identical to serial execution, independent of
/// submission order); threads = 1 runs inline on the calling thread.
class BatchCoSimEvaluator {
 public:
  /// threads = 0 resolves to hardware_concurrency().
  explicit BatchCoSimEvaluator(std::uint32_t threads = 0);

  std::uint32_t thread_count() const noexcept { return pool_.size(); }

  /// Runs every scenario; results[i] corresponds to scenarios[i].
  /// Scenarios are consumed (topologies move into the simulators).
  std::vector<CoSimOutcome> run_all(std::vector<CoSimScenario> scenarios);

  /// Fidelity sweep convenience: one run of `base` per cycles_per_timestep
  /// value (the shrinking-fabric axis); results[i] corresponds to
  /// cycles_per_timestep[i].
  std::vector<CoSimOutcome> run_cpt_sweep(
      const CoSimScenario& base,
      const std::vector<std::uint32_t>& cycles_per_timestep);

  /// DVFS sweep: one run of `base` per fabric-scaling policy (the
  /// energy-vs-fidelity frontier axis); results[i] corresponds to
  /// policies[i].
  std::vector<CoSimOutcome> run_dvfs_sweep(
      const CoSimScenario& base,
      const std::vector<cosim::DvfsPolicy>& policies);

 private:
  util::ThreadPool pool_;
};

}  // namespace snnmap::core
