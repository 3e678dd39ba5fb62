#include "core/batch_eval.hpp"

#include <algorithm>

namespace snnmap::core {

BatchEvaluator::BatchEvaluator(const snn::SnnGraph& graph,
                               std::uint32_t threads,
                               std::size_t max_parallelism)
    : pool_(static_cast<std::uint32_t>(std::min<std::size_t>(
          util::ThreadPool::resolve(threads),
          std::max<std::size_t>(1, max_parallelism)))),
      model_(graph) {}

void BatchEvaluator::evaluate(std::size_t count, const AssignmentAt& at,
                              Objective objective,
                              std::vector<std::uint64_t>& costs) {
  costs.resize(count);
  pool_.parallel_blocks(
      count,
      [&](std::uint32_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          costs[i] = model_.objective_cost(at(i), objective);
        }
      });
}

void BatchEvaluator::evaluate(
    const std::vector<std::vector<CrossbarId>>& population,
    Objective objective, std::vector<std::uint64_t>& costs) {
  evaluate(
      population.size(),
      [&population](std::size_t i) -> const std::vector<CrossbarId>& {
        return population[i];
      },
      objective, costs);
}

BatchNocEvaluator::BatchNocEvaluator(std::uint32_t threads)
    : pool_(threads) {}

std::vector<noc::NocRunResult> BatchNocEvaluator::run_all(
    std::vector<NocScenario> scenarios) {
  std::vector<noc::NocRunResult> results(scenarios.size());
  pool_.parallel_for(scenarios.size(), [&](std::uint32_t, std::size_t i) {
    noc::NocSimulator sim(std::move(scenarios[i].topology),
                          scenarios[i].config);
    results[i] = sim.run(std::move(scenarios[i].traffic));
  });
  return results;
}

BatchSnnEvaluator::BatchSnnEvaluator(std::uint32_t threads)
    : pool_(threads) {}

std::vector<SnnRunResult> BatchSnnEvaluator::run_all(
    const std::vector<SnnScenario>& scenarios) {
  std::vector<SnnRunResult> results(scenarios.size());
  pool_.parallel_for(scenarios.size(), [&](std::uint32_t, std::size_t i) {
    snn::Network net = scenarios[i].build();
    snn::Simulator sim(net, scenarios[i].config);
    results[i].result = sim.run();
    results[i].final_weights.reserve(net.synapses().size());
    for (const snn::Synapse& s : net.synapses()) {
      results[i].final_weights.push_back(s.weight);
    }
  });
  return results;
}

BatchCoSimEvaluator::BatchCoSimEvaluator(std::uint32_t threads)
    : pool_(threads) {}

std::vector<CoSimOutcome> BatchCoSimEvaluator::run_all(
    std::vector<CoSimScenario> scenarios) {
  std::vector<CoSimOutcome> results(scenarios.size());
  pool_.parallel_for(scenarios.size(), [&](std::uint32_t, std::size_t i) {
    CoSimScenario& sc = scenarios[i];
    snn::Network net = sc.build();
    cosim::CoSimulator sim(net, sc.partition, sc.placement,
                           std::move(sc.topology), sc.config);
    results[i].result = sim.run();
    if (sc.with_ideal_baseline) {
      snn::Network reference = sc.build();
      snn::Simulator ideal(reference, sc.config.snn);
      results[i].divergence = cosim::spike_divergence(
          ideal.run().spikes, results[i].result.snn.spikes);
    }
  });
  return results;
}

std::vector<CoSimOutcome> BatchCoSimEvaluator::run_cpt_sweep(
    const CoSimScenario& base,
    const std::vector<std::uint32_t>& cycles_per_timestep) {
  std::vector<CoSimScenario> scenarios;
  scenarios.reserve(cycles_per_timestep.size());
  for (const std::uint32_t cpt : cycles_per_timestep) {
    CoSimScenario sc = base;
    sc.config.cycles_per_timestep = cpt;
    scenarios.push_back(std::move(sc));
  }
  return run_all(std::move(scenarios));
}

std::vector<CoSimOutcome> BatchCoSimEvaluator::run_dvfs_sweep(
    const CoSimScenario& base,
    const std::vector<cosim::DvfsPolicy>& policies) {
  std::vector<CoSimScenario> scenarios;
  scenarios.reserve(policies.size());
  for (const cosim::DvfsPolicy& policy : policies) {
    CoSimScenario sc = base;
    sc.config.dvfs = policy;
    scenarios.push_back(std::move(sc));
  }
  return run_all(std::move(scenarios));
}

std::vector<SnnRunResult> BatchSnnEvaluator::run_seeds(
    std::function<snn::Network()> build, snn::SimulationConfig config,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<SnnScenario> scenarios;
  scenarios.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    config.seed = seed;
    scenarios.push_back({build, config});
  }
  return run_all(scenarios);
}

}  // namespace snnmap::core
