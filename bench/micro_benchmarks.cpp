// Google-benchmark microbenchmarks for the framework's hot paths: fitness
// evaluation (Eq. 8), incremental move deltas, PSO iterations, and AER
// codec round-trips.  SNN steps, graph extraction and the NoC are timed by
// the gated suites (snn_sim_benchmarks, noc_sim_benchmarks).
#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/batch_eval.hpp"
#include "core/cost.hpp"
#include "core/pacman.hpp"
#include "core/pso.hpp"
#include "noc/aer.hpp"
#include "util/rng.hpp"

namespace {

using namespace snnmap;

const snn::SnnGraph& synthetic_graph(std::uint32_t layers,
                                     std::uint32_t width) {
  static std::map<std::pair<std::uint32_t, std::uint32_t>, snn::SnnGraph>
      cache;
  const auto key = std::make_pair(layers, width);
  auto it = cache.find(key);
  if (it == cache.end()) {
    apps::SyntheticConfig config;
    config.layers = layers;
    config.neurons_per_layer = width;
    config.duration_ms = 200.0;
    it = cache.emplace(key, apps::build_synthetic(config)).first;
  }
  return it->second;
}

hw::Architecture arch_for(const snn::SnnGraph& graph) {
  return hw::Architecture::sized_for(
      graph.neuron_count(), (graph.neuron_count() + 3) / 4,
      hw::InterconnectKind::kTree);
}

void BM_FitnessEvaluation(benchmark::State& state) {
  const auto& graph =
      synthetic_graph(static_cast<std::uint32_t>(state.range(0)), 200);
  const core::CostModel cost(graph);
  const auto partition = core::pacman_partition(graph, arch_for(graph));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.global_spike_count(partition));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.edge_count()));
}
BENCHMARK(BM_FitnessEvaluation)->Arg(1)->Arg(2)->Arg(4);

void BM_BatchFitnessEvaluation(benchmark::State& state) {
  // Serial-vs-parallel swarm evaluation: Arg is the worker count (1 = the
  // serial fallback path).  items_processed counts fitness evaluations, so
  // the items/sec column is directly evaluations/sec.
  const auto& graph = synthetic_graph(2, 200);
  const auto arch = arch_for(graph);
  core::BatchEvaluator evaluator(
      graph, static_cast<std::uint32_t>(state.range(0)));
  util::Rng rng(5);
  std::vector<std::vector<core::CrossbarId>> swarm(64);
  for (auto& assignment : swarm) {
    assignment.resize(graph.neuron_count());
    for (auto& k : assignment) {
      k = static_cast<core::CrossbarId>(rng.below(arch.crossbar_count));
    }
  }
  std::vector<std::uint64_t> costs;
  for (auto _ : state) {
    evaluator.evaluate(swarm, core::Objective::kAerPackets, costs);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(swarm.size()));
}
BENCHMARK(BM_BatchFitnessEvaluation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

void BM_MoveDelta(benchmark::State& state) {
  const auto& graph = synthetic_graph(2, 200);
  const core::CostModel cost(graph);
  const auto arch = arch_for(graph);
  const auto partition = core::pacman_partition(graph, arch);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto neuron =
        static_cast<std::uint32_t>(rng.below(graph.neuron_count()));
    const auto to =
        static_cast<core::CrossbarId>(rng.below(arch.crossbar_count));
    benchmark::DoNotOptimize(cost.move_delta(partition, neuron, to));
  }
}
BENCHMARK(BM_MoveDelta);

void BM_PsoIteration(benchmark::State& state) {
  const auto& graph = synthetic_graph(1, 200);
  const auto arch = arch_for(graph);
  for (auto _ : state) {
    core::PsoConfig config;
    config.swarm_size = static_cast<std::uint32_t>(state.range(0));
    config.iterations = 5;
    benchmark::DoNotOptimize(
        core::PsoPartitioner(graph, arch, config).optimize().best_cost);
  }
}
BENCHMARK(BM_PsoIteration)->Arg(10)->Arg(50);

void BM_AerCodec(benchmark::State& state) {
  util::Rng rng(11);
  std::uint32_t i = 0;
  for (auto _ : state) {
    noc::AerEvent event;
    event.source_neuron = i++ & noc::kAerMaxNeuron;
    event.source_crossbar = i & noc::kAerMaxCrossbar;
    event.timestamp = i * 7;
    benchmark::DoNotOptimize(noc::aer_decode(noc::aer_encode(event)));
  }
}
BENCHMARK(BM_AerCodec);

}  // namespace
