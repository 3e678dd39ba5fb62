#include "snn/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "util/rng.hpp"

namespace snnmap::snn {
namespace {

SnnGraph tiny_graph() {
  std::vector<GraphEdge> edges{{0, 1, 1.0F}, {0, 2, 0.5F}, {1, 2, -1.0F}};
  std::vector<SpikeTrain> trains{{1.0, 2.0, 3.0}, {5.0}, {}};
  return SnnGraph::from_parts(3, std::move(edges), std::move(trains), 100.0);
}

TEST(SnnGraph, BasicAccessors) {
  const auto g = tiny_graph();
  EXPECT_EQ(g.neuron_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.total_spikes(), 4u);
  EXPECT_EQ(g.spike_count(0), 3u);
  EXPECT_EQ(g.spike_count(2), 0u);
  EXPECT_DOUBLE_EQ(g.duration_ms(), 100.0);
}

TEST(SnnGraph, FanoutIndex) {
  const auto g = tiny_graph();
  EXPECT_EQ(g.fanout_degree(0), 2u);
  EXPECT_EQ(g.fanout_degree(1), 1u);
  EXPECT_EQ(g.fanout_degree(2), 0u);
  const auto& offsets = g.fanout_offsets();
  const auto& targets = g.fanout_targets();
  EXPECT_EQ(targets[offsets[0]], 1u);
  EXPECT_EQ(targets[offsets[0] + 1], 2u);
}

TEST(SnnGraph, MeanRate) {
  const auto g = tiny_graph();
  // 4 spikes / 3 neurons / 0.1 s = 13.33 Hz
  EXPECT_NEAR(g.mean_rate_hz(), 13.333, 0.01);
}

TEST(SnnGraph, RejectsBadEdges) {
  std::vector<GraphEdge> edges{{0, 9, 1.0F}};
  std::vector<SpikeTrain> trains{{}, {}};
  EXPECT_THROW(
      SnnGraph::from_parts(2, std::move(edges), std::move(trains), 10.0),
      std::invalid_argument);
}

TEST(SnnGraph, RejectsUnsortedTrains) {
  std::vector<GraphEdge> edges;
  std::vector<SpikeTrain> trains{{5.0, 1.0}};
  EXPECT_THROW(
      SnnGraph::from_parts(1, std::move(edges), std::move(trains), 10.0),
      std::invalid_argument);
}

TEST(SnnGraph, RejectsTrainCountMismatch) {
  EXPECT_THROW(SnnGraph::from_parts(3, {}, {{}, {}}, 10.0),
               std::invalid_argument);
}

TEST(SnnGraph, RejectsMalformedGroups) {
  EXPECT_THROW(
      SnnGraph::from_parts(2, {}, {{}, {}}, 10.0, {"a"}, {0, 5}),
      std::invalid_argument);
}

TEST(SnnGraph, FromSimulationCollapsesParallelEdges) {
  Network net;
  net.add_lif_group("a", 2);
  net.add_synapse(0, 1, 1.0);
  net.add_synapse(0, 1, 2.0);  // parallel synapse
  SimulationConfig cfg;
  cfg.duration_ms = 10.0;
  Simulator sim(net, cfg);
  const auto g = SnnGraph::from_simulation(net, sim.run());
  ASSERT_EQ(g.edge_count(), 1u);
  EXPECT_FLOAT_EQ(g.edges()[0].weight, 3.0F);  // weights summed
}

// The extraction contract, pinned against the obvious implementation: one
// edge per distinct (pre, post) pair in (pre, post) order, its weight the
// double sum (from 0.0) of the pair's synapse weights in synapse-list
// order, narrowed to float.
std::vector<GraphEdge> ordered_map_reference(const Network& net) {
  std::map<std::pair<NeuronId, NeuronId>, double> collapsed;
  for (const auto& s : net.synapses()) {
    collapsed[{s.pre, s.post}] += static_cast<double>(s.weight);
  }
  std::vector<GraphEdge> edges;
  for (const auto& [key, w] : collapsed) {
    edges.push_back({key.first, key.second, static_cast<float>(w)});
  }
  return edges;
}

// Distinct targets per pre neuron by a global sort + unique.
std::pair<std::vector<std::uint32_t>, std::vector<NeuronId>>
sorted_fanout_reference(std::uint32_t neuron_count,
                        const std::vector<GraphEdge>& edges) {
  std::vector<std::pair<NeuronId, NeuronId>> pairs;
  for (const auto& e : edges) pairs.emplace_back(e.pre, e.post);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<std::uint32_t> offsets(neuron_count + 1, 0);
  std::vector<NeuronId> targets;
  for (const auto& [pre, post] : pairs) {
    ++offsets[pre + 1];
    targets.push_back(post);
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  return {offsets, targets};
}

void expect_matches_reference(const Network& net) {
  SimulationResult result;
  result.spikes.resize(net.neuron_count());
  result.duration_ms = 10.0;
  const auto g = SnnGraph::from_simulation(net, result);
  const auto expected = ordered_map_reference(net);
  ASSERT_EQ(g.edge_count(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(g.edges()[i].pre, expected[i].pre) << "edge " << i;
    EXPECT_EQ(g.edges()[i].post, expected[i].post) << "edge " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.edges()[i].weight),
              std::bit_cast<std::uint32_t>(expected[i].weight))
        << "edge " << i;
  }
  const auto [offsets, targets] =
      sorted_fanout_reference(net.neuron_count(), g.edges());
  EXPECT_EQ(g.fanout_offsets(), offsets);
  EXPECT_EQ(g.fanout_targets(), targets);
}

TEST(SnnGraph, FromSimulationMatchesOrderedMapReference) {
  Network net;
  net.add_lif_group("a", 6);
  // Out of pre order, with parallel synapses interleaved between others.
  net.add_synapse(4, 1, 0.25);
  net.add_synapse(2, 5, 1.5);
  net.add_synapse(4, 0, -2.0);
  net.add_synapse(2, 3, 0.75);
  net.add_synapse(4, 1, 0.5);
  net.add_synapse(0, 5, 3.0);
  net.add_synapse(2, 5, -0.125);
  net.add_synapse(5, 5, 1.0);
  net.add_synapse(4, 1, 0.125);
  // Order-sensitive sums: 1e20 + 1 rounds back to 1e20 in double, so
  // 1e20, 1, -1e20 sums to 0 where 1e20, -1e20, 1 sums to 1.
  net.add_synapse(3, 2, 1e20F);
  net.add_synapse(1, 4, 1e20F);
  net.add_synapse(3, 2, 1.0F);
  net.add_synapse(1, 4, -1e20F);
  net.add_synapse(3, 2, -1e20F);
  net.add_synapse(1, 4, 1.0F);
  expect_matches_reference(net);
  const auto g = SnnGraph::from_simulation(
      net, SimulationResult{std::vector<SpikeTrain>(6), 10.0, 0});
  const auto weight_of = [&g](NeuronId pre, NeuronId post) {
    for (const auto& e : g.edges()) {
      if (e.pre == pre && e.post == post) return e.weight;
    }
    ADD_FAILURE() << "no edge " << pre << " -> " << post;
    return -1.0F;
  };
  EXPECT_EQ(std::bit_cast<std::uint32_t>(weight_of(3, 2)), 0u);
  EXPECT_EQ(weight_of(1, 4), 1.0F);

  // Seeded random network, ~30% of its synapses parallel to earlier ones.
  Network random;
  random.add_lif_group("a", 64);
  util::Rng rng(2024);
  std::vector<std::pair<NeuronId, NeuronId>> added;
  for (int i = 0; i < 2000; ++i) {
    std::pair<NeuronId, NeuronId> pair_ids;
    if (!added.empty() && rng.chance(0.3)) {
      pair_ids = added[rng.below(added.size())];
    } else {
      pair_ids = {static_cast<NeuronId>(rng.below(64)),
                  static_cast<NeuronId>(rng.below(64))};
    }
    added.push_back(pair_ids);
    random.add_synapse(pair_ids.first, pair_ids.second,
                       rng.uniform(-4.0, 4.0));
  }
  expect_matches_reference(random);
}

TEST(SnnGraph, FanoutIndexFromUnsortedDuplicatedEdges) {
  const std::vector<GraphEdge> sorted{
      {0, 1, 1.0F}, {0, 3, 1.0F}, {1, 0, 1.0F}, {1, 2, 1.0F}, {3, 0, 1.0F}};
  std::vector<GraphEdge> shuffled(sorted.rbegin(), sorted.rend());
  shuffled.push_back({0, 3, 2.0F});
  shuffled.push_back({3, 0, 0.5F});
  shuffled.push_back({0, 1, -1.0F});
  const auto make = [](std::vector<GraphEdge> edges) {
    return SnnGraph::from_parts(4, std::move(edges),
                                std::vector<SpikeTrain>(4), 10.0);
  };
  const auto a = make(sorted);
  const auto b = make(shuffled);
  EXPECT_EQ(b.fanout_offsets(), a.fanout_offsets());
  EXPECT_EQ(b.fanout_targets(), a.fanout_targets());
  EXPECT_EQ(a.fanout_offsets(), (std::vector<std::uint32_t>{0, 2, 4, 4, 5}));
  EXPECT_EQ(a.fanout_targets(), (std::vector<NeuronId>{1, 3, 0, 2, 0}));
  // from_parts keeps the edge list itself as given.
  EXPECT_EQ(b.edge_count(), shuffled.size());
}

TEST(SnnGraph, FromSimulationKeepsGroupAnnotations) {
  Network net;
  net.add_poisson_group("in", 3, 10.0);
  net.add_lif_group("out", 2);
  SimulationConfig cfg;
  cfg.duration_ms = 50.0;
  Simulator sim(net, cfg);
  const auto g = SnnGraph::from_simulation(net, sim.run());
  ASSERT_EQ(g.group_names().size(), 2u);
  EXPECT_EQ(g.group_names()[0], "in");
  EXPECT_EQ(g.group_first()[1], 3u);
  EXPECT_EQ(g.group_first()[2], 5u);
}

}  // namespace
}  // namespace snnmap::snn
