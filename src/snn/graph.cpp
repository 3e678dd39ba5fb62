#include "snn/graph.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace snnmap::snn {

SnnGraph SnnGraph::from_simulation(const Network& network,
                                   const SimulationResult& result) {
  const std::uint32_t n = network.neuron_count();
  if (result.spikes.size() != n) {
    throw std::invalid_argument(
        "SnnGraph: simulation result does not match network size");
  }
  // Collapse parallel synapses; traffic depends only on (pre, post) pairs.
  // The network's fan-out index lists each pre neuron's synapses in list
  // order, so a pair's weights are summed in that order.  slot[post] points
  // into `row`, the current pre neuron's distinct edges; a stale slot from
  // an earlier pre fails the row[i].post == post check.
  const auto& offsets = network.fanout_offsets();
  const auto& order = network.fanout_synapses();
  const auto& synapses = network.synapses();
  struct RowEdge {
    NeuronId post;
    double weight;
  };
  std::vector<RowEdge> row;
  std::vector<std::uint32_t> slot(n, 0);
  std::vector<GraphEdge> edges;
  edges.reserve(synapses.size());
  for (NeuronId pre = 0; pre < n; ++pre) {
    row.clear();
    for (std::uint32_t k = offsets[pre]; k < offsets[pre + 1]; ++k) {
      const Synapse& s = synapses[order[k]];
      std::uint32_t& i = slot[s.post];
      if (i >= row.size() || row[i].post != s.post) {
        i = static_cast<std::uint32_t>(row.size());
        row.push_back({s.post, 0.0});
      }
      row[i].weight += static_cast<double>(s.weight);
    }
    const auto by_post = [](const RowEdge& a, const RowEdge& b) {
      return a.post < b.post;
    };
    if (!std::is_sorted(row.begin(), row.end(), by_post)) {
      std::sort(row.begin(), row.end(), by_post);
    }
    for (const RowEdge& e : row) {
      edges.push_back({pre, e.post, static_cast<float>(e.weight)});
    }
  }
  std::vector<std::string> names;
  std::vector<std::uint32_t> firsts;
  for (const auto& g : network.groups()) {
    names.push_back(g.name);
    firsts.push_back(g.first);
  }
  firsts.push_back(n);
  return from_parts(n, std::move(edges), result.spikes, result.duration_ms,
                    std::move(names), std::move(firsts));
}

SnnGraph SnnGraph::from_parts(std::uint32_t neuron_count,
                              std::vector<GraphEdge> edges,
                              std::vector<SpikeTrain> spike_times,
                              TimeMs duration_ms,
                              std::vector<std::string> group_names,
                              std::vector<std::uint32_t> group_first) {
  SnnGraph g;
  g.neuron_count_ = neuron_count;
  g.edges_ = std::move(edges);
  g.spikes_ = std::move(spike_times);
  g.duration_ms_ = duration_ms;
  g.group_names_ = std::move(group_names);
  g.group_first_ = std::move(group_first);
  if (g.spikes_.size() != neuron_count) {
    throw std::invalid_argument("SnnGraph: spike train count != neuron count");
  }
  g.total_spikes_ = 0;
  for (const auto& t : g.spikes_) g.total_spikes_ += t.size();
  g.validate();
  g.build_fanout();
  return g;
}

void SnnGraph::validate() const {
  for (const auto& e : edges_) {
    if (e.pre >= neuron_count_ || e.post >= neuron_count_) {
      throw std::invalid_argument("SnnGraph: edge endpoint out of range");
    }
  }
  for (const auto& t : spikes_) {
    if (!is_valid_train(t)) {
      throw std::invalid_argument("SnnGraph: unsorted or negative spike train");
    }
  }
  if (!group_first_.empty()) {
    if (group_first_.size() != group_names_.size() + 1 ||
        group_first_.back() != neuron_count_) {
      throw std::invalid_argument("SnnGraph: malformed group annotations");
    }
  }
}

void SnnGraph::build_fanout() {
  // Distinct (pre -> post) targets, CSR over pre: bucket the edges by pre
  // (counting sort), then sort and dedupe each bucket, compacting in place.
  fanout_offsets_.assign(neuron_count_ + 1, 0);
  for (const auto& e : edges_) ++fanout_offsets_[e.pre + 1];
  for (std::size_t i = 1; i < fanout_offsets_.size(); ++i) {
    fanout_offsets_[i] += fanout_offsets_[i - 1];
  }
  fanout_targets_.resize(edges_.size());
  std::vector<std::uint32_t> cursor(fanout_offsets_.begin(),
                                    fanout_offsets_.end() - 1);
  for (const auto& e : edges_) fanout_targets_[cursor[e.pre]++] = e.post;

  const auto targets = fanout_targets_.begin();
  std::uint32_t kept = 0;
  for (std::uint32_t pre = 0; pre < neuron_count_; ++pre) {
    const auto begin = targets + fanout_offsets_[pre];
    auto end = targets + fanout_offsets_[pre + 1];
    // Buckets that are already strictly increasing (all of them when the
    // edges come from from_simulation) need no sort and hold no duplicates.
    if (std::adjacent_find(begin, end, std::greater_equal<>()) != end) {
      std::sort(begin, end);
      end = std::unique(begin, end);
    }
    fanout_offsets_[pre] = kept;
    for (auto it = begin; it != end; ++it) targets[kept++] = *it;
  }
  fanout_offsets_[neuron_count_] = kept;
  fanout_targets_.resize(kept);
}

double SnnGraph::mean_rate_hz() const noexcept {
  if (neuron_count_ == 0 || duration_ms_ <= 0.0) return 0.0;
  return static_cast<double>(total_spikes_) /
         static_cast<double>(neuron_count_) / duration_ms_ * 1000.0;
}

}  // namespace snnmap::snn
