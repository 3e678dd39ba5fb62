#include "apps/synthetic.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace snnmap::apps {

snn::Network build_synthetic_network(const SyntheticConfig& config) {
  if (config.layers == 0 || config.neurons_per_layer == 0) {
    throw std::invalid_argument("build_synthetic: empty topology");
  }
  util::Rng rng(config.seed);
  snn::Network net;

  const auto input =
      net.add_poisson_group("input", config.input_neurons, 0.0);
  const double lo = config.min_rate_hz;
  const double hi = config.max_rate_hz;
  const std::uint32_t inputs = config.input_neurons;
  net.set_rate_function(input, [lo, hi, inputs](std::uint32_t local, double) {
    // Mean firing rates spread evenly over [lo, hi] Hz.
    return lo + (hi - lo) * static_cast<double>(local) /
                    static_cast<double>(inputs > 1 ? inputs - 1 : 1);
  });

  // LIF layers; weights scale with 1/fan_in so that every layer stays in a
  // biologically plausible firing regime (validated by the property tests).
  snn::LifParams lif;
  lif.tau_m_ms = 16.0;
  std::vector<snn::Network::GroupId> layers;
  for (std::uint32_t l = 0; l < config.layers; ++l) {
    layers.push_back(net.add_lif_group("layer" + std::to_string(l),
                                       config.neurons_per_layer, lif));
  }
  const double input_fan = static_cast<double>(config.input_neurons);
  net.connect_full(input, layers.front(),
                   snn::WeightSpec::uniform(100.0 / input_fan,
                                            150.0 / input_fan),
                   rng);
  const double layer_fan = static_cast<double>(config.neurons_per_layer);
  for (std::size_t l = 1; l < layers.size(); ++l) {
    net.connect_full(layers[l - 1], layers[l],
                     snn::WeightSpec::uniform(90.0 / layer_fan,
                                              140.0 / layer_fan),
                     rng);
  }
  return net;
}

snn::SimulationConfig synthetic_sim_config(const SyntheticConfig& config) {
  snn::SimulationConfig sim_config;
  sim_config.seed = config.seed;
  sim_config.duration_ms = config.duration_ms;
  return sim_config;
}

snn::SnnGraph build_synthetic(const SyntheticConfig& config) {
  snn::Network net = build_synthetic_network(config);
  snn::Simulator sim(net, synthetic_sim_config(config));
  return snn::SnnGraph::from_simulation(net, sim.run());
}

SyntheticConfig parse_synthetic_name(const std::string& name) {
  std::string_view body = name;
  if (body.starts_with("synth_")) body.remove_prefix(6);
  // Each side must be a whole unsigned decimal that fits in 32 bits: no
  // sign, no whitespace, no trailing characters, no wrap-around.
  const auto parse = [](std::string_view digits, std::uint32_t& out) {
    const char* last = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), last, out);
    return ec == std::errc{} && ptr == last;
  };
  const auto x = body.find('x');
  SyntheticConfig config;
  if (x == std::string_view::npos || !parse(body.substr(0, x), config.layers) ||
      !parse(body.substr(x + 1), config.neurons_per_layer)) {
    throw std::invalid_argument("parse_synthetic_name: expected MxN, got '" +
                                name + "'");
  }
  if (config.layers == 0 || config.neurons_per_layer == 0) {
    throw std::invalid_argument("parse_synthetic_name: zero-sized topology '" +
                                name + "'");
  }
  return config;
}

}  // namespace snnmap::apps
