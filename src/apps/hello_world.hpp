// "hello world" (HW) — CARLsim's introductory network, Table I:
// feedforward (117, 9).  117 Izhikevich regular-spiking neurons, each driven
// one-to-one by a Poisson source (rates spread over 10-50 Hz), feeding a
// fully connected 9-neuron output layer — a 13x9 "pixel grid to detectors"
// toy, rate coded.
#pragma once

#include <cstdint>

#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace snnmap::apps {

struct HelloWorldConfig {
  std::uint64_t seed = 1;
  double duration_ms = 500.0;
};

/// Builds, simulates and extracts the spike graph.
// snnmap-lint: allow(test-only-api) -- the one-call graph form every app
// header offers; the registry composes the _network and _sim_config halves.
snn::SnnGraph build_hello_world(const HelloWorldConfig& config = {});

/// The network the graph builder simulates (closed-loop co-simulation
/// entry point) and the simulation config that extraction uses.
snn::Network build_hello_world_network(const HelloWorldConfig& config = {});
snn::SimulationConfig hello_world_sim_config(const HelloWorldConfig& config = {});

}  // namespace snnmap::apps
