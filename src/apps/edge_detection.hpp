// Edge detection (ED) — a CARLsim-tutorial-style companion to the image
// smoothing app: a 32x32 rate-coded image filtered through a
// difference-of-Gaussians (DoG) kernel — excitatory center, inhibitory
// surround — so output neurons fire where intensity *changes*.  Not part of
// Table I; included as the fifth runnable application because it exercises
// the one connectivity pattern the paper's workloads don't: spatially
// structured *inhibitory* kernels (negative-weight gaussian surround).
#pragma once

#include <cstdint>
#include <vector>

#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace snnmap::apps {

struct EdgeDetectionConfig {
  std::uint64_t seed = 1;
  double duration_ms = 400.0;
  std::uint32_t width = 32;
  std::uint32_t height = 32;
  int center_radius = 1;
  int surround_radius = 2;
  double center_weight = 14.0;
  double surround_weight = -3.9;
  double max_rate_hz = 80.0;
};

// snnmap-lint: allow(test-only-api) -- the one-call graph form every app
// header offers; the registry composes the _network and _sim_config halves.
snn::SnnGraph build_edge_detection(const EdgeDetectionConfig& config = {});

/// The network the graph builder simulates (closed-loop co-simulation
/// entry point) and the simulation config that extraction uses.
snn::Network build_edge_detection_network(
    const EdgeDetectionConfig& config = {});
snn::SimulationConfig edge_detection_sim_config(
    const EdgeDetectionConfig& config = {});

}  // namespace snnmap::apps
