// "image smoothing" (IS) — Table I: feedforward (1024, 1024).
// A 32x32 synthetic image is rate-coded by 1024 Poisson pixels and smoothed
// through a 2-D Gaussian kernel into 1024 LIF neurons, CARLsim's classic
// convolution demo.  The output spike rates approximate the blurred image
// (checked in tests).
#pragma once

#include <cstdint>
#include <vector>

#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace snnmap::apps {

struct ImageSmoothingConfig {
  std::uint64_t seed = 1;
  double duration_ms = 400.0;
  std::uint32_t width = 32;
  std::uint32_t height = 32;
  int kernel_radius = 2;
  double kernel_sigma = 1.0;
  double max_rate_hz = 80.0;  ///< rate of a full-intensity pixel
};

/// Procedural test image in [0,1]: smooth gradient + bright blob + noise.
std::vector<double> make_test_image(std::uint32_t width, std::uint32_t height,
                                    std::uint64_t seed);

// snnmap-lint: allow(test-only-api) -- the one-call graph form every app
// header offers; the registry composes the _network and _sim_config halves.
snn::SnnGraph build_image_smoothing(const ImageSmoothingConfig& config = {});

/// The network the graph builder simulates (closed-loop co-simulation
/// entry point) and the simulation config that extraction uses.
snn::Network build_image_smoothing_network(
    const ImageSmoothingConfig& config = {});
snn::SimulationConfig image_smoothing_sim_config(
    const ImageSmoothingConfig& config = {});

}  // namespace snnmap::apps
