// Shared helpers for the benchmark harnesses.
//
// Crossbar sizing: the paper's evaluation maps each application across a
// CxQuad-like quad-crossbar organization.  CxQuad's literal 4x256 dimensions
// would localize the small Table I apps entirely (no global traffic) and
// cannot hold the larger ones, so — as the paper itself does in Sec. V-C,
// where crossbar size is a designer-chosen parameter — each workload gets
// the smallest power-of-two-ish crossbar that spreads it over (at least)
// four crossbars.  This preserves the pressure on the global interconnect
// that the published numbers reflect.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/framework.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"

namespace snnmap::bench {

/// True when SNNMAP_BENCH_QUICK is set: harnesses shrink swarm sizes and
/// workload durations so the full suite runs in seconds (CTest runs
/// table2_metrics, fig5_energy and fig7_swarm_size this way).
inline bool quick_mode() {
  const char* v = std::getenv("SNNMAP_BENCH_QUICK");
  return v != nullptr && std::string(v) != "0";
}

/// Crossbar capacity that spreads `neurons` over (about) `min_crossbars`
/// crossbars with ~25% slack, so partitioners have room to co-locate
/// populations (exact-fit capacities would force every mapper into nearly
/// the same balanced split).
inline std::uint32_t crossbar_size_for(std::uint32_t neurons,
                                       std::uint32_t min_crossbars = 4) {
  std::uint32_t size =
      (neurons * 5 + 4 * min_crossbars - 1) / (4 * min_crossbars);
  if (size < 16) size = 16;
  return size;
}

/// CxQuad-shaped architecture (tree, arity 4) scaled to the workload.
inline hw::Architecture scaled_cxquad(const snn::SnnGraph& graph,
                                      std::uint32_t min_crossbars = 4) {
  const std::uint32_t size =
      crossbar_size_for(graph.neuron_count(), min_crossbars);
  hw::Architecture arch = hw::Architecture::sized_for(
      graph.neuron_count(), size, hw::InterconnectKind::kTree);
  arch.tree_arity = 4;
  return arch;
}

/// Paper-default PSO settings (Sec. V-D: swarm 1000, 100 iterations found
/// best; we default to a smaller swarm that reaches the same optima on these
/// workload sizes, see fig7 for the sensitivity sweep).
inline core::PsoConfig default_pso() {
  core::PsoConfig config;
  config.swarm_size = quick_mode() ? 20 : 60;
  config.iterations = quick_mode() ? 20 : 60;
  return config;
}

}  // namespace snnmap::bench
