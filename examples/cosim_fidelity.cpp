// Example 7: closed-loop co-simulation fidelity across partitioners.
//
// The open-loop flow scores a mapping by latency and energy; the closed
// loop measures what congestion does to the *dynamics*.  This demo maps the
// synthetic 2x120 workload with three partitioners and sweeps the fabric
// speed (cycles_per_timestep) downward: as the per-step cycle budget
// shrinks, packets start missing their emission window, effective synaptic
// delays stretch, and the spike trains diverge from the ideal-interconnect
// run — at different rates for different mappings, because a mapping with
// fewer/shorter NoC journeys degrades later.  A bounded-receive-queue row
// turns hotspot congestion into outright spike loss.
//
// The second half walks the energy-vs-divergence frontier: per mapper, the
// DVFS policies (fixed / utilization-threshold / deadline-slack) rescale
// the fabric frequency window by window.  At a generous nominal budget the
// fabric idles most of every window, so the scaling policies ratchet down
// to their frequency floor and cut interconnect energy roughly
// quadratically (E/op ~ f^2) while the spike trains stay within a bounded
// divergence of the fixed-frequency run.
//
//   ./build/examples/cosim_fidelity
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/registry.hpp"
#include "core/batch_eval.hpp"
#include "core/framework.hpp"
#include "core/placement.hpp"
#include "util/table.hpp"

int main() {
  using namespace snnmap;

  const std::uint64_t seed = 11;
  const std::string workload = "2x120";
  const snn::SnnGraph graph = apps::build_app(workload, seed);
  const apps::AppNetwork app_net = apps::build_app_network(workload, seed);

  auto arch = hw::Architecture::sized_for(graph.neuron_count(), 64,
                                          hw::InterconnectKind::kTree);
  std::cout << "workload: " << workload << " (" << graph.neuron_count()
            << " neurons, " << graph.total_spikes() << " spikes over "
            << graph.duration_ms() << " ms)\ndevice:   " << arch.describe()
            << "\n\n";

  const std::vector<core::PartitionerKind> mappers = {
      core::PartitionerKind::kPacman,
      core::PartitionerKind::kNeutrams,
      core::PartitionerKind::kPso,
  };
  const std::vector<std::uint32_t> budgets = {1024, 64, 32, 16, 8};

  // One scenario per (mapper, cycles_per_timestep); the batch evaluator
  // fans them across the pool, each with its same-seed ideal baseline.
  std::vector<core::CoSimScenario> scenarios;
  std::vector<core::CoSimScenario> frontier_bases;
  for (const auto mapper : mappers) {
    core::MappingFlowConfig flow;
    flow.arch = arch;
    flow.partitioner = mapper;
    flow.seed = seed;
    flow.pso.swarm_size = 24;
    flow.pso.iterations = 24;
    core::Partition partition = core::run_partitioner(graph, flow);

    noc::Topology topology = noc::Topology::for_architecture(arch);
    core::CoSimScenario base{
        .build = app_net.build,
        .partition = std::move(partition),
        .placement = core::identity_placement(arch.crossbar_count, topology),
        .topology = std::move(topology),
        .config = {},
        .with_ideal_baseline = true};
    base.config.snn = app_net.sim;
    frontier_bases.push_back(base);
    for (const std::uint32_t cpt : budgets) {
      core::CoSimScenario sc = base;
      sc.config.cycles_per_timestep = cpt;
      scenarios.push_back(std::move(sc));
    }
  }

  core::BatchCoSimEvaluator evaluator;
  const auto outcomes = evaluator.run_all(std::move(scenarios));

  util::Table table({"mapper", "cycles/step", "late copies", "miss %",
                     "mean transit", "divergence %"});
  for (std::size_t m = 0; m < mappers.size(); ++m) {
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      const auto& o = outcomes[m * budgets.size() + b];
      table.begin_row();
      table.cell(core::to_string(mappers[m]));
      table.cell(static_cast<std::size_t>(budgets[b]));
      table.cell(static_cast<std::size_t>(o.result.fidelity.deadline_misses +
                                          o.result.fidelity.undelivered));
      table.cell(util::format_double(
          o.result.fidelity.miss_fraction() * 100.0, 2));
      table.cell(util::format_double(
          o.result.fidelity.transit_cycles.mean(), 1));
      table.cell(util::format_double(o.divergence.fraction() * 100.0, 3));
    }
  }
  std::cout << table.to_ascii();

  // --- DVFS energy-vs-divergence frontier, per mapper -------------------
  // Nominal budget 1024 cycles/step leaves the fabric mostly idle: the
  // scaling policies ratchet the frequency to the floor and the per-event
  // energy drops quadratically, while spikes still land in their windows.
  const std::vector<cosim::DvfsPolicy> policies = [] {
    std::vector<cosim::DvfsPolicy> p(3);
    p[0].kind = cosim::DvfsPolicyKind::kFixed;
    p[1].kind = cosim::DvfsPolicyKind::kUtilizationThreshold;
    p[2].kind = cosim::DvfsPolicyKind::kDeadlineSlack;
    return p;
  }();
  std::cout << "\nDVFS frontier (nominal 1024 cycles/step, energy scale ~ "
               "f^2, floor f/4):\n";
  util::Table frontier({"mapper", "policy", "fabric E (uJ)", "vs fixed %",
                        "mean f/f0", "divergence %", "EDP (uJ*cyc)"});
  for (std::size_t m = 0; m < mappers.size(); ++m) {
    core::CoSimScenario base = frontier_bases[m];
    base.config.cycles_per_timestep = 1024;
    const auto dvfs_outcomes = evaluator.run_dvfs_sweep(base, policies);
    const double fixed_energy =
        dvfs_outcomes[0].result.fidelity.fabric_energy_pj;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto& o = dvfs_outcomes[p];
      const auto& fid = o.result.fidelity;
      frontier.begin_row();
      frontier.cell(core::to_string(mappers[m]));
      frontier.cell(cosim::to_string(policies[p].kind));
      frontier.cell(util::format_double(fid.fabric_energy_pj * 1e-6, 3));
      frontier.cell(util::format_double(
          fixed_energy > 0.0
              ? fid.fabric_energy_pj / fixed_energy * 100.0
              : 100.0,
          1));
      frontier.cell(util::format_double(fid.freq_scale.mean(), 3));
      frontier.cell(
          util::format_double(o.divergence.fraction() * 100.0, 3));
      frontier.cell(
          util::format_double(fid.energy_delay_product() * 1e-6, 2));
    }
  }
  std::cout << frontier.to_ascii();

  // Bounded receive queue at the most congested budget: hotspot crossbars
  // start refusing copies, so congestion becomes spike *loss*.
  core::MappingFlowConfig flow;
  flow.arch = arch;
  flow.partitioner = core::PartitionerKind::kPacman;
  flow.seed = seed;
  noc::Topology topology = noc::Topology::for_architecture(arch);
  core::CoSimScenario bounded{
      .build = app_net.build,
      .partition = core::run_partitioner(graph, flow),
      .placement = core::identity_placement(arch.crossbar_count, topology),
      .topology = std::move(topology),
      .config = {},
      .with_ideal_baseline = true};
  bounded.config.snn = app_net.sim;
  bounded.config.cycles_per_timestep = budgets.back();
  bounded.config.receive_queue_depth = 2;
  const auto dropped = evaluator.run_all({bounded});
  const auto& fd = dropped[0].result.fidelity;
  std::cout << "\nbounded receive queue (depth 2, " << budgets.back()
            << " cycles/step, pacman): " << fd.receive_drops
            << " copies dropped, divergence "
            << util::format_double(dropped[0].divergence.fraction() * 100.0, 3)
            << " %\n";
  return 0;
}
