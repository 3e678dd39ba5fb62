#include "core/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace snnmap::core {
namespace {

// -- value codecs: one parser and one formatter per value kind

template <typename T>
T parse_value(const std::string& text) {
  const char* first = text.data();
  const char* last = first + text.size();
  if constexpr (std::is_same_v<T, bool>) {
    std::string lower = text;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") {
      return true;
    }
    if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
      return false;
    }
    throw std::invalid_argument("expected a bool, got '" + text + "'");
  } else if constexpr (std::is_same_v<T, double>) {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
      throw std::invalid_argument("expected a number, got '" + text + "'");
    }
    return value;
  } else {
    // Checked narrowing: parse the full unsigned 64-bit range, then reject
    // anything the field cannot hold instead of wrapping it.
    static_assert(std::is_unsigned_v<T>);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last ||
        value > std::numeric_limits<T>::max()) {
      throw std::invalid_argument(
          "expected an integer in [0, " +
          std::to_string(std::numeric_limits<T>::max()) + "], got '" + text +
          "'");
    }
    return static_cast<T>(value);
  }
}

std::string format_value(bool value) { return value ? "true" : "false"; }
std::string format_value(std::uint32_t value) {
  return std::to_string(value);
}
std::string format_value(std::uint64_t value) {
  return std::to_string(value);
}
// The shortest text that parses back to the identical double.
std::string format_value(double value) {
  char text[32];
  const auto [end, ec] = std::to_chars(text, text + sizeof text, value);
  return std::string(text, end);
}

noc::SelectionStrategy selection_from_string(const std::string& name) {
  if (name == "first-candidate") return noc::SelectionStrategy::kFirstCandidate;
  if (name == "buffer-level") return noc::SelectionStrategy::kBufferLevel;
  throw std::invalid_argument("unknown selection strategy: '" + name + "'");
}

// -- the key table

/// One config key bound to one field of `Root`.
template <typename Root>
struct Key {
  const char* name;
  std::function<void(Root&, const std::string&)> parse;
  std::function<std::string(const Root&)> format;
};

/// A bool / u32 / u64 / double key; `field` maps a (const) Root to the
/// bound member.
template <typename Root, typename Field>
Key<Root> key(const char* name, Field field) {
  using T = std::remove_cvref_t<decltype(field(std::declval<Root&>()))>;
  return {name,
          [field](Root& root, const std::string& text) {
            field(root) = parse_value<T>(text);
          },
          [field](const Root& root) { return format_value(field(root)); }};
}

/// An enum key, spelled by its `to_string` and parsed by `from_string`.
template <typename Root, typename Field, typename E>
Key<Root> key(const char* name, Field field,
              E (*from_string)(const std::string&)) {
  return {name,
          [field, from_string](Root& root, const std::string& text) {
            field(root) = from_string(text);
          },
          [field](const Root& root) {
            return std::string(to_string(field(root)));
          }};
}

// The accessor of a field at `path` in the root.  It is generic, so one
// lambda serves both the parser (mutable root) and the writer (const root).
#define SNNMAP_FIELD(path) [](auto& c) -> auto& { return c.path; }

const std::vector<Key<MappingFlowConfig>>& flow_keys() {
  using F = MappingFlowConfig;
  static const std::vector<Key<F>> keys = {
      key<F>("arch.crossbars", SNNMAP_FIELD(arch.crossbar_count)),
      key<F>("arch.neurons_per_crossbar",
             SNNMAP_FIELD(arch.neurons_per_crossbar)),
      key<F>("arch.interconnect", SNNMAP_FIELD(arch.interconnect),
             &hw::interconnect_from_string),
      key<F>("arch.tree_arity", SNNMAP_FIELD(arch.tree_arity)),
      key<F>("arch.dragonfly_arity", SNNMAP_FIELD(arch.dragonfly_arity)),
      key<F>("arch.dragonfly_groups", SNNMAP_FIELD(arch.dragonfly_groups)),
      key<F>("arch.dragonfly_global", SNNMAP_FIELD(arch.dragonfly_global)),
      key<F>("arch.fattree_k", SNNMAP_FIELD(arch.fattree_k)),
      key<F>("arch.chips", SNNMAP_FIELD(arch.chip_count)),
      key<F>("arch.cycles_per_ms", SNNMAP_FIELD(arch.cycles_per_ms)),

      key<F>("noc.buffer_depth", SNNMAP_FIELD(noc.buffer_depth)),
      key<F>("noc.multicast", SNNMAP_FIELD(noc.multicast)),
      key<F>("noc.selection", SNNMAP_FIELD(noc.selection),
             &selection_from_string),
      key<F>("noc.mesh_routing", SNNMAP_FIELD(mesh_routing),
             &noc::mesh_routing_from_string),
      key<F>("noc.engine", SNNMAP_FIELD(noc.engine),
             &noc::noc_engine_from_string),
      key<F>("noc.max_cycles", SNNMAP_FIELD(noc.max_cycles)),
      key<F>("noc.collect_delivered", SNNMAP_FIELD(noc.collect_delivered)),
      key<F>("noc.offchip_link_latency",
             SNNMAP_FIELD(noc.offchip_link_latency)),

      // Fault injection: the all-zero defaults keep the model inert.
      key<F>("faults.seed", SNNMAP_FIELD(noc.faults.seed)),
      key<F>("faults.link_fault_rate",
             SNNMAP_FIELD(noc.faults.link_fault_rate)),
      key<F>("faults.router_fault_rate",
             SNNMAP_FIELD(noc.faults.router_fault_rate)),
      key<F>("faults.tile_fault_rate",
             SNNMAP_FIELD(noc.faults.tile_fault_rate)),
      key<F>("faults.transient_link_rate",
             SNNMAP_FIELD(noc.faults.transient_link_rate)),
      key<F>("faults.transient_duration_cycles",
             SNNMAP_FIELD(noc.faults.transient_duration_cycles)),
      key<F>("faults.flit_drop_probability",
             SNNMAP_FIELD(noc.faults.flit_drop_probability)),
      key<F>("faults.horizon_cycles",
             SNNMAP_FIELD(noc.faults.horizon_cycles)),

      // Observability: tracing and the congestion monitor default off.
      key<F>("trace.enabled", SNNMAP_FIELD(noc.trace.enabled)),
      key<F>("trace.ring_capacity", SNNMAP_FIELD(noc.trace.ring_capacity)),
      key<F>("monitor.enabled", SNNMAP_FIELD(noc.monitor.enabled)),
      key<F>("monitor.ewma_alpha", SNNMAP_FIELD(noc.monitor.ewma_alpha)),
      key<F>("monitor.hot_occupancy",
             SNNMAP_FIELD(noc.monitor.hot_occupancy)),
      key<F>("monitor.persistence_windows",
             SNNMAP_FIELD(noc.monitor.persistence_windows)),

      // Energy binds to the one shared model the cost model and the
      // simulators all reference (the NoC config's).
      key<F>("energy.crossbar_event_pj",
             SNNMAP_FIELD(noc.energy.crossbar_event_pj)),
      key<F>("energy.link_hop_pj", SNNMAP_FIELD(noc.energy.link_hop_pj)),
      key<F>("energy.offchip_link_hop_pj",
             SNNMAP_FIELD(noc.energy.offchip_link_hop_pj)),
      key<F>("energy.router_flit_pj", SNNMAP_FIELD(noc.energy.router_flit_pj)),
      key<F>("energy.aer_codec_pj", SNNMAP_FIELD(noc.energy.aer_codec_pj)),
      key<F>("energy.retransmit_pj", SNNMAP_FIELD(noc.energy.retransmit_pj)),

      key<F>("pso.swarm_size", SNNMAP_FIELD(pso.swarm_size)),
      key<F>("pso.iterations", SNNMAP_FIELD(pso.iterations)),
      key<F>("pso.inertia", SNNMAP_FIELD(pso.inertia)),
      key<F>("pso.phi1", SNNMAP_FIELD(pso.phi1)),
      key<F>("pso.phi2", SNNMAP_FIELD(pso.phi2)),
      key<F>("pso.v_max", SNNMAP_FIELD(pso.v_max)),
      key<F>("pso.seed_with_baselines", SNNMAP_FIELD(pso.seed_with_baselines)),
      key<F>("pso.objective", SNNMAP_FIELD(pso.objective),
             &objective_from_string),
      key<F>("pso.refine_sweeps", SNNMAP_FIELD(pso.refine_sweeps)),
      key<F>("pso.refine_swap_factor", SNNMAP_FIELD(pso.refine_swap_factor)),
      key<F>("pso.patience", SNNMAP_FIELD(pso.patience)),
      key<F>("pso.threads", SNNMAP_FIELD(pso.threads)),

      key<F>("annealing.moves", SNNMAP_FIELD(annealing.moves)),
      key<F>("annealing.cooling", SNNMAP_FIELD(annealing.cooling)),
      key<F>("annealing.swap_probability",
             SNNMAP_FIELD(annealing.swap_probability)),
      key<F>("annealing.restarts", SNNMAP_FIELD(annealing.restarts)),
      key<F>("annealing.threads", SNNMAP_FIELD(annealing.threads)),
      key<F>("genetic.population", SNNMAP_FIELD(genetic.population)),
      key<F>("genetic.generations", SNNMAP_FIELD(genetic.generations)),
      key<F>("genetic.mutation_rate", SNNMAP_FIELD(genetic.mutation_rate)),
      key<F>("genetic.threads", SNNMAP_FIELD(genetic.threads)),

      key<F>("flow.partitioner", SNNMAP_FIELD(partitioner),
             &partitioner_from_string),
      key<F>("flow.comm_aware_placement", SNNMAP_FIELD(comm_aware_placement)),
      key<F>("flow.injection_jitter_cycles",
             SNNMAP_FIELD(injection_jitter_cycles)),
      key<F>("flow.seed", SNNMAP_FIELD(seed)),
  };
  return keys;
}

const std::vector<Key<cosim::CoSimConfig>>& cosim_keys() {
  using C = cosim::CoSimConfig;
  static const std::vector<Key<C>> keys = {
      key<C>("cosim.cycles_per_timestep", SNNMAP_FIELD(cycles_per_timestep)),
      // The unbounded default serializes as its sentinel,
      // kUnboundedReceiveQueue; 0 is rejected by the CoSimulator.
      key<C>("cosim.receive_queue_depth", SNNMAP_FIELD(receive_queue_depth)),
      key<C>("cosim.injection_jitter_cycles",
             SNNMAP_FIELD(injection_jitter_cycles)),

      key<C>("dvfs.policy", SNNMAP_FIELD(dvfs.kind),
             &cosim::dvfs_policy_from_string),
      key<C>("dvfs.min_scale", SNNMAP_FIELD(dvfs.min_scale)),
      key<C>("dvfs.low_utilization", SNNMAP_FIELD(dvfs.low_utilization)),
      key<C>("dvfs.high_utilization", SNNMAP_FIELD(dvfs.high_utilization)),
      key<C>("dvfs.slack_fraction", SNNMAP_FIELD(dvfs.slack_fraction)),

      key<C>("retry.enabled", SNNMAP_FIELD(retry.enabled)),
      key<C>("retry.max_retries", SNNMAP_FIELD(retry.max_retries)),
      key<C>("retry.backoff_windows", SNNMAP_FIELD(retry.backoff_windows)),
      key<C>("retry.timeout_windows", SNNMAP_FIELD(retry.timeout_windows)),
  };
  return keys;
}

#undef SNNMAP_FIELD

/// Overlays every key present in `config` onto `root`; a bad value throws
/// std::invalid_argument naming its key.
template <typename Root>
void overlay(const std::vector<Key<Root>>& keys, const util::Config& config,
             Root& root) {
  for (const Key<Root>& k : keys) {
    const auto text = config.get_string(k.name);
    if (!text) continue;
    try {
      k.parse(root, *text);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("config: key '" + std::string(k.name) +
                                  "': " + e.what());
    }
  }
}

template <typename Root>
void write(const std::vector<Key<Root>>& keys, const Root& root,
           util::Config& config) {
  for (const Key<Root>& k : keys) config.set(k.name, k.format(root));
}

}  // namespace

PartitionerKind partitioner_from_string(const std::string& name) {
  if (name == "pso") return PartitionerKind::kPso;
  if (name == "pacman") return PartitionerKind::kPacman;
  if (name == "neutrams") return PartitionerKind::kNeutrams;
  if (name == "annealing") return PartitionerKind::kAnnealing;
  if (name == "genetic") return PartitionerKind::kGenetic;
  throw std::invalid_argument("unknown partitioner: '" + name + "'");
}

Objective objective_from_string(const std::string& name) {
  if (name == "aer-packets") return Objective::kAerPackets;
  if (name == "cut-spikes") return Objective::kCutSpikes;
  throw std::invalid_argument("unknown objective: '" + name + "'");
}

MappingFlowConfig mapping_flow_from_config(const util::Config& config) {
  MappingFlowConfig flow;
  overlay(flow_keys(), config, flow);
  flow.noc.energy.validate();
  return flow;
}

void mapping_flow_to_config(const MappingFlowConfig& flow,
                            util::Config& config) {
  write(flow_keys(), flow, config);
}

cosim::CoSimConfig cosim_from_config(const util::Config& config,
                                     cosim::CoSimConfig base) {
  overlay(cosim_keys(), config, base);
  return base;
}

void cosim_to_config(const cosim::CoSimConfig& cosim, util::Config& config) {
  write(cosim_keys(), cosim, config);
}

}  // namespace snnmap::core
