// Config-file binding for the mapping flow.
//
// Noxim drives its simulations from a YAML file; Noxim++ keeps that and the
// paper's framework wraps it.  This module binds MappingFlowConfig (its
// `energy:` section to the one shared model, noc.energy) and the co-sim
// scalars of cosim::CoSimConfig to the util::Config YAML subset, so an
// experiment is reproducible from a single text file (see
// examples/snnmap_cli.cpp; `snnmap_cli HW --dump-config` prints every flow
// key with its effective value):
//
//   arch:
//     crossbars: 4
//     interconnect: tree
//   flow:
//     partitioner: pso
//
// The key list lives in one place: the key tables in config_io.cpp, which
// parse, serialize and range-check every key.  Unknown keys are ignored and
// absent keys keep their defaults.  A value that does not fit its field
// (a negative or too large integer, a non-number, an unknown enum name)
// throws std::invalid_argument naming the key.
#pragma once

#include <string>

#include "core/framework.hpp"
#include "cosim/cosim.hpp"
#include "util/config.hpp"

namespace snnmap::core {

/// Parses "pso" / "pacman" / "neutrams" / "annealing" / "genetic";
/// throws std::invalid_argument on unknown names.
PartitionerKind partitioner_from_string(const std::string& name);

/// Parses "aer-packets" / "cut-spikes"; throws on unknown names.
Objective objective_from_string(const std::string& name);

/// Builds a flow config from a parsed file, starting from defaults; the
/// bound energy model is validate()d (NaN/inf/negative pJ throw).
MappingFlowConfig mapping_flow_from_config(const util::Config& config);

/// Serializes the effective configuration (round-trips via the parser).
void mapping_flow_to_config(const MappingFlowConfig& flow,
                            util::Config& config);

/// Overlays the `cosim.*`, `dvfs.*` and `retry.*` keys onto `base` (absent
/// keys keep base values).
/// Only the co-sim-specific scalars are bound here; the embedded snn / noc
/// sub-configs stay whatever the caller put in `base` — the CLI derives
/// them from the app's simulation config and the flow's NoC section.
cosim::CoSimConfig cosim_from_config(const util::Config& config,
                                     cosim::CoSimConfig base = {});

/// Serializes the co-sim scalars (round-trips via cosim_from_config).
// snnmap-lint: allow(test-only-api) -- the writer half of the cosim key
// table; the ConfigIo round-trip tests pin the table's schema through it.
void cosim_to_config(const cosim::CoSimConfig& cosim, util::Config& config);

}  // namespace snnmap::core
