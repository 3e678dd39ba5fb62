// Energy model for local (crossbar) and global (interconnect) synapses.
//
// The paper uses "power numbers from in-house neuromorphic chips" (CxQuad);
// those are unreleased, so the defaults here are set in the published
// neuromorphic range (e.g. TrueNorth's 26 pJ per synaptic event) and, as in
// Noxim/Noxim++, every value can be overridden from a YAML(-subset) file
// (the `energy:` keys bound by core/config_io).
// Only relative shapes matter for the reproduced figures.
//
// Interconnect energy is *activity-based*: the simulators count codec
// events, link traversals and router (switch) traversals as exact integers
// (noc::Activity) and convert them to pJ through activity_energy_pj() — one
// shared formula, reached through noc::Activity::energy_pj for every
// integer count and directly only by the co-simulator's DVFS-weighted
// total — so one-shot totals, per-window samples and co-simulation
// accumulators are bit-identical whenever their activity counts agree (the
// windowed-energy invariant the co-simulator tests pin).
#pragma once

#include <cstdint>
#include <string>

namespace snnmap::hw {

struct EnergyModel {
  /// Energy per synaptic event inside a crossbar (one pre spike activating
  /// one local synapse), in pJ.
  double crossbar_event_pj = 2.2;
  /// Energy per flit per on-chip inter-router link traversal, in pJ.
  double link_hop_pj = 10.5;
  /// Energy per flit per off-chip (inter-chip) link traversal, in pJ.
  /// Chip-to-chip SerDes is far more expensive than an on-die wire; only
  /// reachable on multi-chip architectures (Architecture::chip_count > 1).
  double offchip_link_hop_pj = 26.0;
  /// Energy per flit per router traversal (buffering + arbitration +
  /// switching), in pJ.
  double router_flit_pj = 6.0;
  /// Energy to encode one spike into an AER packet at the source crossbar
  /// and decode it at the destination, in pJ (paid once per packet copy).
  double aer_codec_pj = 1.8;
  /// Energy to queue, re-encode and re-issue one AER retransmission after a
  /// delivery failure (NACK/timeout bookkeeping plus a fresh encode), in pJ.
  /// Paid once per retransmitted packet, on top of whatever fabric energy
  /// the retried copy itself accrues in flight.
  double retransmit_pj = 3.6;

  /// CxQuad-like defaults (identical to the member initializers; spelled out
  /// so call sites can be explicit about the provenance of their numbers).
  static EnergyModel cxquad() noexcept { return {}; }

  /// Throws std::invalid_argument when any per-event energy is NaN,
  /// infinite, or negative (parity with SimulationConfig / CoSimConfig
  /// validation: a nonsensical constant must fail loudly, not silently
  /// poison every derived statistic).
  void validate() const;

  /// Interconnect energy of an activity count: `codec_events` AER
  /// encode/decode operations, `link_hops` on-chip flit-link traversals,
  /// `router_traversals` flit-router (switch) traversals and
  /// `offchip_link_hops` inter-chip flit-link traversals.  Arguments are
  /// doubles so callers can pass exact integer counters
  /// (noc::Activity::energy_pj) or DVFS-scale-weighted activity; identical
  /// argument values produce bit-identical results.
  double activity_energy_pj(double codec_events, double link_hops,
                            double router_traversals,
                            double offchip_link_hops) const noexcept {
    return aer_codec_pj * codec_events + link_hop_pj * link_hops +
           router_flit_pj * router_traversals +
           offchip_link_hop_pj * offchip_link_hops;
  }

  /// DVFS per-event energy scale for a fabric running at `freq_scale` of
  /// its nominal frequency: under the classic voltage-tracks-frequency
  /// approximation (E per op ~ V^2, V ~ f), halving the clock quarters the
  /// per-event energy.  freq_scale = 1 returns exactly 1.
  static double dvfs_energy_scale(double freq_scale) noexcept {
    return freq_scale * freq_scale;
  }

  /// Energy of a unicast packet copy crossing `hops` links and `hops + 1`
  /// routers, in pJ.
  double packet_energy_pj(std::uint32_t hops) const noexcept {
    return aer_codec_pj + static_cast<double>(hops) * link_hop_pj +
           static_cast<double>(hops + 1) * router_flit_pj;
  }
};

}  // namespace snnmap::hw
