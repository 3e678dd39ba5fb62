// Interconnect metrics, including the two SNN-specific metrics the paper
// introduces (Sec. II):
//
//  * Spike disorder count — fraction of delivered spikes that arrive at a
//    destination after a spike that was emitted later ("crossbar with B is
//    arbitrated to occupy the interconnect prior to crossbar with A").
//  * Inter-spike-interval (ISI) distortion — per (source neuron, destination)
//    stream, the difference between consecutive emission intervals and the
//    corresponding arrival intervals, caused by congestion delaying some
//    packets more than others.  Table II reports the average; Sec. III also
//    defines the maximum — both are computed.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "hw/energy_model.hpp"
#include "noc/topology.hpp"
#include "util/stats.hpp"

namespace snnmap::noc {

/// One delivered spike copy, as observed by the destination decoder.
struct DeliveredSpike {
  std::uint32_t source_neuron = 0;
  TileId source_tile = 0;
  TileId dest_tile = 0;
  std::uint64_t emit_cycle = 0;  ///< cycle the encoder transmitted the packet
  /// SNN timestep (ms index) of the spike.  Disorder is judged on this, not
  /// on emit_cycle: spikes of the same 1 ms step have no defined order (the
  /// encoder serializes them arbitrarily), so only cross-step overtaking is
  /// information loss.
  std::uint64_t emit_step = 0;
  std::uint64_t recv_cycle = 0;  ///< cycle the decoder received it
  std::uint32_t sequence = 0;    ///< per-source-neuron emission counter

  std::uint64_t latency() const noexcept { return recv_cycle - emit_cycle; }
};

/// Fault-injection accounting of one run/session (all zero — and the fault
/// branches never taken — when no FaultConfig is set; see noc/faults.hpp).
struct FaultStats {
  std::uint64_t link_faults = 0;       ///< bidirectional link-down transitions
  std::uint64_t router_faults = 0;     ///< router-down transitions
  std::uint64_t tile_faults = 0;       ///< direct tile-down transitions
  std::uint64_t links_restored = 0;    ///< transient link recoveries
  /// Flits forwarded through a non-primary port because the primary
  /// candidate was fault-masked (the fault-aware reroute counter).
  std::uint64_t reroutes = 0;
  std::uint64_t flits_dropped = 0;   ///< flit copies lost on a lossy wire
  std::uint64_t copies_dropped = 0;  ///< destination copies those flits held
  /// Destination copies purged from a dying router's buffers.
  std::uint64_t copies_killed = 0;
  /// Destination copies abandoned because no live route exists (pruned at
  /// injection, at a fault transition, or when a flit reaches a router
  /// with every candidate port dead).
  std::uint64_t copies_unroutable = 0;
  /// Destination copies of packets whose *source* tile/router was dead at
  /// injection time (the spike never entered the fabric).
  std::uint64_t copies_blocked_at_source = 0;
  /// Packet events that contributed no flit at all (dead source, or every
  /// destination unroutable).
  std::uint64_t packets_blocked = 0;
  /// Destination copies a max_cycles halt left undelivered: still buffered
  /// in the fabric, or held by queued events that were never injected
  /// (traffic due at or beyond max_cycles is not injected — see
  /// NocConfig::max_cycles).  Zero on drained runs.  Not a fault mechanism
  /// (any() ignores it; fault-free halts strand copies too), but part of
  /// copies_lost() so the conservation identity
  ///   copies_delivered + copies_lost() == copies offered
  /// holds for halted sessions exactly as for drained ones.
  std::uint64_t copies_stranded = 0;

  /// Destination copies that did not (and will never) reach a decoder, by
  /// every mechanism — fault losses plus halt stranding.
  std::uint64_t copies_lost() const noexcept {
    return copies_dropped + copies_killed + copies_unroutable +
           copies_blocked_at_source + copies_stranded;
  }
  bool any() const noexcept {
    return link_faults != 0 || router_faults != 0 || tile_faults != 0 ||
           reroutes != 0 || flits_dropped != 0 || copies_dropped != 0 ||
           copies_killed != 0 || copies_unroutable != 0 ||
           copies_blocked_at_source != 0;
  }
};

/// Interconnect activity as exact integer counters: the spike traffic the
/// paper prices global synapses by.  NocStats (session totals),
/// WindowEnergySample (one window's deltas) and WindowEnergyReport (the sum
/// of its windows) each carry one, so a window is `now - snapshot` and a
/// report is `+=` over its windows.  energy_pj() is the one place an
/// activity count is turned into pJ, so equal activity prices bit-identically
/// wherever it was accumulated.
struct Activity {
  std::uint64_t flits_injected = 0;    ///< flit copies entering the NoC
  std::uint64_t copies_delivered = 0;  ///< flit copies reaching a decoder
  std::uint64_t link_hops = 0;         ///< flit-link traversals (on + off chip)
  /// Subset of link_hops crossing a chip boundary (0 on single-chip
  /// fabrics); priced at EnergyModel::offchip_link_hop_pj.
  std::uint64_t offchip_link_hops = 0;
  std::uint64_t router_traversals = 0;  ///< flit-router (switch) traversals
  /// Cycles the fabric arbitrated (idle spans are fast-forwarded and cost
  /// no energy or activity).
  std::uint64_t busy_cycles = 0;

  Activity& operator+=(const Activity& other) noexcept;
  bool operator==(const Activity&) const = default;

  /// AER encodes (one per flit copy) plus decodes (one per delivery).
  std::uint64_t codec_events() const noexcept {
    return flits_injected + copies_delivered;
  }
  /// The activity priced at `model`'s nominal constants (busy cycles cost
  /// nothing; DVFS scaling is the consumer's, e.g. cosim::CoSimulator).
  double energy_pj(const hw::EnergyModel& model) const noexcept {
    return model.activity_energy_pj(
        static_cast<double>(codec_events()),
        static_cast<double>(link_hops - offchip_link_hops),
        static_cast<double>(router_traversals),
        static_cast<double>(offchip_link_hops));
  }
};

/// Every Activity counter with its name, in declaration order: the
/// arithmetic below and the simulator's metrics ("noc." + name) iterate it.
struct ActivityField {
  const char* name;
  std::uint64_t Activity::*count;
};
inline constexpr std::array<ActivityField, 6> kActivityFields{{
    {"flits_injected", &Activity::flits_injected},
    {"copies_delivered", &Activity::copies_delivered},
    {"link_hops", &Activity::link_hops},
    {"offchip_link_hops", &Activity::offchip_link_hops},
    {"router_traversals", &Activity::router_traversals},
    {"busy_cycles", &Activity::busy_cycles},
}};

inline Activity& Activity::operator+=(const Activity& other) noexcept {
  for (const ActivityField& f : kActivityFields) {
    this->*f.count += other.*f.count;
  }
  return *this;
}

/// Counter-wise difference; `later - earlier` of one session's running
/// totals is the activity in between.
inline Activity operator-(Activity a, const Activity& b) noexcept {
  for (const ActivityField& f : kActivityFields) a.*f.count -= b.*f.count;
  return a;
}

/// Conventional interconnect statistics (latency/energy/throughput, Sec. II).
/// The inherited Activity holds the session's totals.
struct NocStats : Activity {
  std::uint64_t packets_injected = 0;   ///< traffic events offered
  /// Interconnect (global synapse) energy: Activity::energy_pj.
  double global_energy_pj = 0.0;
  util::Accumulator latency_cycles;     ///< per delivered copy
  std::uint64_t max_latency_cycles = 0;
  std::uint64_t duration_cycles = 0;    ///< cycles until the NoC drained
  bool drained = true;                  ///< false if max_cycles was hit
  /// Flit traversals per directed link, keyed (from_router << 32) | to.
  /// Exposes hotspots; summarized by link_utilization_*() below.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> link_flits;
  /// Fault-injection accounting (all zero on fault-free runs).
  FaultStats fault;

  /// AER packets per millisecond observed at decoders.
  double throughput_aer_per_ms(std::uint32_t cycles_per_ms) const noexcept;

  /// Max and mean flits over links that carried traffic (0 when none).
  std::uint64_t max_link_flits() const noexcept;
  double mean_link_flits() const noexcept;
  /// Hotspot factor: max/mean over used links (1.0 = perfectly even).
  double link_hotspot_factor() const noexcept;
};

/// Activity observed by one accounting window of a NocSimulator session
/// ([start_cycle, end_cycle) of virtual time).  The inherited counts are
/// exact integer deltas of the simulator's counters at the window
/// boundaries, so summing windows reproduces the one-shot aggregates with
/// no floating-point drift.
struct WindowEnergySample : Activity {
  std::uint64_t index = 0;        ///< position in the session's window list
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  /// Largest per-directed-link flit count within the window (hotspot peak).
  std::uint64_t peak_link_flits = 0;
  /// Activity::energy_pj of the window, at the nominal EnergyModel
  /// constants (DVFS scaling is applied by the consumer, e.g.
  /// cosim::CoSimulator).
  double energy_pj = 0.0;

  /// Busy fraction of the window's virtual-time span (0 for empty spans).
  double utilization() const noexcept {
    return end_cycle > start_cycle
               ? static_cast<double>(busy_cycles) /
                     static_cast<double>(end_cycle - start_cycle)
               : 0.0;
  }
};

/// Per-window energy accounting of one NocSimulator session.  The inherited
/// Activity is the exact sum of the samples' deltas, so `total_energy_pj`
/// is bit-identical to the NocStats::global_energy_pj the same session
/// reports — windowing loses nothing relative to one-shot accounting.
struct WindowEnergyReport : Activity {
  std::vector<WindowEnergySample> windows;
  double total_energy_pj = 0.0;  ///< Activity::energy_pj of the totals
};

/// The paper's SNN performance metrics.
struct SnnMetrics {
  double isi_distortion_avg_cycles = 0.0;
  double isi_distortion_max_cycles = 0.0;
  double disorder_fraction = 0.0;  ///< disordered spikes / delivered spikes
  std::uint64_t disordered_spikes = 0;
  std::uint64_t delivered_spikes = 0;
  std::uint64_t isi_pairs = 0;  ///< number of (stream, consecutive-pair) samples

  double disorder_percent() const noexcept { return disorder_fraction * 100.0; }
};

/// Computes disorder + ISI distortion from the delivery log.
/// Disorder: per destination tile, scan deliveries in arrival order and count
/// spikes overtaken by a later-emitted spike.
/// ISI distortion: per (source neuron, destination tile) stream in emission
/// order, |(recv_i - recv_{i-1}) - (emit_i - emit_{i-1})|.
SnnMetrics compute_snn_metrics(std::vector<DeliveredSpike> delivered);

}  // namespace snnmap::noc
