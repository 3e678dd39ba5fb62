#include "noc/metrics.hpp"

#include <gtest/gtest.h>

namespace snnmap::noc {
namespace {

DeliveredSpike spike(std::uint32_t neuron, TileId dest, std::uint64_t emit,
                     std::uint64_t recv, std::uint32_t seq = 0) {
  DeliveredSpike d;
  d.source_neuron = neuron;
  d.dest_tile = dest;
  d.emit_cycle = emit;
  d.emit_step = emit;  // tests treat each emission cycle as its own step
  d.recv_cycle = recv;
  d.sequence = seq;
  return d;
}

TEST(SnnMetrics, EmptyLogIsAllZero) {
  const auto m = compute_snn_metrics({});
  EXPECT_EQ(m.delivered_spikes, 0u);
  EXPECT_EQ(m.disordered_spikes, 0u);
  EXPECT_EQ(m.disorder_fraction, 0.0);
  EXPECT_EQ(m.isi_distortion_avg_cycles, 0.0);
}

TEST(SnnMetrics, InOrderDeliveriesHaveNoDisorder) {
  const auto m = compute_snn_metrics({
      spike(1, 0, 10, 20),
      spike(2, 0, 15, 26),
      spike(1, 0, 30, 41),
  });
  EXPECT_EQ(m.disordered_spikes, 0u);
  EXPECT_EQ(m.disorder_fraction, 0.0);
}

TEST(SnnMetrics, OvertakenSpikeCountsAsDisordered) {
  // Neuron 2 emitted later (15) but arrives before neuron 1's spike (10).
  const auto m = compute_snn_metrics({
      spike(2, 0, 15, 18),
      spike(1, 0, 10, 25),  // arrives after a later-emitted spike
  });
  EXPECT_EQ(m.disordered_spikes, 1u);
  EXPECT_DOUBLE_EQ(m.disorder_fraction, 0.5);
  EXPECT_DOUBLE_EQ(m.disorder_percent(), 50.0);
}

TEST(SnnMetrics, SameStepSwapsAreNotDisorder) {
  // Two spikes of the same SNN step have no defined order: an arrival swap
  // between them must not count as disorder.
  auto a = spike(1, 0, 10, 30);
  auto b = spike(2, 0, 12, 25);
  a.emit_step = 5;
  b.emit_step = 5;
  const auto m = compute_snn_metrics({a, b});
  EXPECT_EQ(m.disordered_spikes, 0u);
}

TEST(SnnMetrics, CrossStepOvertakingIsDisorder) {
  auto a = spike(1, 0, 10, 30);
  auto b = spike(2, 0, 12, 25);
  a.emit_step = 5;
  b.emit_step = 6;  // later step arrives first -> the step-5 spike is late
  const auto m = compute_snn_metrics({a, b});
  EXPECT_EQ(m.disordered_spikes, 1u);
}

TEST(SnnMetrics, DisorderIsPerDestination) {
  // Same pattern as above but on different destinations -> no disorder.
  const auto m = compute_snn_metrics({
      spike(2, 0, 15, 18),
      spike(1, 1, 10, 25),
  });
  EXPECT_EQ(m.disordered_spikes, 0u);
}

TEST(SnnMetrics, UniformDelayHasZeroIsiDistortion) {
  // Constant latency preserves every inter-spike interval.
  const auto m = compute_snn_metrics({
      spike(1, 0, 100, 110, 0),
      spike(1, 0, 200, 210, 1),
      spike(1, 0, 350, 360, 2),
  });
  EXPECT_EQ(m.isi_pairs, 2u);
  EXPECT_DOUBLE_EQ(m.isi_distortion_avg_cycles, 0.0);
  EXPECT_DOUBLE_EQ(m.isi_distortion_max_cycles, 0.0);
}

TEST(SnnMetrics, VariableDelayDistortsIsi) {
  // Emission ISIs: 100, 100.  Arrival ISIs: 130, 80.
  const auto m = compute_snn_metrics({
      spike(1, 0, 0, 10, 0),
      spike(1, 0, 100, 140, 1),   // +30 distortion
      spike(1, 0, 200, 220, 2),   // -20 distortion
  });
  EXPECT_EQ(m.isi_pairs, 2u);
  EXPECT_DOUBLE_EQ(m.isi_distortion_avg_cycles, 25.0);  // (30+20)/2
  EXPECT_DOUBLE_EQ(m.isi_distortion_max_cycles, 30.0);
}

TEST(SnnMetrics, IsiStreamsAreSeparatedBySourceAndDest) {
  // Two sources interleaved at one destination: ISIs must be computed per
  // source, not across the merged stream.
  const auto m = compute_snn_metrics({
      spike(1, 0, 0, 5, 0),
      spike(2, 0, 50, 55, 0),
      spike(1, 0, 100, 105, 1),  // source-1 ISI 100 -> arrival 100: clean
      spike(2, 0, 150, 155, 1),  // source-2 ISI 100 -> arrival 100: clean
  });
  EXPECT_EQ(m.isi_pairs, 2u);
  EXPECT_DOUBLE_EQ(m.isi_distortion_avg_cycles, 0.0);
}

TEST(SnnMetrics, SequenceOrdersIsiStreams) {
  // Deliveries listed out of order; sequence numbers restore emission order.
  const auto m = compute_snn_metrics({
      spike(1, 0, 100, 140, 1),
      spike(1, 0, 0, 10, 0),
  });
  EXPECT_EQ(m.isi_pairs, 1u);
  EXPECT_DOUBLE_EQ(m.isi_distortion_avg_cycles, 30.0);
}

TEST(NocStats, ThroughputComputation) {
  NocStats s;
  s.copies_delivered = 500;
  s.duration_cycles = 10000;
  // 10000 cycles at 1000 cycles/ms = 10 ms -> 50 AER/ms.
  EXPECT_DOUBLE_EQ(s.throughput_aer_per_ms(1000), 50.0);
  EXPECT_EQ(s.throughput_aer_per_ms(0), 0.0);
  s.duration_cycles = 0;
  EXPECT_EQ(s.throughput_aer_per_ms(1000), 0.0);
}

TEST(Activity, DifferenceUndoesSumAndEnergyUsesTheFourArgFormula) {
  const Activity a{.flits_injected = 3,
                   .copies_delivered = 5,
                   .link_hops = 11,
                   .offchip_link_hops = 2,
                   .router_traversals = 13,
                   .busy_cycles = 17};
  const Activity b{.flits_injected = 100,
                   .copies_delivered = 200,
                   .link_hops = 300,
                   .offchip_link_hops = 40,
                   .router_traversals = 500,
                   .busy_cycles = 600};
  Activity sum = a;
  sum += b;
  EXPECT_EQ(sum, (Activity{.flits_injected = 103,
                           .copies_delivered = 205,
                           .link_hops = 311,
                           .offchip_link_hops = 42,
                           .router_traversals = 513,
                           .busy_cycles = 617}));
  EXPECT_EQ(sum - b, a);
  EXPECT_EQ(a.codec_events(), 8u);

  hw::EnergyModel m;
  m.aer_codec_pj = 1.0;
  m.link_hop_pj = 10.0;
  m.router_flit_pj = 5.0;
  m.offchip_link_hop_pj = 40.0;
  EXPECT_EQ(a.energy_pj(m),
            m.activity_energy_pj(
                static_cast<double>(a.flits_injected + a.copies_delivered),
                static_cast<double>(a.link_hops - a.offchip_link_hops),
                static_cast<double>(a.router_traversals),
                static_cast<double>(a.offchip_link_hops)));
  // Busy cycles cost nothing.
  Activity idle;
  idle.busy_cycles = 1000;
  EXPECT_EQ(idle.energy_pj(m), 0.0);
}

TEST(DeliveredSpike, LatencyHelper) {
  EXPECT_EQ(spike(0, 0, 10, 25).latency(), 15u);
}

}  // namespace
}  // namespace snnmap::noc
