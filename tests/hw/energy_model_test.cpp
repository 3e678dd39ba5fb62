#include "hw/energy_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace snnmap::hw {
namespace {

TEST(EnergyModel, DefaultsArePositive) {
  const EnergyModel m = EnergyModel::cxquad();
  EXPECT_GT(m.crossbar_event_pj, 0.0);
  EXPECT_GT(m.link_hop_pj, 0.0);
  EXPECT_GT(m.router_flit_pj, 0.0);
  EXPECT_GT(m.aer_codec_pj, 0.0);
  // SerDes crossings cost more than on-die wires by default.
  EXPECT_GT(m.offchip_link_hop_pj, m.link_hop_pj);
}

TEST(EnergyModel, PacketEnergyGrowsWithHops) {
  const EnergyModel m;
  EXPECT_LT(m.packet_energy_pj(0), m.packet_energy_pj(1));
  EXPECT_LT(m.packet_energy_pj(1), m.packet_energy_pj(5));
  // Linear: the increment per hop is link + router.
  const double inc = m.packet_energy_pj(3) - m.packet_energy_pj(2);
  EXPECT_NEAR(inc, m.link_hop_pj + m.router_flit_pj, 1e-12);
}

TEST(EnergyModel, ZeroHopStillPaysCodecAndOneRouter) {
  const EnergyModel m;
  EXPECT_NEAR(m.packet_energy_pj(0), m.aer_codec_pj + m.router_flit_pj, 1e-12);
}

TEST(EnergyModel, ValidateRejectsNanInfAndNegative) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               -0.001};
  for (const double bad : bad_values) {
    for (int field = 0; field < 6; ++field) {
      EnergyModel m;
      (field == 0   ? m.crossbar_event_pj
       : field == 1 ? m.link_hop_pj
       : field == 2 ? m.router_flit_pj
       : field == 3 ? m.offchip_link_hop_pj
       : field == 4 ? m.retransmit_pj
                    : m.aer_codec_pj) = bad;
      EXPECT_THROW(m.validate(), std::invalid_argument)
          << "field " << field << " value " << bad;
    }
  }
  EXPECT_NO_THROW(EnergyModel{}.validate());
  EnergyModel zero;
  zero.aer_codec_pj = 0.0;  // zero is odd but harmless
  EXPECT_NO_THROW(zero.validate());
}

TEST(EnergyModel, ActivityEnergyPricesEachCounter) {
  EnergyModel m;
  m.aer_codec_pj = 1.0;
  m.link_hop_pj = 10.0;
  m.router_flit_pj = 5.0;
  m.offchip_link_hop_pj = 40.0;
  EXPECT_DOUBLE_EQ(m.activity_energy_pj(0.0, 0.0, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.activity_energy_pj(2.0, 3.0, 4.0, 0.0),
                   2.0 * 1.0 + 3.0 * 10.0 + 4.0 * 5.0);
  // The off-chip term prices inter-chip hops at the distinct constant.
  EXPECT_DOUBLE_EQ(m.activity_energy_pj(2.0, 3.0, 4.0, 5.0),
                   2.0 * 1.0 + 3.0 * 10.0 + 4.0 * 5.0 + 5.0 * 40.0);
  // Consistent with the per-packet closed form: a unicast copy over h hops
  // is 2 codec events, h link hops and h + 1 router traversals.
  const std::uint32_t h = 3;
  EXPECT_DOUBLE_EQ(
      m.activity_energy_pj(2.0, static_cast<double>(h),
                           static_cast<double>(h + 1), 0.0),
      m.packet_energy_pj(h) + m.aer_codec_pj);
}

TEST(EnergyModel, DvfsEnergyScaleIsQuadraticAndExactAtNominal) {
  EXPECT_DOUBLE_EQ(EnergyModel::dvfs_energy_scale(1.0), 1.0);
  EXPECT_DOUBLE_EQ(EnergyModel::dvfs_energy_scale(0.5), 0.25);
  EXPECT_DOUBLE_EQ(EnergyModel::dvfs_energy_scale(0.25), 0.0625);
}
}  // namespace
}  // namespace snnmap::hw
