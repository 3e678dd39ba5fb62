#include "hw/energy_model.hpp"

#include <cmath>
#include <stdexcept>

namespace snnmap::hw {
namespace {

void check_pj(const char* name, double value) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(std::string("EnergyModel: ") + name +
                                " must be finite and >= 0 pJ (got " +
                                std::to_string(value) + ")");
  }
}

}  // namespace

void EnergyModel::validate() const {
  check_pj("crossbar_event_pj", crossbar_event_pj);
  check_pj("link_hop_pj", link_hop_pj);
  check_pj("offchip_link_hop_pj", offchip_link_hop_pj);
  check_pj("router_flit_pj", router_flit_pj);
  check_pj("aer_codec_pj", aer_codec_pj);
  check_pj("retransmit_pj", retransmit_pj);
}

}  // namespace snnmap::hw
