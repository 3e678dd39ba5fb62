// Poisson spike generation.
//
// The paper's synthetic workloads feed each topology from "10 neurons
// creating spike trains, whose inter-spike interval follows a Poisson process
// with mean firing rates between 10 Hz and 100 Hz" (Sec. V).  These helpers
// generate such trains either offline (whole train at once) or per-step
// inside the simulator.
#pragma once

#include <cstdint>

#include "snn/spike_train.hpp"
#include "util/rng.hpp"

namespace snnmap::snn {

/// Generates a homogeneous Poisson spike train over [0, duration_ms) at
/// `rate_hz` by accumulating exponential inter-arrival times.
SpikeTrain generate_poisson_train(double rate_hz, TimeMs duration_ms,
                                  util::Rng& rng);

/// Per-step Bernoulli spike probability of the clock-driven approximation:
/// P(spike in dt) = rate * dt.  The simulator caches this per constant-rate
/// group, so the cached and per-call paths must share one expression.
inline double poisson_step_probability(double rate_hz, double dt_ms) noexcept {
  return rate_hz / 1000.0 * dt_ms;
}

/// Per-step Bernoulli approximation used by the clock-driven simulator:
/// P(spike in dt) = rate * dt.  Accurate for rate*dt << 1 (dt = 1 ms and
/// rates <= ~200 Hz keep the error below 10%, validated in tests).  Draws
/// from `rng` only when 0 < P < 1 (Rng::chance short-circuits), so a silent
/// source consumes nothing from the stream.
bool poisson_step_spike(double rate_hz, double dt_ms, util::Rng& rng);

}  // namespace snnmap::snn
