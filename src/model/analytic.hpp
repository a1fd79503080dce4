// Analytical latency model for wormhole-switched k-ary n-cubes under
// Software-Based fault-tolerant routing — the paper's stated future work
// ("Our next object is to develop an analytical modeling approach", §6).
//
// The model follows the classical queueing decomposition used for wormhole
// tori (Draper & Ghosh 1994; Ould-Khaoua 1999 — the latter a co-author of
// the reproduced paper):
//
//   1. Mean minimal path length dbar from the uniform traffic pattern.
//   2. Directed-channel message rate lambda_c = lambda * dbar / (2n).
//   3. A fixed point on the effective channel service time S:
//        S = M + Pv(S) * Wc(S)
//      where Wc is the M/G/1 waiting time of a channel with utilisation
//      rho = lambda_c * S, and Pv = rho^V approximates the probability that
//      all V virtual channels of the required physical channel are busy.
//   4. Virtual-channel multiplexing inflates per-hop transfer time by
//      Dally's factor  Vbar = sum(i^2 p_i) / sum(i p_i)  with the classical
//      truncated-geometric occupancy p_i ∝ rho^i (birth-death steady state).
//   5. Source queueing is an M/G/1 wait at the injection channel.
//   6. Faults (Software-Based extension): a uniform message crosses
//      ~dbar intermediate routers; with nf random faulty nodes out of N the
//      per-message absorption probability is approximated by
//        P_abs = 1 - (1 - nf/(N-1))^dbar,
//      and each absorption adds an ejection + messaging-layer + re-injection
//      epoch of roughly (M + Delta + r) cycles, r = mean re-route detour.
//
// The model is a *first-order* design tool. Fault-free (nf=0), tests
// validate it against the simulator to ~25% below ~60% of saturation and
// qualitatively beyond. Under faults it runs low, because it lacks repeat
// absorptions, detour hops and the load that concentrates around the faults:
// on the 8-ary 2-cube (V=4, M=32) with nf=5 it reads 19% low at rate 0.002
// and 25% low at 0.004, and it estimates saturation at 0.027 where the
// simulator saturates between 0.008 and 0.010. test_model pins these gaps.
#pragma once

#include "src/sim/config.hpp"

namespace swft {

struct ModelResult {
  double meanLatency = 0.0;   // cycles, generation -> last flit at PE
  double meanHops = 0.0;      // dbar
  double channelRate = 0.0;   // lambda_c, messages/cycle/directed channel
  double channelUtilisation = 0.0;  // rho = lambda_c * S
  double serviceTime = 0.0;   // fixed-point S
  double multiplexFactor = 1.0;     // Dally's Vbar >= 1
  double absorbProbability = 0.0;   // per-message software absorption prob.
  double saturationRate = 0.0;      // estimated lambda at rho -> 1
  bool saturated = false;
};

/// Evaluate the analytic model for `cfg` (uniform traffic). Only the
/// topology/router/workload/fault-count fields are read; measurement fields
/// are ignored. Regions are approximated by their node count.
[[nodiscard]] ModelResult analyticLatency(const SimConfig& cfg);

/// Exact mean minimal (Lee) distance of uniform traffic on the k-ary n-cube
/// (destination uniform over the other N-1 nodes).
[[nodiscard]] double meanUniformDistance(int radix, int dims);

}  // namespace swft
