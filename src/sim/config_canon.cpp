#include "src/sim/config_canon.hpp"

#include <bit>
#include <sstream>

#include "src/fault/regions.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/fnv.hpp"
#include "src/util/hex.hpp"

namespace swft {

std::string exactDoubleToken(double v) {
  // Canonicalize the zero sign: -0.0 and +0.0 compare equal and behave
  // identically in every config field, but their bit patterns differ.
  if (v == 0.0) v = 0.0;
  return hex16(std::bit_cast<std::uint64_t>(v));
}

std::string canonicalConfigKey(const SimConfig& cfg, std::uint32_t semanticsVersion) {
  std::ostringstream os;
  os << "swft-cfg-v1"
     << "|sem=" << semanticsVersion
     // topology
     << "|k=" << cfg.radix << "|n=" << cfg.dims
     // router
     << "|V=" << cfg.vcs << "|eV=" << cfg.escapeVcs << "|depth=" << cfg.bufferDepth
     << "|td=" << cfg.routerDecisionTime
     // workload
     << "|M=" << cfg.messageLength << "|rate=" << exactDoubleToken(cfg.injectionRate)
     << "|traffic=" << trafficPatternName(cfg.pattern)
     << "|hsf=" << exactDoubleToken(cfg.hotspotFraction)
     // software-based routing
     << "|routing=" << cfg.routingName() << "|delta=" << cfg.reinjectDelay
     << "|llt=" << cfg.livelockThreshold
     // faults
     << "|nf=" << cfg.faults.randomNodes;
  os << "|rg=";
  for (const RegionSpec& r : cfg.faults.regions) {
    os << regionShapeName(r.shape) << ":" << r.dim0 << "." << r.dim1 << ":"
       << r.extent0 << "x" << r.extent1 << "@";
    for (int d = 0; d < r.anchor.dims(); ++d) os << (d ? "," : "") << r.anchor[d];
    os << ";";
  }
  os << "|xn=";
  for (const NodeId n : cfg.faults.explicitNodes) os << n << ";";
  os << "|xl=";
  for (const auto& l : cfg.faults.explicitLinks) {
    os << l[0] << "." << l[1] << "." << l[2] << ";";
  }
  // measurement protocol
  os << "|warmup=" << cfg.warmupMessages << "|measured=" << cfg.measuredMessages
     << "|maxcyc=" << cfg.maxCycles << "|dlwin=" << cfg.deadlockWindow
     << "|seed=" << cfg.seed;
  // cfg.engine / cfg.simThreads intentionally absent: bit-identical engines
  // share one content address, so cached results interchange across them.
  // cfg.phaseTimers is likewise absent — it only adds wall-clock
  // instrumentation and never changes the simulated outcome.
  return os.str();
}

std::uint64_t canonicalConfigHash(const SimConfig& cfg, std::uint32_t semanticsVersion) {
  return fnv1a64(canonicalConfigKey(cfg, semanticsVersion));
}

}  // namespace swft
