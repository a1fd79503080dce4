#include "src/sim/config_canon.hpp"

#include <bit>
#include <string_view>

#include "src/fault/regions.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/fnv.hpp"
#include "src/util/text.hpp"

namespace swft {

namespace {

void appendExactDouble(std::string& out, double v) {
  // Canonicalize the zero sign: -0.0 and +0.0 compare equal and behave
  // identically in every config field, but their bit patterns differ.
  if (v == 0.0) v = 0.0;
  appendHex16(out, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::string exactDoubleToken(double v) {
  std::string out;
  appendExactDouble(out, v);
  return out;
}

std::string canonicalConfigKey(const SimConfig& cfg, std::uint32_t semanticsVersion) {
  std::string k;
  k.reserve(320);
  const auto num = [&k](std::string_view tag, auto v) {
    k += tag;
    appendDecimal(k, v);
  };
  const auto exact = [&k](std::string_view tag, double v) {
    k += tag;
    appendExactDouble(k, v);
  };
  const auto text = [&k](std::string_view tag, std::string_view v) {
    k += tag;
    k += v;
  };
  k += "swft-cfg-v1";
  num("|sem=", semanticsVersion);
  // topology
  num("|k=", cfg.radix);
  num("|n=", cfg.dims);
  // router
  num("|V=", cfg.vcs);
  num("|eV=", cfg.escapeVcs);
  num("|depth=", cfg.bufferDepth);
  num("|td=", cfg.routerDecisionTime);
  // workload
  num("|M=", cfg.messageLength);
  exact("|rate=", cfg.injectionRate);
  text("|traffic=", trafficPatternName(cfg.pattern));
  exact("|hsf=", cfg.hotspotFraction);
  // software-based routing
  text("|routing=", cfg.routingName());
  num("|delta=", cfg.reinjectDelay);
  num("|llt=", cfg.livelockThreshold);
  // faults
  num("|nf=", cfg.faults.randomNodes);
  k += "|rg=";
  for (const RegionSpec& r : cfg.faults.regions) {
    k += regionShapeName(r.shape);
    num(":", r.dim0);
    num(".", r.dim1);
    num(":", r.extent0);
    num("x", r.extent1);
    k += '@';
    for (int d = 0; d < r.anchor.dims(); ++d) num(d ? "," : "", r.anchor[d]);
    k += ';';
  }
  k += "|xn=";
  for (const NodeId n : cfg.faults.explicitNodes) {
    num("", n);
    k += ';';
  }
  k += "|xl=";
  for (const auto& l : cfg.faults.explicitLinks) {
    num("", l[0]);
    num(".", l[1]);
    num(".", l[2]);
    k += ';';
  }
  // measurement protocol
  num("|warmup=", cfg.warmupMessages);
  num("|measured=", cfg.measuredMessages);
  num("|maxcyc=", cfg.maxCycles);
  num("|dlwin=", cfg.deadlockWindow);
  num("|seed=", cfg.seed);
  // cfg.engine / cfg.simThreads intentionally absent: bit-identical engines
  // share one content address, so cached results interchange across them.
  // cfg.phaseTimers is likewise absent — it only adds wall-clock
  // instrumentation and never changes the simulated outcome.
  return k;
}

std::uint64_t canonicalConfigHash(const SimConfig& cfg, std::uint32_t semanticsVersion) {
  return fnv1a64(canonicalConfigKey(cfg, semanticsVersion));
}

}  // namespace swft
