// DenseReference: the seed cycle engine, kept as the test oracle. It lives
// in the swft_dense_ref library, which only the test suites and
// bench/kernel_microbench link. It owns a Network, drives it through the
// Network's own cycle driver, and keeps the seed's per-router RouterState
// storage and all-nodes sweep (the Network's arena stays empty).
#pragma once

#include "src/sim/network.hpp"
#include "src/sim/router_state.hpp"

namespace swft {

class DenseReference {
 public:
  explicit DenseReference(const SimConfig& cfg);  // cfg.engine is ignored

  SimResult run() { return net_.runCycles([this] { advanceCycleDense(); }); }
  void step(std::uint64_t n) { net_.stepCycles(n, [this] { advanceCycleDense(); }); }
  void attachTrace(TraceRecorder* trace) noexcept { net_.attachTrace(trace); }

  [[nodiscard]] const Network& network() const noexcept { return net_; }
  [[nodiscard]] const std::vector<RouterState>& routers() const { return routers_; }
  /// RouterState invariants plus the Network's storage-independent checks.
  [[nodiscard]] std::string validateInvariants() const;

 private:
  void advanceCycleDense();
  void stepInjectionDense(NodeId id);
  void routeHeaderDense(NodeId id, int unitIdx);
  void stepRouterDense(NodeId id);
  void ejectFlitDense(NodeId id, int unitIdx);

  Network net_;
  std::vector<RouterState> routers_;
};

}  // namespace swft
