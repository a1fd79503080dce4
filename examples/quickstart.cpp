// Quickstart: simulate an 8-ary 2-cube with 3 random node faults under
// deterministic and adaptive Software-Based routing, and print the headline
// statistics. Mirrors the paper's Fig. 3 setup at a single traffic rate.
#include <cstdio>

#include "src/sim/network.hpp"

int main() {
  using namespace swft;

  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    SimConfig cfg;
    cfg.radix = 8;
    cfg.dims = 2;
    cfg.vcs = 4;
    cfg.messageLength = 32;
    cfg.injectionRate = 0.004;  // messages/node/cycle
    cfg.routing = mode;
    cfg.faults.randomNodes = 3;
    cfg.warmupMessages = 500;
    cfg.measuredMessages = 3000;
    cfg.seed = 42;

    Network net(cfg);
    std::printf("--- %s routing, 8-ary 2-cube, V=%d, M=%d, nf=%d, lambda=%.4f ---\n",
                std::string(routingModeName(cfg.routing)).c_str(), cfg.vcs, cfg.messageLength,
                cfg.faults.randomNodes, cfg.injectionRate);
    const SimResult r = net.run();
    std::printf("  cycles           %llu\n", static_cast<unsigned long long>(r.cycles));
    std::printf("  delivered        %llu (measured %llu)\n",
                static_cast<unsigned long long>(r.deliveredTotal),
                static_cast<unsigned long long>(r.deliveredMeasured));
    std::printf("  mean latency     %.1f cycles (max %.0f)\n", r.meanLatency, r.maxLatency);
    std::printf("  mean hops        %.2f\n", r.meanHops);
    std::printf("  throughput       %.5f msgs/node/cycle (offered %.5f)\n", r.throughput,
                r.offeredLoad);
    std::printf("  messages queued  %llu (distinct absorbed %llu)\n",
                static_cast<unsigned long long>(r.messagesQueued),
                static_cast<unsigned long long>(r.absorbedMessages));
    std::printf("  reversals/detours/escalations  %llu/%llu/%llu\n",
                static_cast<unsigned long long>(r.reversals),
                static_cast<unsigned long long>(r.detours),
                static_cast<unsigned long long>(r.escalations));
    std::printf("  completed=%d saturated=%d deadlock=%d\n\n", r.completed, r.saturated,
                r.deadlockSuspected);
    if (r.deadlockSuspected || !r.completed) return 1;
  }
  return 0;
}
