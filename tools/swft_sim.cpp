// swft_sim — command-line front-end for single simulation runs.
//
//   swft_sim k=8 n=3 vcs=10 msg_length=32 rate=0.007 routing=adaptive nf=12
//   swft_sim k=8 n=2 vcs=10 region=U:4x3@2,2 routing=det rate=0.004
//
// Prints a human-readable report; `--csv` emits a one-row CSV instead
// (machine-readable, for scripted sweeps). Exit codes: 0 clean run, 1 the
// deadlock watchdog fired or the run failed, 2 bad arguments or a network
// that cannot be built.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/harness/table.hpp"
#include "src/sim/config_parse.hpp"
#include "src/sim/network.hpp"

namespace {

/// The usage text on `out`: stdout when asked for (--help), stderr after a
/// bad argument, so a script reading --csv output never gets it as data.
void printUsage(std::FILE* out) {
  std::fputs("usage: swft_sim [--csv] key=value...\n", out);
  // The keys are the parse keys of forEachConfigField, wrapped to 72 columns.
  std::string line = "keys:";
  const swft::SimConfig defaults;
  forEachConfigField(defaults, [&line, out](auto parseKey, auto, const auto&) {
    if constexpr (!std::is_null_pointer_v<decltype(parseKey)>) {
      if (line.size() + 1 + parseKey.size() > 72) {
        std::fprintf(out, "%s\n", line.c_str());
        line = "     ";
      }
      line += ' ';
      line += parseKey;
    }
  });
  std::fprintf(out, "%s\n", line.c_str());
  std::fputs(
      "examples:\n"
      "  swft_sim k=8 n=3 vcs=10 rate=0.007 routing=adaptive nf=12\n"
      "  swft_sim k=8 n=2 region=U:4x3@2,2 routing=det rate=0.004\n"
      "  swft_sim k=8 n=2 traffic=tornado rate=0.005\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  std::vector<std::string> assignments;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      printUsage(stdout);
      return 0;
    } else {
      assignments.emplace_back(argv[i]);
    }
  }

  swft::SimConfig cfg;
  try {
    cfg = swft::parseConfig(assignments);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    printUsage(stderr);
    return 2;
  }

  // A network that cannot be built (a fault pattern that cannot be placed)
  // is bad input like a rejected key: exit 2, not 1.
  std::unique_ptr<swft::Network> net;
  try {
    net = std::make_unique<swft::Network>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    const swft::SimResult r = net->run();
    if (cfg.phaseTimers) {
      swft::PhaseBreakdown phases;
      for (const swft::PhaseBreakdown& shard : net->phaseShards()) phases += shard;
      std::fprintf(stderr, "phase timers: %s\n", phases.toString().c_str());
    }

    if (csv) {
      swft::SweepRow row;
      row.point.label = "cli";
      row.point.cfg = cfg;
      row.result = r;
      std::fputs(swft::toCsv({row}).str().c_str(), stdout);
    } else {
      std::printf("config: %s\n", swft::describeConfig(cfg).c_str());
      std::printf("cycles            %llu\n", static_cast<unsigned long long>(r.cycles));
      std::printf("generated         %llu\n",
                  static_cast<unsigned long long>(r.generatedTotal));
      std::printf("delivered         %llu (measured %llu)\n",
                  static_cast<unsigned long long>(r.deliveredTotal),
                  static_cast<unsigned long long>(r.deliveredMeasured));
      std::printf("mean latency      %.2f cycles (stddev %.2f, max %.0f)\n",
                  r.meanLatency, r.latencyStddev, r.maxLatency);
      std::printf("latency quantiles p50=%.0f p95=%.0f p99=%.0f (95%% CI +/- %.2f)\n",
                  r.latencyP50, r.latencyP95, r.latencyP99, r.latencyCi95);
      std::printf("mean hops         %.3f\n", r.meanHops);
      std::printf("throughput        %.6f msgs/node/cycle (offered %.6f)\n",
                  r.throughput, r.offeredLoad);
      std::printf("messages queued   %llu (distinct absorbed %llu)\n",
                  static_cast<unsigned long long>(r.messagesQueued),
                  static_cast<unsigned long long>(r.absorbedMessages));
      std::printf("recovery mix      %llu reversals, %llu detours, %llu escalations\n",
                  static_cast<unsigned long long>(r.reversals),
                  static_cast<unsigned long long>(r.detours),
                  static_cast<unsigned long long>(r.escalations));
      std::printf("flags             completed=%d saturated=%d deadlock=%d\n",
                  r.completed, r.saturated, r.deadlockSuspected);
    }
    return r.deadlockSuspected ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
