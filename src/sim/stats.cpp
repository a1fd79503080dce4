#include "src/sim/stats.hpp"

#include "src/sim/config.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace swft {

const char* PhaseBreakdown::phaseName(int p) noexcept {
  switch (p) {
    case kCards: return "cards";
    case kGen: return "gen";
    case kInj: return "inj";
    case kWalk: return "walk";
    case kBarrier: return "barrier";
    default: return "?";
  }
}

std::string PhaseBreakdown::toString() const {
  std::string out;
  char buf[48];
  for (int p = 0; p < kPhaseCount; ++p) {
    std::snprintf(buf, sizeof(buf), "%s%s %.3fs", p ? " " : "", phaseName(p),
                  sec[p]);
    out += buf;
  }
  return out;
}

ScalePreset scaleFromEnv() {
  const char* env = std::getenv("SWFT_SCALE");
  if (env != nullptr && std::strcmp(env, "paper") == 0) return ScalePreset::Paper;
  return ScalePreset::Reduced;
}

// Sets the message budget only: each caller sets its own cycle cap.
void applyScale(SimConfig& cfg, ScalePreset scale) {
  if (scale == ScalePreset::Paper) {
    // Paper §5.2: 100,000 messages per generation rate, statistics inhibited
    // for the first 10,000.
    cfg.warmupMessages = 10'000;
    cfg.measuredMessages = 90'000;
  } else {
    cfg.warmupMessages = 2'000;
    cfg.measuredMessages = 8'000;
  }
}

}  // namespace swft
