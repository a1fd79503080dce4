#include "src/sim/stats.hpp"

#include "src/sim/config.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace swft {

std::string PhaseBreakdown::toString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "gen %.3fs inj %.3fs walk %.3fs", sec[kGen], sec[kInj],
                sec[kWalk]);
  return buf;
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
