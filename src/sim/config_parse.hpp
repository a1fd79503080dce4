// key=value configuration parsing for the CLI front-end and scripted runs.
//
// Accepted keys (all optional, defaults from SimConfig):
//   k, n, vcs, escape_vcs, buffer_depth, msg_length, rate, routing
//   (det|adaptive), traffic (uniform|transpose|bitcomp|bitrev|shuffle|
//   tornado|hotspot; `pattern` is a legacy alias), hotspot_fraction,
//   delta, td, nf (random node faults), region (shape:e0xe1[@x,y] —
//   repeatable), warmup, measured, max_cycles, seed, livelock_threshold,
//   engine (sparse|sparse-mt), sim_threads, phase_timers
#pragma once

#include <span>
#include <string>

#include "src/sim/config.hpp"

namespace swft {

/// Parse one `key=value` assignment into `cfg`. Throws std::invalid_argument
/// with a descriptive message on unknown keys, malformed values, or integers
/// that do not fit their field. A `region` anchor keeps only the digits
/// given; parseConfig sizes it to the final `n`.
void applyConfigAssignment(SimConfig& cfg, const std::string& assignment);

/// Parse a whole argument list (e.g. argv[1..]); each element must be a
/// `key=value` pair. Region anchors are sized to the final `n` once every
/// assignment is applied, so key order does not matter; an anchor with more
/// digits than `n` throws.
SimConfig parseConfig(std::span<const std::string> assignments,
                      const SimConfig& defaults = SimConfig{});

/// Reject values the engine cannot represent: msg_length outside
/// [1, 65535], negative delta or td, a rate that is NaN or outside [0, 1].
/// Throws std::invalid_argument naming the key. parseConfig and the Network
/// constructor both call it.
void validateConfig(const SimConfig& cfg);

/// One-line human-readable summary of a configuration.
[[nodiscard]] std::string describeConfig(const SimConfig& cfg);

}  // namespace swft
