// key=value configuration parsing for the CLI front-end and scripted runs.
//
// The accepted keys are the parse keys forEachConfigField (config.hpp) lists;
// all are optional, defaults from SimConfig. Values: integers and numbers in
// full (std::from_chars), routing det|adaptive, traffic a pattern name
// (patterns.hpp), phase_timers 0|1, region shape:e0xe1[@x,y][/p,q]
// (repeatable; `/p,q` is the region's plane, default 0,1). describeConfig
// writes a config back in this grammar, every parse key included.
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

/// Reject configurations the network cannot build or the engine would
/// misread: k < 2, n outside [1, kMaxDims], more than 2^24 nodes, vcs
/// outside [2, 16], buffer_depth outside [1, FlitFifo::kMaxDepth], an odd or
/// out-of-range escape_vcs under adaptive routing, msg_length outside
/// [1, 65535], negative delta, td or livelock_threshold, a delta or td at
/// or above the deadlock watchdog window, a rate or hotspot_fraction that
/// is NaN or outside [0, 1], a rate in (0, 1e-15), nf outside [0, nodes),
/// and regions whose anchor digits leave [0, k), whose extents leave
/// [1, k] or whose plane is not two distinct dimensions below n. Throws
/// std::invalid_argument naming the key. parseConfig and the Network
/// constructor (before it builds anything) both call it.
void validateConfig(const SimConfig& cfg);

/// `cfg` as the command line that reproduces it: one `key=value` per parse
/// key of forEachConfigField, in that order, separated by single spaces;
/// doubles in shortest round-trip form; one `region=` per region, with the
/// `/p,q` suffix only off the default plane. Fields without a parse key are
/// left out: explicitNodes, explicitLinks, deadlockWindow, engine and
/// simThreads. Where those hold their defaults, parseConfig of the line
/// split on spaces has `cfg`'s canonical key (config_canon.hpp).
[[nodiscard]] std::string describeConfig(const SimConfig& cfg);

}  // namespace swft
