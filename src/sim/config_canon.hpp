// Canonical SimConfig serialization for content-addressed result caching.
//
// Two configurations that must produce bit-identical SimResults map to the
// same canonical key; any configuration change that can alter a result maps
// to a different key. Concretely: every field with a key tag in
// forEachConfigField (config.hpp) is written in its order with an exact value
// encoding, even at its default. The engine selector and its `simThreads`
// have no tag — the sparse and sparse-mt engines are proven bit-identical to
// each other at every thread count and to the test-only dense reference
// (DESIGN.md §4/§6), so a result simulated by either satisfies a lookup from
// the other — nor has `phaseTimers`, which only adds wall-clock timers.
//
// The key embeds kEngineSemanticsVersion. Any PR that changes what a
// simulation computes for a fixed config — RNG draw order, arbitration
// order, statistics definitions, default semantics of an existing field —
// MUST bump the constant, which invalidates every cached result at once. A
// new field counts as a bump only if its default changes old configs.
#pragma once

#include <cstdint>
#include <string>

#include "src/sim/config.hpp"

namespace swft {

/// Version of the simulation semantics: what SimResult a given canonical
/// config produces. Bump on any change to RNG draw order, allocation or
/// arbitration order, stop conditions, or statistics definitions.
inline constexpr std::uint32_t kEngineSemanticsVersion = 1;

/// Exact, locale-independent encoding of a double: the 16-hex-digit bit
/// pattern (IEEE-754 binary64). Distinct values — including ones that print
/// identically at any decimal precision — encode distinctly.
[[nodiscard]] std::string exactDoubleToken(double v);

/// The format tag and `semanticsVersion`, then the `|tag=` forEachConfigField
/// gives each keyed field followed by its value.
[[nodiscard]] std::string canonicalConfigKey(
    const SimConfig& cfg, std::uint32_t semanticsVersion = kEngineSemanticsVersion);

/// FNV-1a 64 over canonicalConfigKey — the content address of a result.
[[nodiscard]] std::uint64_t canonicalConfigHash(
    const SimConfig& cfg, std::uint32_t semanticsVersion = kEngineSemanticsVersion);

}  // namespace swft
