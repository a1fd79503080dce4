// Canonical SimConfig serialization for content-addressed result caching.
//
// Two configurations that must produce bit-identical SimResults map to the
// same canonical key; any configuration change that can alter a result maps
// to a different key. Concretely: every semantic field (topology, router
// shape, workload, routing, faults, measurement protocol, seed) is written
// in a fixed order with exact value encodings, while the engine selector and
// its `simThreads` are deliberately EXCLUDED — the sparse and sparse-mt engines
// are proven bit-identical to each other at every thread count and to the
// test-only dense reference (DESIGN.md §4/§6), so a result simulated by
// either satisfies a lookup from the other.
//
// The key embeds kEngineSemanticsVersion. Any PR that changes what a
// simulation computes for a fixed config — RNG draw order, arbitration
// order, statistics definitions, default semantics of an existing field —
// MUST bump the constant, which invalidates every cached result at once.
// Adding a new config field requires writing it into canonicalConfigKey
// (give it a token even at its default value) and counts as a semantics
// bump only if the default changes behaviour of old configs.
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

/// Single-line canonical serialization of every semantic field of `cfg`,
/// in fixed order, prefixed with the format tag and `semanticsVersion`.
/// Excludes cfg.engine and cfg.simThreads (see header comment).
[[nodiscard]] std::string canonicalConfigKey(
    const SimConfig& cfg, std::uint32_t semanticsVersion = kEngineSemanticsVersion);

/// FNV-1a 64 over canonicalConfigKey — the content address of a result.
[[nodiscard]] std::uint64_t canonicalConfigHash(
    const SimConfig& cfg, std::uint32_t semanticsVersion = kEngineSemanticsVersion);

}  // namespace swft
