// k-ary n-cube (torus) topology: ports, neighbours, distances, wrap links.
//
// Port numbering at every router:
//   port 2d   = dimension d, positive (+1 mod k) direction
//   port 2d+1 = dimension d, negative (-1 mod k) direction
//   port 2n   = injection (from the local PE)
// and a conceptually separate ejection output (port index 2n as well on the
// output side; input port 2n is injection, output port 2n is ejection).
#pragma once

#include <cstdint>

#include "src/topology/coordinates.hpp"

namespace swft {

/// Direction along a dimension.
enum class Dir : std::uint8_t { Pos = 0, Neg = 1 };

constexpr Dir opposite(Dir d) noexcept { return d == Dir::Pos ? Dir::Neg : Dir::Pos; }
constexpr int dirStep(Dir d) noexcept { return d == Dir::Pos ? +1 : -1; }

/// Network port index helpers.
constexpr int portOf(int dim, Dir dir) noexcept {
  return 2 * dim + (dir == Dir::Neg ? 1 : 0);
}
constexpr int dimOfPort(int port) noexcept { return port / 2; }
constexpr Dir dirOfPort(int port) noexcept { return (port & 1) ? Dir::Neg : Dir::Pos; }

/// Whether the step `from` -> `to` along a ring in direction `dir` is the
/// wrap-around link. Node ids are mixed-radix positional
/// (AddressSpace::idOf), so one step moves the id against its direction
/// exactly when it crosses between digits k-1 and 0 — for every k >= 2.
/// Equals TorusTopology::isWrapLink(from, dim, dir) for to = neighbor(from,
/// dim, dir), without decoding coordinates.
constexpr bool stepWraps(Dir dir, NodeId from, NodeId to) noexcept {
  return dir == Dir::Pos ? to < from : to > from;
}

class TorusTopology {
 public:
  TorusTopology(int radix, int dims);

  [[nodiscard]] int radix() const noexcept { return space_.radix(); }
  [[nodiscard]] int dims() const noexcept { return space_.dims(); }
  [[nodiscard]] NodeId nodeCount() const noexcept { return space_.nodeCount(); }
  [[nodiscard]] const AddressSpace& space() const noexcept { return space_; }

  /// Number of network ports per router (excludes injection/ejection).
  [[nodiscard]] int networkPorts() const noexcept { return 2 * dims(); }
  /// Injection input port / ejection output port index.
  [[nodiscard]] int localPort() const noexcept { return networkPorts(); }
  /// Total ports including the local one.
  [[nodiscard]] int totalPorts() const noexcept { return networkPorts() + 1; }

  [[nodiscard]] Coordinates coordsOf(NodeId id) const noexcept { return space_.coordsOf(id); }
  [[nodiscard]] NodeId idOf(const Coordinates& c) const noexcept { return space_.idOf(c); }

  /// Neighbour of `id` across (dim, dir); torus links always exist.
  [[nodiscard]] NodeId neighbor(NodeId id, int dim, Dir dir) const noexcept;
  [[nodiscard]] NodeId neighbor(NodeId id, int port) const noexcept {
    return neighbor(id, dimOfPort(port), dirOfPort(port));
  }

  /// True iff the (dim, dir) link out of `id` is a wrap-around link.
  [[nodiscard]] bool isWrapLink(NodeId id, int dim, Dir dir) const noexcept;

  /// Signed minimal offset from a to b along `dim`, in [-k/2, k/2].
  /// Ties (|offset| == k/2 with k even) resolve to the positive direction.
  [[nodiscard]] int minimalOffset(std::int16_t from, std::int16_t to) const noexcept;

  /// Hops from a to b along `dim` when travelling in direction `dir`.
  [[nodiscard]] int ringDistance(std::int16_t from, std::int16_t to, Dir dir) const noexcept;

  /// Minimal torus (Lee) distance between two nodes.
  [[nodiscard]] int distance(NodeId a, NodeId b) const noexcept;

  /// Preferred minimal direction from `from` to `to` along `dim`
  /// (Pos when already equal; callers check equality first).
  [[nodiscard]] Dir minimalDir(std::int16_t from, std::int16_t to) const noexcept {
    return minimalOffset(from, to) >= 0 ? Dir::Pos : Dir::Neg;
  }

 private:
  AddressSpace space_;
};

}  // namespace swft
