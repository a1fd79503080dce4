// The sparse-mt cycle: parallel route cards (P1), then the sparse cycle on
// the main thread. See engine_mt.hpp and DESIGN.md §6 for why a card is
// never stale when Network::routeHeader takes it.
#include "src/sim/engine_mt.hpp"

#include <bit>

#include "src/sim/network.hpp"

// Per-phase wall-clock breakdown is a runtime option (`phase_timers=1`,
// `swft_bench --phase-timers`): every engine thread owns one PhaseBreakdown
// shard in Network::phaseShards_ (slot = domain index, the main thread is
// slot 0) and charges it through a PhaseClock, a no-op when the flag is off.
// Workers only ever write their own slot; the barrier orders those writes
// against the main thread's reads.

namespace swft {

namespace {

// Spin with a yield fallback: on machines with fewer cores than domains
// the yield lets the scheduler run whichever thread holds the next step.
inline void spinPause(int& spins) {
  if (++spins > 64) std::this_thread::yield();
}

}  // namespace

MtEngine::MtEngine(Network& net, int simThreads) : net_(net) {
  const int nodes = net_.arena_.nodes();
  const int domains = mtEffectiveDomains(nodes, simThreads);
  domStart_.resize(static_cast<std::size_t>(domains) + 1);
  for (int d = 0; d <= domains; ++d) domStart_[d] = mtDomainStart(nodes, domains, d);
  cards_.resize(static_cast<std::size_t>(domains));
  spans_.resize(static_cast<std::size_t>(nodes));
  // One timer slot per domain (slot 0 = the main thread). Must be sized
  // before the workers spawn — it is never resized mid-run.
  if (net_.cfg_.phaseTimers) {
    net_.phaseShards_.resize(static_cast<std::size_t>(domains));
  }
  workers_.reserve(static_cast<std::size_t>(domains - 1));
  for (int d = 1; d < domains; ++d) {
    workers_.emplace_back([this, d] { workerLoop(d); });
  }
}

MtEngine::~MtEngine() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
}

void MtEngine::workerLoop(int d) {
  std::uint64_t next = 1;
  PhaseClock clock(net_.phaseShard(static_cast<std::size_t>(d)));
  for (;;) {
    clock.reset();
    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) < next) spinPause(spins);
    clock.mark(PhaseBreakdown::kBarrier);
    if (stop_.load(std::memory_order_relaxed)) return;
    buildCards(d);
    clock.mark(PhaseBreakdown::kCards);
    arrived_.fetch_add(1, std::memory_order_release);
    ++next;
  }
}

void MtEngine::advanceCycle() {
  PhaseClock clock(net_.phaseShard(0));
  // P1: the release publishes the previous cycle's arena writes to the
  // workers; the acquire in the wait publishes their cards back.
  epoch_.fetch_add(1, std::memory_order_release);
  buildCards(0);
  clock.mark(PhaseBreakdown::kCards);
  const int expected = static_cast<int>(workers_.size());
  int spins = 0;
  while (arrived_.load(std::memory_order_acquire) != expected) spinPause(spins);
  arrived_.store(0, std::memory_order_relaxed);
  clock.mark(PhaseBreakdown::kBarrier);
  net_.advanceCycleSparse();  // charges kGen/kInj/kWalk on slot 0 itself
}

void MtEngine::buildCards(int d) {
  const Network& n = net_;
  const RouterArena& a = n.arena_;
  std::vector<RouteCard>& cards = cards_[d];
  cards.clear();
  const std::uint64_t cycle = n.cycle_;
  const auto td = static_cast<std::uint32_t>(n.cfg_.routerDecisionTime);
  const NodeId lo = domStart_[d];
  const NodeId hi = domStart_[d + 1];
  const std::vector<std::uint64_t>& active = a.activeWords();
  const int occW = a.occWordsPerRouter();

  // The same occupied-unrouted-unparked-header scan as Network::stepRouter's
  // route phase, over this domain's slice of the active set.
  const std::size_t wLo = static_cast<std::size_t>(lo) >> 6;
  const std::size_t wHi = (static_cast<std::size_t>(hi) + 63) >> 6;
  for (std::size_t w = wLo; w < wHi; ++w) {
    std::uint64_t bits = active[w];
    if (w == wLo && (lo & 63) != 0) bits &= ~0ULL << (lo & 63);
    if (w == wHi - 1 && (hi & 63) != 0) bits &= (1ULL << (hi & 63)) - 1;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      const int routerBase = a.base(id);
      const std::uint64_t* occ = a.occWords(id);
      const std::uint64_t* routedW = a.routedWords(id);
      const std::uint64_t* parkedW = a.parkedWords(id);
      const std::size_t begin = cards.size();
      for (int ow = 0; ow < occW; ++ow) {
        std::uint64_t units = occ[ow] & ~routedW[ow] & ~parkedW[ow];
        while (units != 0) {
          const int g = routerBase + ow * 64 + std::countr_zero(units);
          units &= units - 1;
          const Flit& front = a.front(g);
          if (!front.isHeader()) continue;
          const Message& msg = n.pool_.get(front.msg);
          if (td != 0 && cycle - msg.headerArrival < td) continue;
          cards.push_back(
              {static_cast<std::int32_t>(g), front.msg, n.computeRoute(msg, id)});
        }
      }
      if (cards.size() != begin) {
        spans_[id] = {cycle + 1, static_cast<std::uint32_t>(begin),
                      static_cast<std::uint16_t>(cards.size() - begin),
                      static_cast<std::uint16_t>(d)};
      }
    }
  }
}

}  // namespace swft
