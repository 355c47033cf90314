#include "sim/rp_simulator.hpp"

#include <algorithm>

namespace stordep::sim {

RpLifecycleSimulator::RpLifecycleSimulator(StorageDesign design,
                                           RpSimOptions options)
    : design_(std::move(design)), options_(std::move(options)) {
  if (!(options_.horizon.secs() > 0)) {
    throw SimulationError("simulation horizon must be positive");
  }
  timelines_.resize(static_cast<size_t>(design_.levelCount()));
}

bool RpLifecycleSimulator::isContinuous(int level) const {
  const ProtectionPolicy* pol = design_.level(level).policy();
  return pol != nullptr && pol->effectiveAccW() == Duration::zero();
}

Duration RpLifecycleSimulator::levelPhase(int level) const {
  if (!options_.alignSchedules) {
    const auto idx = static_cast<size_t>(level);
    return idx < options_.phases.size() ? options_.phases[idx]
                                        : Duration::zero();
  }
  // Aligned: each level's creation instants coincide with the arrival
  // instants of the level below (level 1 draws from the live primary).
  Duration phase = Duration::zero();
  for (int i = 1; i < level; ++i) {
    const WindowSpec& feed = design_.level(i).policy()->feedWindows();
    phase += feed.holdW + feed.propW;
  }
  return phase;
}

void RpLifecycleSimulator::createRp(int level, SimTime now, bool isFull,
                                    const WindowSpec& windows) {
  SimTime dataTime = now;
  if (level > 1) {
    // Capture the newest RP visible one level down (any data age).
    const auto upstream = bestVisibleRp(level - 1, now, now);
    if (!upstream) return;  // nothing to propagate yet (warm-up)
    dataTime = upstream->dataTime;
  }
  const ProtectionPolicy& pol = *design_.level(level).policy();
  const SimTime arrival = now + windows.holdW.secs() + windows.propW.secs();
  const SimTime evict =
      arrival + pol.cyclePeriod().secs() * pol.retentionCount();
  timelines_[static_cast<size_t>(level)].push_back(SimRp{
      .dataTime = dataTime,
      .createTime = now,
      .arrivalTime = arrival,
      .evictTime = evict,
      .isFull = isFull,
  });
}

void RpLifecycleSimulator::run() {
  totalEvents_ = 0;
  for (auto& t : timelines_) t.clear();
  const SimTime horizon = options_.horizon.secs();
  // Level by level, in hierarchy order: level i's creations query level
  // i-1's *completed* timeline, so an RP arriving at exactly a creation
  // instant is visible. Within a level, cycle by cycle: the full at the
  // cycle start, then the incrementals (cycle start + accW x m) that fall
  // before the next cycle start (this one + the period).
  for (int level = 1; level < design_.levelCount(); ++level) {
    if (isContinuous(level)) continue;  // handled analytically in queries
    const SimTime phase = levelPhase(level).secs();
    if (phase < 0) {
      throw SimulationError("schedule phase must not be negative");
    }
    const ProtectionPolicy& pol = *design_.level(level).policy();
    const SimTime period = pol.cyclePeriod().secs();
    std::uint64_t events = 0;  // this level's creations and cycle starts
    const auto create = [&](SimTime now, bool isFull,
                            const WindowSpec& windows) {
      if (totalEvents_ + events > options_.maxEvents) {
        throw SimulationError("simulation exceeded its event budget");
      }
      createRp(level, now, isFull, windows);
      ++events;
    };
    for (SimTime cycleStart = phase; cycleStart <= horizon;
         cycleStart = cycleStart + period) {
      // Each cycle start after the first counts as one event, and every
      // cycle creates at least its full, so `events > 0` marks a later one.
      if (events > 0) ++events;
      create(cycleStart, /*isFull=*/true, pol.primaryWindows());
      if (!pol.isCyclic()) continue;
      const WindowSpec& incr = *pol.secondaryWindows();
      for (int m = 1; m <= pol.cycleCount(); ++m) {
        const SimTime t = cycleStart + incr.accW.secs() * m;
        if (t >= cycleStart + period || t > horizon) break;
        create(t, /*isFull=*/false, incr);
      }
    }
    totalEvents_ += events;
  }
  ran_ = true;
}

std::optional<SimRp> RpLifecycleSimulator::bestVisibleRp(
    int level, SimTime failTime, SimTime targetTime) const {
  if (level <= 0 || level >= design_.levelCount()) return std::nullopt;

  if (isContinuous(level)) {
    // Sync/async mirrors track the primary with a constant visibility delay
    // and retain exactly the current state.
    const ProtectionPolicy& pol = *design_.level(level).policy();
    const SimTime delay = pol.holdW().secs() + pol.worstPropW().secs();
    const SimTime dataTime = failTime - delay;
    if (dataTime < 0 || dataTime > targetTime) return std::nullopt;
    return SimRp{.dataTime = dataTime,
                 .createTime = dataTime,
                 .arrivalTime = failTime,
                 .evictTime = failTime,
                 .isFull = true};
  }

  const auto& timeline = timelines_[static_cast<size_t>(level)];
  // dataTime is non-decreasing in creation order: binary-search the newest
  // candidate at or before the target, then walk back to a visible one.
  auto it = std::upper_bound(
      timeline.begin(), timeline.end(), targetTime,
      [](SimTime t, const SimRp& rp) { return t < rp.dataTime; });
  while (it != timeline.begin()) {
    --it;
    if (it->evictTime <= failTime) {
      return std::nullopt;  // this and everything older is already retired
    }
    if (it->arrivalTime <= failTime) return *it;
  }
  return std::nullopt;
}

Duration RpLifecycleSimulator::observedDataLoss(
    const FailureScenario& scenario, SimTime failTime) const {
  if (!ran_) throw SimulationError("run() the simulation before querying it");
  const SimTime targetTime = failTime - scenario.recoveryTargetAge.secs();
  Duration best = Duration::infinite();

  for (int level = 0; level < design_.levelCount(); ++level) {
    if (levelDestroyed(design_, level, scenario)) continue;
    if (level == 0) {
      // The live primary serves only "restore to now" — and not when the
      // failure is a corruption of the object itself.
      if (scenario.scope != FailureScope::kDataObject &&
          scenario.recoveryTargetAge == Duration::zero()) {
        best = std::min(best, Duration::zero());
      }
      continue;
    }
    const auto rp = bestVisibleRp(level, failTime, targetTime);
    if (!rp) continue;
    best = std::min(best, Duration{targetTime - rp->dataTime});
  }
  return best;
}

SimTime RpLifecycleSimulator::warmupTime() const {
  SimTime warmup = 0;
  for (int level = 1; level < design_.levelCount(); ++level) {
    if (isContinuous(level)) continue;
    const ProtectionPolicy& pol = *design_.level(level).policy();
    const SimTime ready = levelPhase(level).secs() +
                          2 * pol.cyclePeriod().secs() + pol.holdW().secs() +
                          pol.worstPropW().secs();
    warmup = std::max(warmup, ready);
  }
  return warmup;
}

const std::vector<SimRp>& RpLifecycleSimulator::timeline(int level) const {
  if (level < 0 || level >= design_.levelCount()) {
    throw SimulationError("no such level");
  }
  return timelines_[static_cast<size_t>(level)];
}

}  // namespace stordep::sim
