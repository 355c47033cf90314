#include "sim/timeline_table.hpp"

#include <algorithm>

#include "core/techniques/backup.hpp"

namespace stordep::sim {

TimelineTable::TimelineTable(const RpLifecycleSimulator& simulator) {
  const StorageDesign& design = simulator.design();
  const int levelCount = design.levelCount();
  levels_.resize(static_cast<std::size_t>(levelCount));

  for (int level = 0; level < levelCount; ++level) {
    Level& lvl = levels_[static_cast<std::size_t>(level)];
    const Technique& tech = design.level(level);
    const ProtectionPolicy* pol = tech.policy();

    lvl.continuous = pol != nullptr && pol->effectiveAccW() == Duration::zero();
    if (lvl.continuous) {
      lvl.continuousDelay = pol->holdW().secs() + pol->worstPropW().secs();
    }
    // Only a Backup has an incremental chain; kind() alone does not make a
    // technique one (a custom technique may report kBackup), the same test
    // RecoverySimulator applies.
    const auto* backup = dynamic_cast<const Backup*>(&tech);
    lvl.isBackup = backup != nullptr;
    if (lvl.isBackup) {
      lvl.fullOnly = backup->style() == BackupStyle::kFullOnly;
      lvl.cumulative = backup->style() == BackupStyle::kCumulativeIncremental;
      lvl.chained = !lvl.fullOnly;
    }
    if (pol != nullptr) {
      lvl.cyclePeriodSecs = pol->cyclePeriod().secs();
      if (pol->secondaryWindows()) {
        lvl.stepSecs = pol->secondaryWindows()->accW.secs();
      }
    }

    if (level == 0) continue;  // the live primary has no timeline
    const std::vector<SimRp>& timeline = simulator.timeline(level);
    const std::size_t n = timeline.size();
    lvl.dataTime.reserve(n);
    lvl.arrivalTime.reserve(n);
    lvl.evictTime.reserve(n);
    lvl.isFull.reserve(n);
    lvl.lastFullPos.resize(n, -1);
    for (const SimRp& rp : timeline) {
      lvl.dataTime.push_back(rp.dataTime);
      lvl.arrivalTime.push_back(rp.arrivalTime);
      lvl.evictTime.push_back(rp.evictTime);
      lvl.isFull.push_back(rp.isFull ? 1 : 0);
      if (rp.isFull) {
        lvl.fulls.push_back(static_cast<std::int32_t>(lvl.isFull.size() - 1));
      }
    }
    // lastFullPos by merge: dataTime is non-decreasing, so advance a single
    // cursor over the fulls. A *later* full with an equal dataTime still
    // counts (the legacy scan breaks only on strictly newer data).
    std::int32_t cursor = -1;
    for (std::size_t i = 0; i < n; ++i) {
      while (cursor + 1 < static_cast<std::int32_t>(lvl.fulls.size()) &&
             lvl.dataTime[static_cast<std::size_t>(
                 lvl.fulls[static_cast<std::size_t>(cursor + 1)])] <=
                 lvl.dataTime[i]) {
        ++cursor;
      }
      lvl.lastFullPos[i] = cursor;
    }
  }
}

std::optional<TimelineTable::Hit> TimelineTable::bestVisible(
    int level, double failTime, double targetTime) const {
  if (level <= 0 || level >= levelCount()) return std::nullopt;
  const Level& lvl = levels_[static_cast<std::size_t>(level)];

  if (lvl.continuous) {
    // Sync/async mirrors: constant visibility delay, current state only.
    const double dataTime = failTime - lvl.continuousDelay;
    if (dataTime < 0 || dataTime > targetTime) return std::nullopt;
    return Hit{dataTime, true, -1};
  }

  auto it = std::upper_bound(lvl.dataTime.begin(), lvl.dataTime.end(),
                             targetTime);
  auto i = static_cast<std::ptrdiff_t>(it - lvl.dataTime.begin());
  while (i > 0) {
    --i;
    const auto idx = static_cast<std::size_t>(i);
    if (lvl.evictTime[idx] <= failTime) {
      return std::nullopt;  // this and everything older is already retired
    }
    if (lvl.arrivalTime[idx] <= failTime) {
      return Hit{lvl.dataTime[idx], lvl.isFull[idx] != 0,
                 static_cast<std::int32_t>(i)};
    }
  }
  return std::nullopt;
}

std::optional<TimelineTable::Hit> TimelineTable::bestUsable(
    int level, double failTime, double targetTime) const {
  if (level <= 0 || level >= levelCount()) return std::nullopt;
  const Level& lvl = levels_[static_cast<std::size_t>(level)];
  if (!lvl.chained) return bestVisible(level, failTime, targetTime);

  auto it = std::upper_bound(lvl.dataTime.begin(), lvl.dataTime.end(),
                             targetTime);
  auto i = static_cast<std::ptrdiff_t>(it - lvl.dataTime.begin());
  while (i > 0) {
    --i;
    const auto idx = static_cast<std::size_t>(i);
    if (lvl.evictTime[idx] <= failTime || lvl.arrivalTime[idx] > failTime) {
      continue;
    }
    const Hit hit{lvl.dataTime[idx], lvl.isFull[idx] != 0,
                  static_cast<std::int32_t>(i)};
    if (hit.isFull || baseFullDataTime(level, hit, failTime)) return hit;
    // An incremental whose base full hasn't landed: not restorable yet.
  }
  return std::nullopt;
}

std::optional<double> TimelineTable::baseFullDataTime(int level,
                                                      const Hit& hit,
                                                      double failTime) const {
  if (hit.entry < 0) return std::nullopt;
  const Level& lvl = levels_[static_cast<std::size_t>(level)];
  // The legacy scan keeps the *last* visible full at or before the entry's
  // data time; walking the full index backwards finds the same one first.
  for (std::int32_t p = lvl.lastFullPos[static_cast<std::size_t>(hit.entry)];
       p >= 0; --p) {
    const auto f =
        static_cast<std::size_t>(lvl.fulls[static_cast<std::size_t>(p)]);
    if (lvl.arrivalTime[f] > failTime || lvl.evictTime[f] <= failTime) {
      continue;
    }
    // An incremental chains only to its own cycle's full.
    if (hit.dataTime - lvl.dataTime[f] >= lvl.cyclePeriodSecs) {
      return std::nullopt;
    }
    return lvl.dataTime[f];
  }
  return std::nullopt;
}

}  // namespace stordep::sim
