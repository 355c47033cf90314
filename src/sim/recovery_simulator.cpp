#include "sim/recovery_simulator.hpp"

#include <algorithm>

#include "core/recovery.hpp"
#include "core/techniques/backup.hpp"

namespace stordep::sim {

RecoverySimulator::RecoverySimulator(const RpLifecycleSimulator& simulator)
    : sim_(simulator) {}

const SimRp* RecoverySimulator::visibleBaseFull(int level, const SimRp& rp,
                                                SimTime failTime) const {
  const SimRp* full = nullptr;
  for (const SimRp& candidate : sim_.timeline(level)) {
    if (candidate.dataTime > rp.dataTime) break;
    if (!candidate.isFull) continue;
    if (candidate.arrivalTime > failTime || candidate.evictTime <= failTime) {
      continue;
    }
    full = &candidate;
  }
  if (full == nullptr) return nullptr;
  // An incremental chains only to *its own cycle's* full: one capturing
  // changes "since the last full" is meaningless on top of an older one.
  const ProtectionPolicy& pol = *sim_.design().level(level).policy();
  if (rp.dataTime - full->dataTime >= pol.cyclePeriod().secs()) {
    return nullptr;
  }
  return full;
}

std::optional<SimRp> RecoverySimulator::bestUsableRp(
    int level, SimTime failTime, SimTime targetTime) const {
  const StorageDesign& design = sim_.design();
  // Only a Backup has an incremental chain; kind() alone does not make a
  // technique one (a custom technique may report kBackup).
  const auto* backup = dynamic_cast<const Backup*>(&design.level(level));
  const bool chained =
      backup != nullptr && backup->style() != BackupStyle::kFullOnly;
  if (!chained) return sim_.bestVisibleRp(level, failTime, targetTime);

  const auto& timeline = sim_.timeline(level);
  auto it = std::upper_bound(
      timeline.begin(), timeline.end(), targetTime,
      [](SimTime t, const SimRp& rp) { return t < rp.dataTime; });
  while (it != timeline.begin()) {
    --it;
    if (it->evictTime <= failTime || it->arrivalTime > failTime) continue;
    if (it->isFull || visibleBaseFull(level, *it, failTime) != nullptr) {
      return *it;
    }
    // An incremental whose base full hasn't landed: not restorable yet.
  }
  return std::nullopt;
}

Bytes RecoverySimulator::restorePayloadFor(
    int level, const SimRp& rp, SimTime failTime,
    const FailureScenario& scenario) const {
  const StorageDesign& design = sim_.design();
  const WorkloadSpec& workload = design.workload();
  const Bytes baseSize = scenario.recoverySize.value_or(workload.dataCap());
  const auto* backup = dynamic_cast<const Backup*>(&design.level(level));
  if (backup == nullptr || backup->style() == BackupStyle::kFullOnly ||
      rp.isFull) {
    return baseSize;
  }

  const SimRp* full = visibleBaseFull(level, rp, failTime);
  if (full == nullptr) return baseSize;  // degenerate: treat as a full

  const Duration span{rp.dataTime - full->dataTime};
  const double scale = std::min(1.0, baseSize / workload.dataCap());
  Bytes incrBytes{0};
  if (backup->style() == BackupStyle::kCumulativeIncremental) {
    // Only the chosen cumulative incremental replays on top of the full.
    incrBytes = workload.uniqueBytes(span);
  } else {
    // Differentials: every one between the full and the chosen RP replays.
    const Duration step = backup->policy()->secondaryWindows()->accW;
    const double count = step.secs() > 0 ? span / step : 0.0;
    incrBytes = workload.uniqueBytes(step) * count;
  }
  return baseSize + incrBytes * scale;
}

std::optional<ObservedRecovery> RecoverySimulator::observedRecovery(
    const FailureScenario& scenario, SimTime failTime) const {
  const StorageDesign& design = sim_.design();
  const SimTime targetTime = failTime - scenario.recoveryTargetAge.secs();

  // Best surviving RP across levels (same policy as the analytic model:
  // minimal loss, ties to the lower level).
  int bestLevel = -1;
  std::optional<SimRp> bestRp;
  Duration bestLoss = Duration::infinite();
  for (int level = 1; level < design.levelCount(); ++level) {
    if (levelDestroyed(design, level, scenario)) continue;
    const auto rp = bestUsableRp(level, failTime, targetTime);
    if (!rp) continue;
    const Duration loss{targetTime - rp->dataTime};
    if (loss < bestLoss) {
      bestLoss = loss;
      bestLevel = level;
      bestRp = rp;
    }
  }
  if (bestLevel < 0) return std::nullopt;

  const Bytes payload =
      restorePayloadFor(bestLevel, *bestRp, failTime, scenario);
  LevelLossAssessment source;
  source.level = bestLevel;
  source.lossCase = LossCase::kWithinRange;
  source.dataLoss = bestLoss;
  const RecoveryResult result =
      recoverFrom(design, scenario, source, payload);
  if (!result.recoverable) return std::nullopt;

  return ObservedRecovery{.sourceLevel = bestLevel,
                          .dataLoss = bestLoss,
                          .payload = payload,
                          .recoveryTime = result.recoveryTime};
}

}  // namespace stordep::sim
