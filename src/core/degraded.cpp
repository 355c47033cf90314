#include "core/degraded.hpp"

#include <algorithm>

#include "core/propagation.hpp"

namespace stordep {

Duration degradedExtraStaleness(const StorageDesign& design, int level,
                                const std::vector<TechniqueOutage>& outages) {
  Duration extra = Duration::zero();
  for (const TechniqueOutage& outage : outages) {
    if (outage.level <= 0 || outage.level >= design.levelCount()) {
      throw DesignError("technique outage references level " +
                        std::to_string(outage.level) +
                        " which is not a protection level");
    }
    if (outage.elapsed.secs() < 0) {
      throw DesignError("technique outage elapsed time must be >= 0");
    }
    // Everything at or above the broken level stops receiving fresh RPs;
    // concurrent outages do not add up — the stalest link dominates.
    if (outage.level <= level) {
      extra = std::max(extra, outage.elapsed);
    }
  }
  return extra;
}

LevelLossAssessment assessLevelDegraded(
    const StorageDesign& design, int level, const FailureScenario& scenario,
    const std::vector<TechniqueOutage>& outages) {
  LevelLossAssessment out = assessLevel(design, level, scenario);
  if (level == 0) return out;  // the live primary is not an RP consumer
  const Duration extra = degradedExtraStaleness(design, level, outages);
  if (extra == Duration::zero()) return out;
  if (out.lossCase == LossCase::kLevelDestroyed) return out;

  // Every RP at (or flowing through) the broken level carries data that is
  // `extra` staler: the whole guaranteed range shifts into the past.
  out.range.youngestAge += extra;
  out.range.oldestAge += extra;
  const Duration targetAge = scenario.recoveryTargetAge;
  const Duration lag = rpTimeLag(design, level) + extra;

  if (targetAge < lag) {
    out.lossCase = LossCase::kNotYetPropagated;
    out.dataLoss = lag - targetAge;
  } else if (targetAge <= out.range.oldestAge) {
    out.lossCase = LossCase::kWithinRange;
    out.dataLoss = design.level(level).policy()->effectiveAccW();
  } else {
    out.lossCase = LossCase::kTooOld;
    out.dataLoss = Duration::infinite();
  }
  return out;
}

std::optional<LevelLossAssessment> chooseDegradedSource(
    const StorageDesign& design, const FailureScenario& scenario,
    const std::vector<TechniqueOutage>& outages) {
  std::optional<LevelLossAssessment> best;
  for (int level = 0; level < design.levelCount(); ++level) {
    const LevelLossAssessment a =
        assessLevelDegraded(design, level, scenario, outages);
    if (!a.dataLoss.isFinite()) continue;
    if (!best || a.dataLoss < best->dataLoss) best = a;
  }
  return best;
}

RecoveryResult computeDegradedRecovery(
    const StorageDesign& design, const FailureScenario& scenario,
    const std::vector<TechniqueOutage>& outages) {
  const auto source = chooseDegradedSource(design, scenario, outages);
  if (!source) {
    RecoveryResult result;
    result.notes.push_back(
        "no surviving level retains an RP for the recovery target under the "
        "imposed technique outages: the data object is lost");
    return result;
  }
  return recoverFrom(design, scenario, *source);
}

Duration catchUpTime(const StorageDesign& design, int level,
                     Duration outageElapsed) {
  if (level <= 0 || level >= design.levelCount()) {
    throw DesignError("catchUpTime: level " + std::to_string(level) +
                      " is not a protection level");
  }
  if (outageElapsed.secs() < 0) {
    throw DesignError("catchUpTime: elapsed time must be >= 0");
  }
  const Technique& tech = design.level(level);
  const ProtectionPolicy& pol = *tech.policy();

  // Backlog: the unique updates accumulated over the outage plus the
  // window that was in flight when it began.
  const Bytes backlog =
      design.workload().uniqueBytes(outageElapsed + pol.effectiveAccW());

  // Inbound bandwidth: the tightest surviving pipe among the devices this
  // level writes during normal propagation (its own normal-mode demand
  // pattern tells us which devices those are).
  Bandwidth inbound = Bandwidth::infinite();
  LevelRows rows;
  design.appendLevelRows(level, nullptr, rows);
  for (const DemandRow& d : rows.demands) {
    if (d.device->isTransport() || d.capacity.bytes() > 0 ||
        d.bandwidth.bytesPerSec() > 0) {
      const Bandwidth avail = availableBandwidth(
          design, *d.device, backlog, /*fresh=*/false, /*scenario=*/nullptr);
      if (avail.bytesPerSec() > 0) inbound = std::min(inbound, avail);
    }
  }
  if (inbound.isInfinite() || inbound.bytesPerSec() <= 0) {
    // Levels with no bandwidth-constrained path (e.g., vaulting rides
    // shipments): one cycle re-establishes protection.
    return pol.cyclePeriod();
  }
  return backlog / inbound;
}

std::vector<CoverageCell> protectionCoverage(
    const StorageDesign& design,
    const std::vector<std::pair<std::string, FailureScenario>>& scenarios,
    Duration elapsed) {
  std::vector<CoverageCell> out;
  for (int down = 1; down < design.levelCount(); ++down) {
    const std::vector<TechniqueOutage> outages{{down, elapsed}};
    for (const auto& [name, scenario] : scenarios) {
      CoverageCell cell;
      cell.downLevel = down;
      cell.downName = design.level(down).name();
      cell.scenarioName = name;
      const RecoveryResult healthy = computeRecovery(design, scenario);
      const RecoveryResult degraded =
          computeDegradedRecovery(design, scenario, outages);
      cell.recoverable = degraded.recoverable;
      cell.dataLoss = degraded.dataLoss;
      cell.recoveryTime = degraded.recoveryTime;
      cell.sourceLevel = degraded.sourceLevel;
      if (healthy.recoverable && degraded.recoverable) {
        cell.lossIncrease = degraded.dataLoss - healthy.dataLoss;
      } else if (healthy.recoverable) {
        cell.lossIncrease = Duration::infinite();
      }
      out.push_back(std::move(cell));
    }
  }
  return out;
}

}  // namespace stordep
