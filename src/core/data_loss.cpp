#include "core/data_loss.hpp"

#include <algorithm>

namespace stordep {

std::string toString(LossCase c) {
  switch (c) {
    case LossCase::kNotYetPropagated:
      return "target not yet propagated";
    case LossCase::kWithinRange:
      return "target within retained range";
    case LossCase::kTooOld:
      return "target older than retention";
    case LossCase::kLevelDestroyed:
      return "level destroyed";
    case LossCase::kLevelCorrupted:
      return "level corrupted";
  }
  return "unknown";
}

bool levelDestroyed(const StorageDesign& design, int level,
                    const FailureScenario& scenario) {
  // Per-thread scratch: the legacy evaluator and trial loops ask this for
  // every level of every evaluation.
  thread_local LevelRows rows;
  rows.clear();
  design.appendLevelRows(level, nullptr, rows);
  return storageDestroyed(rows.storage, scenario);
}

bool storageDestroyed(std::span<const DeviceModel* const> storage,
                      const FailureScenario& scenario) {
  return std::all_of(storage.begin(), storage.end(), [&](const DeviceModel* d) {
    return scenario.destroys(d->name(), d->location());
  });
}

LevelLossAssessment assessLevel(const StorageDesign& design, int level,
                                const FailureScenario& scenario) {
  LevelLossAssessment out;
  out.level = level;
  out.range = guaranteedRange(design, level);

  if (levelDestroyed(design, level, scenario)) {
    out.lossCase = LossCase::kLevelDestroyed;
    return out;
  }
  // A corruption (data-object failure) is faithfully propagated into the
  // primary copy itself; level 0 cannot serve the rollback.
  if (level == 0 && scenario.scope == FailureScope::kDataObject) {
    out.lossCase = LossCase::kLevelCorrupted;
    return out;
  }

  const Duration targetAge = scenario.recoveryTargetAge;
  const Duration lag = rpTimeLag(design, level);

  if (targetAge < lag) {
    // Case 1: the requested point has not propagated here yet. The youngest
    // RP guaranteed present is `lag` old; everything between it and the
    // target is lost.
    out.lossCase = LossCase::kNotYetPropagated;
    out.dataLoss = lag - targetAge;
  } else if (targetAge <= out.range.oldestAge) {
    // Case 2: RPs for the target's era arrive every accW; the nearest RP at
    // or before the target is at most one window older.
    out.lossCase = LossCase::kWithinRange;
    out.dataLoss = design.level(level).policy() != nullptr
                       ? design.level(level).policy()->effectiveAccW()
                       : Duration::zero();
  } else {
    // Case 3: everything that old has been retired from this level.
    out.lossCase = LossCase::kTooOld;
  }
  return out;
}

std::vector<LevelLossAssessment> assessAllLevels(
    const StorageDesign& design, const FailureScenario& scenario) {
  std::vector<LevelLossAssessment> out;
  out.reserve(static_cast<size_t>(design.levelCount()));
  for (int i = 0; i < design.levelCount(); ++i) {
    out.push_back(assessLevel(design, i, scenario));
  }
  return out;
}

Duration expectedDataLoss(const StorageDesign& design, int level,
                          const FailureScenario& scenario) {
  const LevelLossAssessment worst = assessLevel(design, level, scenario);
  switch (worst.lossCase) {
    case LossCase::kNotYetPropagated: {
      const Duration expected = rpExpectedTimeLag(design, level);
      const Duration loss = expected - scenario.recoveryTargetAge;
      return loss.secs() > 0 ? loss : Duration::zero();
    }
    case LossCase::kWithinRange:
      return design.level(level).policy()->effectiveAccW() * 0.5;
    case LossCase::kTooOld:
    case LossCase::kLevelDestroyed:
    case LossCase::kLevelCorrupted:
      return Duration::infinite();
  }
  return Duration::infinite();
}

std::optional<LevelLossAssessment> chooseRecoverySource(
    const StorageDesign& design, const FailureScenario& scenario) {
  std::optional<LevelLossAssessment> best;
  for (const auto& a : assessAllLevels(design, scenario)) {
    if (!a.dataLoss.isFinite()) continue;
    // Strictly better loss wins; ties keep the lower (faster) level, which
    // is encountered first.
    if (!best || a.dataLoss < best->dataLoss) best = a;
  }
  return best;
}

}  // namespace stordep
