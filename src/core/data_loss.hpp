// data_loss.hpp — recent-data-loss model (paper Sec 3.3.3).
//
// Given a failure scenario (which levels survive, what restoration point is
// requested), each surviving level is classified into one of three cases:
//
//  1. target too recent — no RP for it has propagated here yet: the loss is
//     the level's time lag (minus the requested target age);
//  2. target inside the level's guaranteed range — RPs arrive every accW, so
//     at worst one accumulation window of updates before the target is lost;
//  3. target older than anything retained — this level cannot serve the
//     recovery at all (the whole object would be lost).
//
// The level with the smallest loss becomes the recovery source.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/failure.hpp"
#include "core/hierarchy.hpp"
#include "core/propagation.hpp"

namespace stordep {

enum class LossCase {
  kNotYetPropagated,  ///< case 1: loss = lag - targetAge
  kWithinRange,       ///< case 2: loss = effective accW
  kTooOld,            ///< case 3: level cannot serve the recovery target
  kLevelDestroyed,    ///< the level's storage died in the failure
  kLevelCorrupted,    ///< level 0 under a data-object (corruption) failure
};

[[nodiscard]] std::string toString(LossCase c);

/// One level's ability to serve the recovery.
struct LevelLossAssessment {
  int level = 0;
  LossCase lossCase = LossCase::kLevelDestroyed;
  /// Worst-case recent data loss when recovering from this level; infinite
  /// for kTooOld / kLevelDestroyed / kLevelCorrupted.
  Duration dataLoss = Duration::infinite();
  RpRange range{};
};

/// Assesses a single level under `scenario`.
[[nodiscard]] LevelLossAssessment assessLevel(const StorageDesign& design,
                                              int level,
                                              const FailureScenario& scenario);

/// Assesses every level, in level order.
[[nodiscard]] std::vector<LevelLossAssessment> assessAllLevels(
    const StorageDesign& design, const FailureScenario& scenario);

/// The chosen recovery source: the surviving level with the smallest data
/// loss (ties broken toward the lower/faster level). Empty when no level can
/// serve the target — the data is unrecoverable under this scenario.
[[nodiscard]] std::optional<LevelLossAssessment> chooseRecoverySource(
    const StorageDesign& design, const FailureScenario& scenario);

/// True when the failure scenario destroys every storage device of `level`.
[[nodiscard]] bool levelDestroyed(const StorageDesign& design, int level,
                                  const FailureScenario& scenario);

/// levelDestroyed() over a level's storage rows.
[[nodiscard]] bool storageDestroyed(std::span<const DeviceModel* const> storage,
                                    const FailureScenario& scenario);

/// Expected (mean) recent data loss when recovering from `level` under a
/// failure at a uniformly random instant — the companion to the worst-case
/// numbers the paper reports. Case 1 averages the in-flight wait to half a
/// window (expected lag - target age); case 2 averages the RP spacing to
/// accW/2. Infinite when the level cannot serve. Validated against the
/// simulator's empirical means (bench_expected_vs_worst).
[[nodiscard]] Duration expectedDataLoss(const StorageDesign& design, int level,
                                        const FailureScenario& scenario);

}  // namespace stordep
