// recovery.hpp — worst-case recovery-time model (paper Sec 3.3.4, Figure 4).
//
// Recovery restores the chosen source level's RP onto a (possibly
// replacement) primary array. Each restore leg moves the payload between
// devices, and three time components govern it:
//
//   parFix   parallelizable fixed work at the receiving device — spare or
//            recovery-facility provisioning — which overlaps the incoming
//            shipment/transfer (paper: max(RT_{i+1}, parFix_i));
//   serFix   serialized fixed work once data arrives (tape load/seek);
//   serXfer  the transfer itself, at the minimum of sender, receiver and
//            interconnect *available* bandwidth (capacity remaining after
//            normal-mode RP-propagation demands on surviving devices).
//
// Physical shipments deliver the whole payload after their transit delay;
// network hops are skipped when the replacement target is provisioned at the
// same site as the sender (site-disaster failover next to a remote mirror).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/data_loss.hpp"
#include "core/failure.hpp"
#include "core/hierarchy.hpp"

namespace stordep {

/// One executed leg of the recovery timeline, for reporting (Figure 4).
struct RecoveryStep {
  std::string description;
  Duration startTime;   ///< when this leg's transfer work begins
  Duration readyTime;   ///< when its destination holds the data
  Duration parFix;      ///< provisioning overlapped at the destination
  Duration transit;     ///< shipment / propagation latency
  Duration serFix;      ///< post-arrival fixed time (tape load/seek)
  Duration serXfer;     ///< streaming transfer time
  Bandwidth rate;       ///< achieved transfer rate (zero when not streaming)
  Bytes payload;
  std::string fromDevice;
  std::string toDevice;
  std::string viaDevice;  ///< empty when co-located
};

struct RecoveryResult {
  bool recoverable = false;
  int sourceLevel = -1;
  std::string sourceName;
  LossCase lossCase = LossCase::kLevelDestroyed;
  Duration dataLoss = Duration::infinite();
  Duration recoveryTime = Duration::infinite();
  Bytes payload;
  std::vector<RecoveryStep> timeline;
  /// Replacement/provisioning decisions taken, for the report.
  std::vector<std::string> notes;
};

/// Evaluates worst-case data loss and recovery time for `scenario`.
[[nodiscard]] RecoveryResult computeRecovery(const StorageDesign& design,
                                             const FailureScenario& scenario);

/// Runs the restore legs from an externally chosen source level (used by
/// degraded-mode evaluation, which picks sources under technique outages,
/// and by the recovery-time distribution simulator, which knows the actual
/// payload for a specific failure instant). `source.dataLoss` must be
/// finite. When `payloadOverride` is set it replaces the technique's
/// worst-case restorePayload().
[[nodiscard]] RecoveryResult recoverFrom(
    const StorageDesign& design, const FailureScenario& scenario,
    const LevelLossAssessment& source,
    std::optional<Bytes> payloadOverride = std::nullopt);

/// Bandwidth a device can contribute to a restore of `payload` bytes:
/// its transfer bandwidth minus the normal-mode demands that continue on it.
/// `fresh` replacements carry no continuing demands. When a `scenario` is
/// given, demands from levels silenced by the failure are excluded too — a
/// level whose own storage or whose feeding level died has nothing left to
/// propagate (e.g., after a primary-array failure, the backup read stream
/// and the mirror update stream both stop).
[[nodiscard]] Bandwidth availableBandwidth(
    const StorageDesign& design, const DeviceModel& device, Bytes payload,
    bool fresh, const FailureScenario* scenario = nullptr);

}  // namespace stordep
