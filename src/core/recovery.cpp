#include "core/recovery.hpp"

#include <algorithm>

namespace stordep {

namespace {

/// Resolution of a node in the restore path: the device (or its stand-in),
/// where it now lives, how long it takes to provision, and whether it is a
/// freshly provisioned replacement (no continuing normal-mode demands).
struct ResolvedNode {
  Location location;
  Duration parFix = Duration::zero();
  bool fresh = false;
  std::string note;
  bool viable = true;
};

ResolvedNode resolveNode(const StorageDesign& design,
                         const DeviceModel* device,
                         const FailureScenario& scenario) {
  ResolvedNode node;
  node.location = device->location();
  if (!scenario.destroys(device->name(), device->location())) {
    return node;  // survives in place
  }
  // A dedicated/shared spare lives next to the original; it only helps for
  // single-device (array) failures — wider scopes take the spare down too.
  if (scenario.scope == FailureScope::kArray &&
      device->spec().spare.type != SpareType::kNone) {
    node.parFix = device->spareProvisioningTime();
    node.fresh = true;
    node.note = device->name() + ": provisioning on-site spare (" +
                toString(node.parFix) + ")";
    return node;
  }
  if (design.facility()) {
    const auto& fac = *design.facility();
    // The facility must itself be outside the failure scope.
    if (!scenario.destroys("", fac.location)) {
      node.location = fac.location;
      node.parFix = fac.provisioningTime;
      node.fresh = true;
      node.note = device->name() + ": provisioning replacement at recovery "
                                   "facility '" +
                  fac.location.site + "' (" + toString(node.parFix) + ")";
      return node;
    }
  }
  node.viable = false;
  node.note = device->name() + ": destroyed with no spare or facility";
  return node;
}

}  // namespace

Bandwidth availableBandwidth(const StorageDesign& design,
                             const DeviceModel& device, Bytes payload,
                             bool fresh, const FailureScenario* scenario) {
  Bandwidth base = device.transferBandwidth(payload);
  if (fresh) return base;
  Bandwidth demands = Bandwidth::zero();
  thread_local LevelRows rows;  // per-thread scratch: three calls per leg
  bool feederDestroyed = false;
  for (int i = 0; i < design.levelCount(); ++i) {
    rows.clear();
    design.appendLevelRows(i, nullptr, rows);
    if (scenario != nullptr) {
      // A destroyed level places no demands; a level whose feeding level
      // died has nothing to propagate either.
      const bool destroyed = storageDestroyed(rows.storage, *scenario);
      const bool silenced = destroyed || feederDestroyed;
      feederDestroyed = destroyed;
      if (silenced) continue;
    }
    for (const DemandRow& d : rows.demands) {
      if (d.device == &device) demands += d.bandwidth;
    }
  }
  if (demands >= base) return Bandwidth::zero();
  return base - demands;
}

RecoveryResult computeRecovery(const StorageDesign& design,
                               const FailureScenario& scenario) {
  const auto source = chooseRecoverySource(design, scenario);
  if (!source) {
    RecoveryResult result;
    result.notes.push_back(
        "no surviving level retains an RP for the recovery target: the data "
        "object is lost");
    return result;
  }
  return recoverFrom(design, scenario, *source);
}

RecoveryResult recoverFrom(const StorageDesign& design,
                           const FailureScenario& scenario,
                           const LevelLossAssessment& source,
                           std::optional<Bytes> payloadOverride) {
  RecoveryResult result;
  result.sourceLevel = source.level;
  result.sourceName = design.level(source.level).name();
  result.lossCase = source.lossCase;
  result.dataLoss = source.dataLoss;

  // Recovering from the primary copy itself means nothing was lost and
  // nothing needs restoring (e.g., a failure scope that misses the primary).
  if (source.level == 0) {
    result.recoverable = true;
    result.recoveryTime = Duration::zero();
    result.payload = Bytes{0};
    return result;
  }

  const Technique& tech = design.level(source.level);
  const Bytes baseSize =
      scenario.recoverySize.value_or(design.workload().dataCap());
  result.payload = payloadOverride.value_or(
      tech.restorePayload(design.workload(), baseSize));

  const DeviceModel* primaryArray = design.primary().array().get();
  LevelRows rows;
  design.appendLevelRows(source.level, primaryArray, rows);
  const std::vector<RecoveryLeg>& legs = rows.legs;
  if (legs.empty()) {
    result.notes.push_back("source level has no restore path");
    return result;
  }

  // Each leg runs in two serialized phases (this is what reproduces the
  // paper's published recovery times — see DESIGN.md):
  //   drain  the source side reads/ships the payload through the transport
  //          to the destination site (staging). It waits only on the source
  //          being ready; destination provisioning runs in parallel.
  //   apply  the payload is written into the destination device at that
  //          device's available bandwidth, once both the drained data and
  //          the provisioned destination exist.
  Duration clock = Duration::zero();
  for (const auto& leg : legs) {
    if (!leg.from || !leg.to) {
      result.notes.push_back("restore leg with missing endpoint");
      return result;
    }
    const ResolvedNode src = resolveNode(design, leg.from, scenario);
    const ResolvedNode dst = resolveNode(design, leg.to, scenario);
    if (!src.viable || !dst.viable) {
      // The restore path cannot be re-provisioned: although an RP survives,
      // there is nowhere to restore it — the object is effectively lost.
      result.notes.push_back(src.viable ? dst.note : src.note);
      result.dataLoss = Duration::infinite();
      result.recoveryTime = Duration::infinite();
      result.recoverable = false;
      return result;
    }
    if (!src.note.empty()) result.notes.push_back(src.note);
    if (!dst.note.empty()) result.notes.push_back(dst.note);

    // A long-haul transport is skipped when the replacement ends up
    // provisioned next to the sender (originally cross-site, now
    // co-located); a same-site transport (a shared SAN) is always
    // traversed.
    const bool originallyCrossSite =
        leg.from->location().site != leg.to->location().site;
    const bool resolvedSameSite = src.location.site == dst.location.site;
    const DeviceModel* via =
        (leg.via && !(originallyCrossSite && resolvedSameSite)) ? leg.via
                                                                : nullptr;
    const bool physical = via && via->deliversPhysically();
    const Duration transit = via ? via->accessDelay() : Duration::zero();

    const Duration sendReady = std::max(clock, src.parFix);
    Duration drainTime = Duration::zero();
    Duration applyTime = Duration::zero();
    Bandwidth drainRate = Bandwidth::zero();
    if (!physical) {
      drainRate = availableBandwidth(design, *leg.from, result.payload,
                                     src.fresh, &scenario);
      if (via) {
        drainRate = std::min(drainRate,
                             availableBandwidth(design, *via, result.payload,
                                                false, &scenario));
      }
      drainTime = drainRate.bytesPerSec() > 0 ? result.payload / drainRate
                                              : Duration::infinite();
      const Bandwidth destRate = availableBandwidth(
          design, *leg.to, result.payload, dst.fresh, &scenario);
      applyTime = destRate.bytesPerSec() > 0 ? result.payload / destRate
                                             : Duration::infinite();
    }
    // Couriers move the payload in one transit regardless of size; the
    // receiving device just takes custody of the media (no apply phase).
    const Duration serFix = physical ? Duration::zero() : leg.serializedFix;
    const Duration drainDone = sendReady + transit + serFix + drainTime;
    const Duration ready = std::max(drainDone, dst.parFix) + applyTime;

    result.timeline.push_back(RecoveryStep{
        .description = leg.from->name() + " -> " +
                       (leg.to == primaryArray && dst.fresh
                            ? "replacement primary"
                            : leg.to->name()),
        .startTime = sendReady,
        .readyTime = ready,
        .parFix = std::max(src.parFix, dst.parFix),
        .transit = transit,
        .serFix = serFix,
        .serXfer = drainTime + applyTime,
        .rate = drainRate,
        .payload = result.payload,
        .fromDevice = leg.from->name(),
        .toDevice = leg.to->name(),
        .viaDevice = via ? via->name() : std::string{},
    });
    clock = ready;
    if (!clock.isFinite()) break;
  }

  // The same device may appear in several legs; keep each note once.
  std::vector<std::string> uniqueNotes;
  for (auto& n : result.notes) {
    if (std::find(uniqueNotes.begin(), uniqueNotes.end(), n) ==
        uniqueNotes.end()) {
      uniqueNotes.push_back(std::move(n));
    }
  }
  result.notes = std::move(uniqueNotes);

  result.recoverable = clock.isFinite();
  result.recoveryTime = clock;
  return result;
}

}  // namespace stordep
