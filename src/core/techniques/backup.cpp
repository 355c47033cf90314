#include "core/techniques/backup.hpp"

#include <algorithm>

namespace stordep {

std::string toString(BackupStyle style) {
  switch (style) {
    case BackupStyle::kFullOnly:
      return "full-only";
    case BackupStyle::kCumulativeIncremental:
      return "full+cumulative-incremental";
    case BackupStyle::kDifferentialIncremental:
      return "full+differential-incremental";
  }
  return "unknown";
}

Backup::Backup(std::string name, BackupStyle style, DevicePtr sourceArray,
               DevicePtr backupDevice, ProtectionPolicy policy,
               DevicePtr transport)
    : Technique(std::move(name), TechniqueKind::kBackup),
      style_(style),
      source_(std::move(sourceArray)),
      device_(std::move(backupDevice)),
      transport_(std::move(transport)),
      policy_(std::move(policy)) {
  if (!source_ || !device_) {
    throw TechniqueError("backup requires a source array and a backup device");
  }
  if (transport_ && !transport_->isTransport()) {
    throw TechniqueError("backup transport must be an interconnect device");
  }
  if (transport_ && transport_->deliversPhysically()) {
    throw TechniqueError("backup streams cannot ride a physical courier");
  }
  if (!(policy_.primaryWindows().propW.secs() > 0)) {
    throw TechniqueError("backup requires a positive full propagation window");
  }
  if (style_ != BackupStyle::kFullOnly) {
    if (!policy_.isCyclic()) {
      throw TechniqueError(
          "incremental backup requires a cyclic policy (full + incremental "
          "windows)");
    }
    if (!(policy_.secondaryWindows()->propW.secs() > 0)) {
      throw TechniqueError(
          "incremental backup requires a positive incremental propW");
    }
  } else if (policy_.isCyclic()) {
    throw TechniqueError("full-only backup must not carry incremental windows");
  }
}

Bytes Backup::largestIncrementalBytes(const WorkloadSpec& workload) const {
  if (style_ == BackupStyle::kFullOnly) return Bytes{0};
  const Duration accW = policy_.secondaryWindows()->accW;
  switch (style_) {
    case BackupStyle::kCumulativeIncremental:
      // The last incremental of the cycle covers everything since the full.
      return workload.uniqueBytes(accW *
                                  static_cast<double>(policy_.cycleCount()));
    case BackupStyle::kDifferentialIncremental:
      return workload.uniqueBytes(accW);
    case BackupStyle::kFullOnly:
      break;
  }
  return Bytes{0};
}

Bandwidth Backup::transferRate(const WorkloadSpec& workload) const {
  const Bandwidth fullRate =
      workload.dataCap() / policy_.primaryWindows().propW;
  if (style_ == BackupStyle::kFullOnly) return fullRate;
  const Bandwidth incrRate =
      largestIncrementalBytes(workload) / policy_.secondaryWindows()->propW;
  return std::max(fullRate, incrRate);
}

Bytes Backup::cycleCapacity(const WorkloadSpec& workload) const {
  Bytes total = workload.dataCap();  // the cycle's full backup
  if (style_ == BackupStyle::kCumulativeIncremental) {
    const Duration accW = policy_.secondaryWindows()->accW;
    for (int k = 1; k <= policy_.cycleCount(); ++k) {
      total += workload.uniqueBytes(accW * static_cast<double>(k));
    }
  } else if (style_ == BackupStyle::kDifferentialIncremental) {
    total += workload.uniqueBytes(policy_.secondaryWindows()->accW) *
             static_cast<double>(policy_.cycleCount());
  }
  return total;
}

void Backup::appendRows(const WorkloadSpec& workload,
                        const DeviceModel* primaryTarget,
                        LevelRows& rows) const {
  const Bandwidth rate = transferRate(workload);
  const Bytes mediaCapacity =
      cycleCapacity(workload) * static_cast<double>(policy_.retentionCount()) +
      workload.dataCap();  // extra full: never overwrite the last good image

  rows.storage.push_back(device_.get());
  // Read stream on the source array (secondary technique there).
  rows.demands.push_back(DemandRow{.device = source_.get(),
                                   .bandwidth = rate,
                                   .capacity = Bytes{0},
                                   .isPrimaryTechnique = false});
  // Write stream + media on the backup device (this technique owns it).
  rows.demands.push_back(DemandRow{.device = device_.get(),
                                   .bandwidth = rate,
                                   .capacity = mediaCapacity,
                                   .isPrimaryTechnique = true});
  // The stream crosses the transport when one is named (shared SAN or WAN).
  if (transport_) {
    rows.demands.push_back(DemandRow{.device = transport_.get(),
                                     .bandwidth = rate,
                                     .capacity = Bytes{0},
                                     .isPrimaryTechnique = false});
  }
  rows.legs.push_back(
      RecoveryLeg{.from = device_.get(),
                  .to = primaryTarget ? primaryTarget : source_.get(),
                  .via = transport_.get(),
                  .serializedFix = device_->accessDelay()});
}

Bytes Backup::restorePayload(const WorkloadSpec& workload,
                             Bytes baseSize) const {
  Bytes incr{0};
  if (style_ == BackupStyle::kCumulativeIncremental) {
    incr = largestIncrementalBytes(workload);
  } else if (style_ == BackupStyle::kDifferentialIncremental) {
    incr = largestIncrementalBytes(workload) *
           static_cast<double>(policy_.cycleCount());
  }
  // Partial-object restores replay proportionally less incremental data.
  const double scale = std::min(1.0, baseSize / workload.dataCap());
  return baseSize + incr * scale;
}

}  // namespace stordep
