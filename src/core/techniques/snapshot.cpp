#include "core/techniques/snapshot.hpp"

namespace stordep {

VirtualSnapshot::VirtualSnapshot(std::string name, DevicePtr array,
                                 ProtectionPolicy policy)
    : Technique(std::move(name), TechniqueKind::kVirtualSnapshot),
      array_(std::move(array)),
      policy_(std::move(policy)) {
  if (!array_) throw TechniqueError("virtual snapshot requires an array");
  if (!(policy_.primaryWindows().accW.secs() > 0)) {
    throw TechniqueError("virtual snapshot requires a positive accW");
  }
}

void VirtualSnapshot::appendRows(const WorkloadSpec& workload,
                                 const DeviceModel* primaryTarget,
                                 LevelRows& rows) const {
  const Bandwidth cowBandwidth = 2.0 * workload.avgUpdateRate();
  const Bytes perSnapshot =
      workload.uniqueBytes(policy_.primaryWindows().accW);
  const Bytes capacity =
      perSnapshot * static_cast<double>(policy_.retentionCount());
  rows.storage.push_back(array_.get());
  rows.demands.push_back(DemandRow{.device = array_.get(),
                                   .bandwidth = cowBandwidth,
                                   .capacity = capacity,
                                   .isPrimaryTechnique = false});
  // Snapshots share the primary array: restoring copies old blocks back in
  // place. If the recovery target is a replacement array (shouldn't happen —
  // snapshots die with the array), the leg still reads from this array.
  rows.legs.push_back(
      RecoveryLeg{.from = array_.get(),
                  .to = primaryTarget ? primaryTarget : array_.get(),
                  .via = nullptr,
                  .serializedFix = Duration::zero()});
}

}  // namespace stordep
