#include "core/techniques/split_mirror.hpp"

namespace stordep {

SplitMirror::SplitMirror(std::string name, DevicePtr array,
                         ProtectionPolicy policy)
    : Technique(std::move(name), TechniqueKind::kSplitMirror),
      array_(std::move(array)),
      policy_(std::move(policy)) {
  if (!array_) throw TechniqueError("split mirror requires an array");
  if (!(policy_.primaryWindows().accW.secs() > 0)) {
    throw TechniqueError("split mirror requires a positive accW");
  }
}

void SplitMirror::appendRows(const WorkloadSpec& workload,
                             const DeviceModel* primaryTarget,
                             LevelRows& rows) const {
  const double copies = static_cast<double>(mirrorCount());
  const Duration accW = policy_.primaryWindows().accW;
  // The resilvering mirror was split `copies` windows ago; its catch-up data
  // is the unique updates over that whole range, applied within one window.
  const Duration staleRange = accW * copies;
  const Bandwidth catchUpRate = workload.uniqueBytes(staleRange) / accW;
  const Bandwidth resilverBandwidth = 2.0 * catchUpRate;  // read + write
  const Bytes capacity = workload.dataCap() * copies;
  rows.storage.push_back(array_.get());
  rows.demands.push_back(DemandRow{.device = array_.get(),
                                   .bandwidth = resilverBandwidth,
                                   .capacity = capacity,
                                   .isPrimaryTechnique = false});
  rows.legs.push_back(
      RecoveryLeg{.from = array_.get(),
                  .to = primaryTarget ? primaryTarget : array_.get(),
                  .via = nullptr,
                  .serializedFix = Duration::zero()});
}

}  // namespace stordep
