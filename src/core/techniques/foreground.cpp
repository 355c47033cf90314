#include "core/techniques/foreground.hpp"

namespace stordep {

PrimaryCopy::PrimaryCopy(DevicePtr array)
    : Technique("foreground workload", TechniqueKind::kPrimaryCopy),
      array_(std::move(array)) {
  if (!array_) throw TechniqueError("primary copy requires an array");
}

void PrimaryCopy::appendRows(const WorkloadSpec& workload,
                             const DeviceModel* /*primaryTarget*/,
                             LevelRows& rows) const {
  rows.storage.push_back(array_.get());
  rows.demands.push_back(DemandRow{.device = array_.get(),
                                   .bandwidth = workload.avgAccessRate(),
                                   .capacity = workload.dataCap(),
                                   .isPrimaryTechnique = true});
}

}  // namespace stordep
