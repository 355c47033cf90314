#include "core/cost.hpp"

#include <algorithm>

namespace stordep {

const TechniqueOutlay* CostResult::find(const std::string& name) const {
  const auto it =
      std::find_if(outlays.begin(), outlays.end(),
                   [&](const TechniqueOutlay& o) { return o.technique == name; });
  return it == outlays.end() ? nullptr : &*it;
}

std::vector<TechniqueOutlay> computeOutlays(
    const std::vector<PlacedDemand>& all) {
  // Accumulate attributed outlays per technique (insertion order).
  std::vector<TechniqueOutlay> outlays;
  auto techniqueEntry = [&](const std::string& name) -> TechniqueOutlay& {
    const auto it = std::find_if(
        outlays.begin(), outlays.end(),
        [&](const TechniqueOutlay& o) { return o.technique == name; });
    if (it != outlays.end()) return *it;
    outlays.push_back(TechniqueOutlay{name, Money::zero(), Money::zero()});
    return outlays.back();
  };

  // Devices in first-seen order, each with its demands in `all` order: for
  // each new device, re-scan `all` for its demands (the same grouping as
  // computeUtilizationFeasibility, without a per-device map of copies).
  std::vector<const DeviceModel*> seen;
  std::vector<const DeviceDemand*> demands;
  std::vector<Money> attributed;
  for (std::size_t first = 0; first < all.size(); ++first) {
    const DeviceModel* device = all[first].device.get();
    if (std::find(seen.begin(), seen.end(), device) != seen.end()) continue;
    seen.push_back(device);
    demands.clear();
    for (std::size_t i = first; i < all.size(); ++i) {
      if (all[i].device.get() == device) demands.push_back(&all[i].demand);
    }
    const Money fixed = device->spec().cost.fixedCost;

    // Which demand is charged the fixed costs: the flagged primary
    // technique, defaulting to the first user of the device.
    size_t primaryIdx = 0;
    for (size_t i = 0; i < demands.size(); ++i) {
      if (demands[i]->isPrimaryTechnique) {
        primaryIdx = i;
        break;
      }
    }

    Bytes totalCap{0};
    Bandwidth totalBW = Bandwidth::zero();
    attributed.clear();
    for (size_t i = 0; i < demands.size(); ++i) {
      const DeviceDemand& d = *demands[i];
      totalCap += d.capacity;
      totalBW += d.bandwidth;
      const Money marginal =
          device->annualOutlay(d.capacity, d.bandwidth, d.shipmentsPerYear) -
          fixed;
      attributed.push_back(marginal +
                           (i == primaryIdx ? fixed : Money::zero()));
    }

    // Spare costs follow each technique's share of the device outlay.
    const Money spareTotal = device->annualSpareOutlay(totalCap, totalBW);
    Money deviceTotal = Money::zero();
    for (const auto& m : attributed) deviceTotal += m;

    for (size_t i = 0; i < demands.size(); ++i) {
      auto& entry = techniqueEntry(demands[i]->techniqueName);
      entry.deviceOutlay += attributed[i];
      const double share =
          deviceTotal.usd() > 0
              ? attributed[i] / deviceTotal
              : 1.0 / static_cast<double>(demands.size());
      entry.spareOutlay += spareTotal * share;
    }
  }
  return outlays;
}

CostResult computeCosts(const StorageDesign& design,
                        const RecoveryResult& recovery) {
  CostResult result;
  result.outlays = computeOutlays(design.allDemands());
  for (const auto& o : result.outlays) result.totalOutlays += o.total();

  const auto& business = design.business();
  result.outagePenalty = business.outagePenalty(recovery.recoveryTime);
  result.lossPenalty = business.lossPenalty(recovery.dataLoss);
  result.totalPenalties = result.outagePenalty + result.lossPenalty;
  result.totalCost = result.totalOutlays + result.totalPenalties;
  return result;
}

}  // namespace stordep
