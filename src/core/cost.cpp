#include "core/cost.hpp"

#include <algorithm>

namespace stordep {

const TechniqueOutlay* CostResult::find(const std::string& name) const {
  const auto it =
      std::find_if(outlays.begin(), outlays.end(),
                   [&](const TechniqueOutlay& o) { return o.technique == name; });
  return it == outlays.end() ? nullptr : &*it;
}

void computeOutlays(std::span<const DemandRow> all,
                    std::span<const std::string_view> names,
                    std::vector<OutlayShare>& outlays) {
  outlays.clear();
  auto techniqueEntry = [&](std::string_view name) -> OutlayShare& {
    for (OutlayShare& o : outlays) {
      if (o.technique == name) return o;
    }
    outlays.push_back(OutlayShare{name, Money::zero(), Money::zero()});
    return outlays.back();
  };

  // Devices in first-seen order, each with its rows in `all` order: for each
  // new device, re-scan `all` for its rows. `attributed` is per-thread
  // scratch, so a warm fold allocates only when `outlays` grows.
  thread_local std::vector<Money> attributed;
  for (std::size_t first = 0; first < all.size(); ++first) {
    if (!firstOnDevice(all, first)) continue;
    const DeviceModel* device = all[first].device;
    const Money fixed = device->spec().cost.fixedCost;

    // Which row is charged the fixed costs: the flagged primary technique,
    // defaulting to the device's first row.
    std::size_t primaryRow = first;
    for (std::size_t i = first; i < all.size(); ++i) {
      if (all[i].device == device && all[i].isPrimaryTechnique) {
        primaryRow = i;
        break;
      }
    }

    Bytes totalCap{0};
    Bandwidth totalBW = Bandwidth::zero();
    attributed.clear();
    for (std::size_t i = first; i < all.size(); ++i) {
      const DemandRow& d = all[i];
      if (d.device != device) continue;
      totalCap += d.capacity;
      totalBW += d.bandwidth;
      const Money marginal =
          device->annualOutlay(d.capacity, d.bandwidth, d.shipmentsPerYear) -
          fixed;
      attributed.push_back(marginal +
                           (i == primaryRow ? fixed : Money::zero()));
    }

    // Spare costs follow each technique's share of the device outlay.
    const Money spareTotal = device->annualSpareOutlay(totalCap, totalBW);
    Money deviceTotal = Money::zero();
    for (const auto& m : attributed) deviceTotal += m;

    std::size_t k = 0;
    for (std::size_t i = first; i < all.size(); ++i) {
      if (all[i].device != device) continue;
      auto& entry = techniqueEntry(names[all[i].owner]);
      entry.deviceOutlay += attributed[k];
      const double share =
          deviceTotal.usd() > 0
              ? attributed[k] / deviceTotal
              : 1.0 / static_cast<double>(attributed.size());
      entry.spareOutlay += spareTotal * share;
      ++k;
    }
  }
}

CostResult computeCosts(const StorageDesign& design,
                        const RecoveryResult& recovery) {
  CostResult result;
  const std::vector<std::string_view> names = design.levelNames();
  std::vector<OutlayShare> shares;
  computeOutlays(design.allDemands(), names, shares);
  for (const OutlayShare& s : shares) {
    result.outlays.push_back(TechniqueOutlay{std::string(s.technique),
                                             s.deviceOutlay, s.spareOutlay});
  }
  for (const auto& o : result.outlays) result.totalOutlays += o.total();

  const auto& business = design.business();
  result.outagePenalty = business.outagePenalty(recovery.recoveryTime);
  result.lossPenalty = business.lossPenalty(recovery.dataLoss);
  result.totalPenalties = result.outagePenalty + result.lossPenalty;
  result.totalCost = result.totalOutlays + result.totalPenalties;
  return result;
}

}  // namespace stordep
