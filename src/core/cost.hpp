// cost.hpp — overall system cost model (paper Sec 3.3.5).
//
// Costs have two parts:
//  - *outlays*: annualized equipment/facilities/service expenditures,
//    computed per device and attributed per technique. The technique that
//    owns a device (its primary technique) is charged the device's fixed
//    costs plus its own per-capacity/per-bandwidth costs; secondary
//    techniques are charged only their incremental usage. Spare-resource
//    costs are attributed in proportion to each technique's share of the
//    device outlay.
//  - *penalties*: worst-case recovery time x unavailability penalty rate +
//    worst-case recent data loss x loss penalty rate, under the imposed
//    failure scenario.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/recovery.hpp"

namespace stordep {

/// Outlay attributed to one technique (one bar segment of paper Figure 5).
struct TechniqueOutlay {
  std::string technique;
  Money deviceOutlay;  ///< fixed + usage costs on the devices it touches
  Money spareOutlay;   ///< attributed share of spare-resource costs

  [[nodiscard]] Money total() const noexcept {
    return deviceOutlay + spareOutlay;
  }
};

struct CostResult {
  std::vector<TechniqueOutlay> outlays;
  Money totalOutlays;
  Money outagePenalty;  ///< recovery time x unavailability rate
  Money lossPenalty;    ///< recent data loss x loss rate
  Money totalPenalties;
  Money totalCost;  ///< outlays + penalties

  [[nodiscard]] const TechniqueOutlay* find(const std::string& name) const;
};

/// Computes outlays from the design's demands and penalties from an already
/// computed recovery result.
[[nodiscard]] CostResult computeCosts(const StorageDesign& design,
                                      const RecoveryResult& recovery);

/// Outlay attributed to one technique, named by a view into the caller's
/// name table, so the fold builds no string per technique.
struct OutlayShare {
  std::string_view technique;
  Money deviceOutlay;
  Money spareOutlay;

  [[nodiscard]] Money total() const noexcept {
    return deviceOutlay + spareOutlay;
  }
};

/// Outlay attribution over demand rows (used by computeCosts, plan compile
/// and multi-object portfolios, where shared fixed costs are charged once
/// across all objects). Replaces `out` with one entry per technique name, in
/// first-seen order; rows whose owners share a name are charged to one
/// entry. `names[row.owner]` names the technique that placed each row.
/// Devices are attributed in first-seen order, each over its rows in row
/// order. `out` is the caller's, so a caller can reuse its capacity.
void computeOutlays(std::span<const DemandRow> demands,
                    std::span<const std::string_view> names,
                    std::vector<OutlayShare>& out);

}  // namespace stordep
