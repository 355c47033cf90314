// utilization.hpp — normal-mode utilization model (paper Sec 3.3.1).
//
// Each device model computes its own bandwidth and capacity utilization from
// the demands the techniques place on it; the global model reports the
// system utilization as that of the most heavily utilized device and flags
// an error whenever any utilization exceeds 1 (the design is infeasible).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hierarchy.hpp"

namespace stordep {

/// Per-technique share of one device's load (one row of paper Table 5).
struct DemandShare {
  std::string technique;
  Bandwidth bandwidth;
  Bytes capacity;
  double bwUtil = 0.0;
  double capUtil = 0.0;
};

struct DeviceUtilization {
  std::string device;
  Bandwidth bwDemand;   ///< total bandwidth demand
  Bytes capDemand;      ///< total capacity demand
  Bandwidth bwLimit;    ///< deliverable bandwidth (min of slots/enclosure)
  Bytes capLimit;       ///< usable capacity (after RAID overheads)
  double bwUtil = 0.0;  ///< 0 for devices without bandwidth components
  double capUtil = 0.0;
  std::vector<DemandShare> shares;

  [[nodiscard]] bool overloaded() const noexcept {
    return bwUtil > 1.0 || capUtil > 1.0;
  }
};

struct UtilizationResult {
  std::vector<DeviceUtilization> devices;
  /// System utilization = the most heavily utilized device's (Sec 3.3.1).
  double overallBwUtil = 0.0;
  double overallCapUtil = 0.0;
  std::string maxBwDevice;
  std::string maxCapDevice;
  /// Overload diagnostics; empty means the configuration is feasible.
  std::vector<std::string> errors;

  [[nodiscard]] bool feasible() const noexcept { return errors.empty(); }
  [[nodiscard]] const DeviceUtilization* find(const std::string& name) const;
};

[[nodiscard]] UtilizationResult computeUtilization(const StorageDesign& design);

/// Same model over explicit demand rows (used by multi-object portfolios,
/// which merge rows from several designs sharing devices). Devices are
/// reported in first-seen order; `names[row.owner]` names each share's
/// technique.
[[nodiscard]] UtilizationResult computeUtilization(
    std::span<const DemandRow> demands,
    std::span<const std::string_view> names);

/// Feasibility-only view of the utilization model: whether any device is
/// overloaded, and the first diagnostic string computeUtilization() would
/// have produced. Plan compilation (engine/plan.hpp) needs exactly this much
/// — search folds only feasible() and errors[0] into a candidate verdict.
/// Both views run one per-device accumulation, so feasible and firstError
/// are bit-for-bit what the full model reports.
struct UtilizationFeasibility {
  bool feasible = true;
  /// First entry of UtilizationResult::errors; empty when feasible.
  std::string firstError;
};

[[nodiscard]] UtilizationFeasibility computeUtilizationFeasibility(
    std::span<const DemandRow> demands);

}  // namespace stordep
