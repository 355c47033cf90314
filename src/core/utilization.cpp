#include "core/utilization.hpp"

#include <algorithm>

namespace stordep {

const DeviceUtilization* UtilizationResult::find(
    const std::string& name) const {
  const auto it =
      std::find_if(devices.begin(), devices.end(),
                   [&](const DeviceUtilization& d) { return d.device == name; });
  return it == devices.end() ? nullptr : &*it;
}

namespace {

/// One device's totals over its demand rows.
struct DeviceLoad {
  Bandwidth bwLimit;  ///< deliverable bandwidth (min of slots/enclosure)
  Bytes capLimit;     ///< usable capacity (after RAID overheads)
  Bandwidth bwDemand;
  Bytes capDemand;
  double bwUtil = 0.0;
  double capUtil = 0.0;
};

/// The per-device accumulation both views of the model run: every row on
/// `rows[first]`'s device, in row order. `onShare(row, bwUtil, capUtil)`
/// sees each row's share of the device's limits.
template <class OnShare>
DeviceLoad loadOn(std::span<const DemandRow> rows, std::size_t first,
                  OnShare&& onShare) {
  const DeviceModel* device = rows[first].device;
  DeviceLoad load;
  load.bwLimit = device->maxBandwidth();
  load.capLimit = device->usableCapacity();
  for (std::size_t i = first; i < rows.size(); ++i) {
    const DemandRow& demand = rows[i];
    if (demand.device != device) continue;
    const double bwUtil =
        load.bwLimit.isInfinite() || load.bwLimit.bytesPerSec() == 0
            ? 0.0
            : demand.bandwidth / load.bwLimit;
    const double capUtil =
        load.capLimit.isInfinite() ? 0.0 : demand.capacity / load.capLimit;
    load.bwDemand += demand.bandwidth;
    load.capDemand += demand.capacity;
    load.bwUtil += bwUtil;
    load.capUtil += capUtil;
    onShare(demand, bwUtil, capUtil);
  }
  return load;
}

std::string bandwidthOverload(const std::string& device,
                              const DeviceLoad& load) {
  return "device '" + device + "' bandwidth overloaded: demand " +
         toString(load.bwDemand) + " exceeds " + toString(load.bwLimit);
}

std::string capacityOverload(const std::string& device,
                             const DeviceLoad& load) {
  return "device '" + device + "' capacity overloaded: demand " +
         toString(load.capDemand) + " exceeds " + toString(load.capLimit);
}

}  // namespace

UtilizationResult computeUtilization(const StorageDesign& design) {
  return computeUtilization(design.allDemands(), design.levelNames());
}

UtilizationResult computeUtilization(std::span<const DemandRow> rows,
                                     std::span<const std::string_view> names) {
  UtilizationResult result;
  for (std::size_t first = 0; first < rows.size(); ++first) {
    if (!firstOnDevice(rows, first)) continue;
    DeviceUtilization du;
    du.device = rows[first].device->name();
    const auto addShare = [&](const DemandRow& demand, double bwUtil,
                              double capUtil) {
      du.shares.push_back(
          DemandShare{.technique = std::string(names[demand.owner]),
                      .bandwidth = demand.bandwidth,
                      .capacity = demand.capacity,
                      .bwUtil = bwUtil,
                      .capUtil = capUtil});
    };
    const DeviceLoad load = loadOn(rows, first, addShare);
    du.bwDemand = load.bwDemand;
    du.capDemand = load.capDemand;
    du.bwLimit = load.bwLimit;
    du.capLimit = load.capLimit;
    du.bwUtil = load.bwUtil;
    du.capUtil = load.capUtil;
    if (du.bwUtil > 1.0) {
      result.errors.push_back(bandwidthOverload(du.device, load));
    }
    if (du.capUtil > 1.0) {
      result.errors.push_back(capacityOverload(du.device, load));
    }
    result.devices.push_back(std::move(du));
  }

  for (const auto& du : result.devices) {
    if (du.bwUtil > result.overallBwUtil) {
      result.overallBwUtil = du.bwUtil;
      result.maxBwDevice = du.device;
    }
    if (du.capUtil > result.overallCapUtil) {
      result.overallCapUtil = du.capUtil;
      result.maxCapDevice = du.device;
    }
  }
  return result;
}

UtilizationFeasibility computeUtilizationFeasibility(
    std::span<const DemandRow> rows) {
  for (std::size_t first = 0; first < rows.size(); ++first) {
    if (!firstOnDevice(rows, first)) continue;
    const DeviceLoad load =
        loadOn(rows, first, [](const DemandRow&, double, double) {});
    const std::string& device = rows[first].device->name();
    if (load.bwUtil > 1.0) return {false, bandwidthOverload(device, load)};
    if (load.capUtil > 1.0) return {false, capacityOverload(device, load)};
  }
  return {};
}

}  // namespace stordep
