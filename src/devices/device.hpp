// device.hpp — hardware device abstraction (paper Sec 3.2.2).
//
// Every storage or interconnect device is described by the same parameter
// set: enclosures with capacity slots (disks, tape cartridges), bandwidth
// slots (disks, tape drives), an aggregate enclosure bandwidth, an access
// delay, a cost model and an optional spare. Device-specific behaviour
// (RAID capacity/write-amplification for arrays, load/seek delays for tape,
// per-shipment transport) lives in subclasses, so that the composition
// models in src/core never need to know device internals — exactly the
// decomposition the paper argues for.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/failure.hpp"
#include "core/units.hpp"
#include "devices/spares.hpp"

namespace stordep {

/// Outlay model: cost = fixed + perGB * usedGB + perMBps * provisionedMBps
/// (+ perShipment * shipments for transport devices). All values are
/// annualized (3-year depreciation folded in by the catalog), matching the
/// paper's Table 4 cost rows.
struct DeviceCostModel {
  Money fixedCost;
  double costPerGB = 0.0;        ///< US$ per gigabyte of used capacity
  double costPerMBps = 0.0;      ///< US$ per MB/s of demanded bandwidth
  double costPerShipment = 0.0;  ///< US$ per shipment (transport only)

  [[nodiscard]] Money annualOutlay(Bytes usedCapacity, Bandwidth usedBandwidth,
                                   double shipmentsPerYear = 0.0) const {
    return fixedCost + dollars(costPerGB * usedCapacity.gigabytes()) +
           dollars(costPerMBps * usedBandwidth.mbPerSec()) +
           dollars(costPerShipment * shipmentsPerYear);
  }
};

/// The raw, technique-independent description of a device (Table 1, bottom).
struct DeviceSpec {
  std::string name;
  Location location;
  int maxCapSlots = 0;           ///< max capacity components (disks/cartridges)
  Bytes slotCap;                 ///< per-component capacity
  int maxBWSlots = 0;            ///< max bandwidth components (disks/drives)
  Bandwidth slotBW;              ///< per-component bandwidth
  Bandwidth enclosureBW;         ///< aggregate enclosure bandwidth cap
  Duration accessDelay;          ///< devDelay: load/seek or propagation delay
  DeviceCostModel cost;
  SpareSpec spare;
};

class DeviceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Abstract operational + cost model for a device.
class DeviceModel {
 public:
  explicit DeviceModel(DeviceSpec spec);
  virtual ~DeviceModel() = default;

  DeviceModel(const DeviceModel&) = delete;
  DeviceModel& operator=(const DeviceModel&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] const Location& location() const noexcept {
    return spec_.location;
  }

  /// Usable data capacity after device-internal redundancy (RAID) overheads.
  /// Infinite for pure transports.
  [[nodiscard]] virtual Bytes usableCapacity() const;

  /// Deliverable bandwidth: min(enclosureBW, maxBWSlots*slotBW).
  /// NOTE: the paper's text prints "max" here, but its own Table 5 numbers
  /// (512 MB/s for a 256 x 25 MB/s array) require "min"; see DESIGN.md.
  [[nodiscard]] virtual Bandwidth maxBandwidth() const;

  /// Multiplier on logical write bytes for device-internal redundancy
  /// (RAID-1 writes twice). Used by recovery to derate restore bandwidth.
  [[nodiscard]] virtual double writeAmplification() const { return 1.0; }

  /// Fixed per-RP access latency during recovery (tape load/seek,
  /// link propagation, courier transit).
  [[nodiscard]] virtual Duration accessDelay() const {
    return spec_.accessDelay;
  }

  /// True for devices that move data between sites without storing it
  /// (network links, couriers).
  [[nodiscard]] virtual bool isTransport() const { return false; }

  /// True for transports that deliver media physically: the whole payload
  /// arrives after accessDelay() regardless of size (couriers), instead of
  /// streaming at a bandwidth.
  [[nodiscard]] virtual bool deliversPhysically() const { return false; }

  /// Bandwidth deliverable for a single transfer of `payload` bytes.
  /// Defaults to maxBandwidth(); tape libraries cap it by the number of
  /// cartridges (hence drives) the payload spans.
  [[nodiscard]] virtual Bandwidth transferBandwidth(Bytes payload) const {
    (void)payload;
    return maxBandwidth();
  }

  /// Annual outlay for the given usage. Device subclasses may override to
  /// model internal redundancy (e.g., RAID-1 buys twice the disks).
  [[nodiscard]] virtual Money annualOutlay(Bytes usedCapacity,
                                           Bandwidth usedBandwidth,
                                           double shipmentsPerYear = 0.0) const;

  /// Annual cost of this device's spare (zero when spare.type == kNone).
  /// The spare is charged the same outlay as the device itself, scaled by
  /// the spare discount factor (paper Sec 3.2.2).
  [[nodiscard]] Money annualSpareOutlay(Bytes usedCapacity,
                                        Bandwidth usedBandwidth) const;

  /// Time to provision a replacement after this device fails: the spare's
  /// provisioning time, or infinite when the device has no spare.
  [[nodiscard]] Duration spareProvisioningTime() const;

  /// Human-readable one-line summary for reports.
  [[nodiscard]] virtual std::string describe() const;

 private:
  DeviceSpec spec_;
};

using DevicePtr = std::shared_ptr<const DeviceModel>;

}  // namespace stordep
