// vaulting.hpp — off-site vaulting of removable backup media.
//
// Vaulting periodically ships full-backup media from the backup device to a
// remote vault for archival retention (paper Sec 2, 3.2.3). When the vault's
// hold window is at least the backup level's retention window, the expiring
// tapes themselves are shipped and vaulting is free of bandwidth demands;
// when tapes must leave *before* their on-site retention expires, the backup
// device has to cut an extra copy first, which costs library bandwidth and
// one extra full of media capacity.
#pragma once

#include "core/technique.hpp"

namespace stordep {

class Vaulting final : public Technique {
 public:
  /// `backupRetentionWindow` is the retention window of the backup level
  /// feeding this vault (decides whether an extra media copy is needed).
  Vaulting(std::string name, DevicePtr backupDevice, DevicePtr vault,
           DevicePtr shipment, ProtectionPolicy policy,
           Duration backupRetentionWindow);

  [[nodiscard]] const ProtectionPolicy* policy() const noexcept override {
    return &policy_;
  }
  [[nodiscard]] DevicePtr backupDevice() const noexcept { return library_; }
  [[nodiscard]] DevicePtr vault() const noexcept { return vault_; }
  [[nodiscard]] DevicePtr shipment() const noexcept { return shipment_; }

  /// True when tapes must be copied before shipment (holdW < backup retW).
  [[nodiscard]] bool needsExtraCopy() const noexcept;

  /// Shipments dispatched per year (one per vault cycle).
  [[nodiscard]] double shipmentsPerYear() const noexcept;

  /// Storage: the vault. Demands: retCnt full images in the vault, the
  /// courier's dispatches, and the extra on-site copy on the backup device
  /// when tapes ship early. Legs: ship the media from the vault to the
  /// backup device's site, then read it there into the (replacement)
  /// primary (`primaryTarget`, which may be null).
  void appendRows(const WorkloadSpec& workload,
                  const DeviceModel* primaryTarget,
                  LevelRows& rows) const override;

  /// Only fulls are vaulted: the restore payload is the image itself.
  [[nodiscard]] Bytes restorePayload(const WorkloadSpec& workload,
                                     Bytes baseSize) const override;

 private:
  DevicePtr library_;
  DevicePtr vault_;
  DevicePtr shipment_;
  ProtectionPolicy policy_;
  Duration backupRetW_;
};

}  // namespace stordep
