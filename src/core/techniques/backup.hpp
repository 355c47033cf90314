// backup.hpp — tape (or disk) backup with full/incremental cycles.
//
// Backup copies RPs from the primary array to separate hardware (paper
// Sec 2, 3.2.3). A backup cycle is one full backup followed by cycleCnt
// incrementals, which are either *cumulative* (all changes since the last
// full; each is larger than the one before) or *differential* (changes since
// the previous backup of any kind; small but all must be replayed on
// restore).
//
// Demand model (Sec 3.2.3):
//  - bandwidth (on both source array and backup device) = the maximum of the
//    full-backup rate (dataCap / propW_full) and the largest incremental's
//    rate (its unique bytes / propW_incr) — backups must finish within their
//    propagation windows;
//  - capacity (backup device) = retCnt cycles of media plus one extra full
//    dataset copy, so that a failure during a new full backup never leaves
//    the system without a restorable image;
//  - no capacity on the source array (a PiT technique provides the
//    consistent image being backed up).
#pragma once

#include "core/technique.hpp"

namespace stordep {

enum class BackupStyle {
  kFullOnly,
  kCumulativeIncremental,
  kDifferentialIncremental,
};

[[nodiscard]] std::string toString(BackupStyle style);

class Backup final : public Technique {
 public:
  /// For kFullOnly pass a non-cyclic policy; for the incremental styles a
  /// cyclic policy whose primary windows are the full's and secondary
  /// windows the incrementals'. `transport` optionally names the
  /// interconnect the backup stream crosses (a shared SAN, or WAN links for
  /// remote disk-to-disk backup): it is charged the stream's bandwidth and
  /// constrains restores; null means a dedicated/enclosure path.
  Backup(std::string name, BackupStyle style, DevicePtr sourceArray,
         DevicePtr backupDevice, ProtectionPolicy policy,
         DevicePtr transport = nullptr);

  [[nodiscard]] BackupStyle style() const noexcept { return style_; }
  [[nodiscard]] const ProtectionPolicy* policy() const noexcept override {
    return &policy_;
  }
  [[nodiscard]] DevicePtr sourceArray() const noexcept { return source_; }
  [[nodiscard]] DevicePtr backupDevice() const noexcept { return device_; }
  [[nodiscard]] DevicePtr transport() const noexcept { return transport_; }

  /// Peak transfer rate across the cycle (full vs largest incremental).
  [[nodiscard]] Bandwidth transferRate(const WorkloadSpec& workload) const;

  /// Media consumed by one full cycle (full + incrementals).
  [[nodiscard]] Bytes cycleCapacity(const WorkloadSpec& workload) const;

  /// Storage: the backup device. Demands: the read stream on the source
  /// array, the write stream and media on the backup device, and the stream
  /// on the transport when one is named. Leg: the backup device into the
  /// primary (the source array when `primaryTarget` is null), over the
  /// transport.
  void appendRows(const WorkloadSpec& workload,
                  const DeviceModel* primaryTarget,
                  LevelRows& rows) const override;

  /// Worst-case restore payload: the full image plus the incrementals that
  /// must be replayed on top of it (largest cumulative, or all
  /// differentials). For partial-object restores (baseSize < dataCap) the
  /// incremental share scales proportionally.
  [[nodiscard]] Bytes restorePayload(const WorkloadSpec& workload,
                                     Bytes baseSize) const override;

 private:
  /// Unique bytes covered by the largest incremental in the cycle.
  [[nodiscard]] Bytes largestIncrementalBytes(
      const WorkloadSpec& workload) const;

  BackupStyle style_;
  DevicePtr source_;
  DevicePtr device_;
  DevicePtr transport_;
  ProtectionPolicy policy_;
};

}  // namespace stordep
