// split_mirror.hpp — split-mirror point-in-time copies.
//
// A circular buffer of full mirrors is maintained on the primary array
// (paper Sec 3.2.3): retCnt mirrors are accessible RPs and one extra is
// always being resilvered (brought up to date), for retCnt+1 full copies.
// When a mirror becomes eligible for resilvering it is retCnt+1 accumulation
// windows stale, so the system must apply all unique updates from that range,
// reading the new values from the primary copy and writing them to the
// mirror — both demands land on the same array.
#pragma once

#include "core/technique.hpp"

namespace stordep {

class SplitMirror final : public Technique {
 public:
  SplitMirror(std::string name, DevicePtr array, ProtectionPolicy policy);

  [[nodiscard]] const ProtectionPolicy* policy() const noexcept override {
    return &policy_;
  }
  [[nodiscard]] DevicePtr array() const noexcept { return array_; }

  /// Total mirrors maintained: retCnt accessible + 1 resilvering.
  [[nodiscard]] int mirrorCount() const noexcept {
    return policy_.retentionCount() + 1;
  }

  /// Storage: the array. Array demand: capacity (retCnt+1) x dataCap;
  /// bandwidth 2 x (retCnt+1) x batchUpdR((retCnt+1) x accW) — the
  /// resilvering mirror catches up on retCnt+1 windows of unique updates
  /// within one window, read from the primary and written to the mirror.
  /// Leg: an intra-array copy.
  void appendRows(const WorkloadSpec& workload,
                  const DeviceModel* primaryTarget,
                  LevelRows& rows) const override;

 private:
  DevicePtr array_;
  ProtectionPolicy policy_;
};

}  // namespace stordep
