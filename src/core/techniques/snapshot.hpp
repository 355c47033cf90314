// snapshot.hpp — virtual (copy-on-write) point-in-time copies.
//
// Models the paper's update-in-place virtual-snapshot variant: before a
// foreground write modifies a block, the old value is copied to a new
// location, costing one additional read and one additional write per
// foreground write. Unmodified data shares physical storage with the primary
// copy, so each retained snapshot only needs capacity for the unique updates
// accumulated during its window — dramatically cheaper in capacity than split
// mirrors (Table 7's "snapshot" what-if).
#pragma once

#include "core/technique.hpp"

namespace stordep {

class VirtualSnapshot final : public Technique {
 public:
  /// Snapshots live on the primary `array` itself.
  VirtualSnapshot(std::string name, DevicePtr array, ProtectionPolicy policy);

  [[nodiscard]] const ProtectionPolicy* policy() const noexcept override {
    return &policy_;
  }
  [[nodiscard]] DevicePtr array() const noexcept { return array_; }

  /// Storage: the array. Array demand: bandwidth 2 x avgUpdateR (COW read
  /// + write per foreground write); capacity retCnt x uniqueBytes(accW)
  /// (each retained snapshot stores one window's unique updates). Leg: an
  /// intra-array copy of the requested data.
  void appendRows(const WorkloadSpec& workload,
                  const DeviceModel* primaryTarget,
                  LevelRows& rows) const override;

 private:
  DevicePtr array_;
  ProtectionPolicy policy_;
};

}  // namespace stordep
