// foreground.hpp — level 0: the primary copy and its foreground workload.
//
// The primary copy is not a protection technique, but it occupies the same
// slot in the hierarchy: it "retains" exactly the current data, places the
// foreground access bandwidth and the dataset capacity on the primary array,
// and is the destination of every recovery.
#pragma once

#include "core/technique.hpp"

namespace stordep {

class PrimaryCopy final : public Technique {
 public:
  explicit PrimaryCopy(DevicePtr array);

  [[nodiscard]] DevicePtr array() const noexcept { return array_; }

  /// Storage: the array. Demand: the workload's full access rate (reads +
  /// writes) and the dataset capacity, marked as the array's primary
  /// technique — it is charged the array's fixed costs (paper Sec 3.3.5).
  /// No legs: the primary copy is never a recovery source (it is what gets
  /// rebuilt).
  void appendRows(const WorkloadSpec& workload,
                  const DeviceModel* primaryTarget,
                  LevelRows& rows) const override;

 private:
  DevicePtr array_;
};

}  // namespace stordep
