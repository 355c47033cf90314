// hierarchy.hpp — a complete storage system design: the RP hierarchy.
//
// A StorageDesign composes the workload, the business requirements, and an
// ordered list of techniques forming the RP propagation hierarchy: level 0 is
// always the primary copy; levels 1..n retain progressively older, more
// numerous RPs on progressively slower/more distant hardware (paper Sec 3.2,
// Figure 1). An optional shared recovery facility describes where replacement
// resources come from when a whole site is lost.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/business.hpp"
#include "core/failure.hpp"
#include "core/technique.hpp"
#include "core/techniques/foreground.hpp"
#include "core/workload.hpp"

namespace stordep {

/// A shared recovery facility (e.g., a commercial hosting service): after a
/// disaster that destroys a device *and* its dedicated spare, replacement
/// resources are provisioned here.
struct RecoveryFacilitySpec {
  Location location;
  /// Time to drain/scrub/reconfigure shared resources (case study: 9 hours).
  Duration provisioningTime;
  /// Fraction of dedicated-resource cost paid for the shared resources
  /// (case study: 20%).
  double costDiscount = 1.0;
};

class DesignError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StorageDesign {
 public:
  /// `levels[0]` must be a PrimaryCopy; later entries are ordered by
  /// increasing RP age/capacity (the propagation hierarchy).
  StorageDesign(std::string name, WorkloadSpec workload,
                BusinessRequirements business, std::vector<TechniquePtr> levels,
                std::optional<RecoveryFacilitySpec> facility = std::nullopt);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const WorkloadSpec& workload() const noexcept {
    return workload_;
  }
  [[nodiscard]] const BusinessRequirements& business() const noexcept {
    return business_;
  }
  [[nodiscard]] int levelCount() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] const Technique& level(int i) const;
  [[nodiscard]] TechniquePtr levelPtr(int i) const;
  [[nodiscard]] const PrimaryCopy& primary() const;
  [[nodiscard]] const std::optional<RecoveryFacilitySpec>& facility()
      const noexcept {
    return facility_;
  }

  /// Every distinct device any level's rows reference (with a null restore
  /// target), in first-seen order: per level, storage, then demands, then
  /// legs. Each pointer shares ownership with the level that first names it.
  [[nodiscard]] std::vector<DevicePtr> devices() const;

  /// Appends level `i`'s rows (Technique::appendRows) to `rows` and sets the
  /// owner of each demand row it appended to `i`.
  void appendLevelRows(int i, const DeviceModel* primaryTarget,
                       LevelRows& rows) const;

  /// Every level's demand rows, in level order, each owned by its level.
  [[nodiscard]] std::vector<DemandRow> allDemands() const;

  /// Each level's technique name, indexed like a demand row's owner.
  [[nodiscard]] std::vector<std::string_view> levelNames() const;

  /// Soft violations of the paper's inter-level conventions (Sec 3.2.1):
  ///   accW(i+1) >= cyclePer(i)   slower levels take less frequent RPs
  ///   retCnt(i+1) >= retCnt(i)   slower levels retain at least as many
  ///   holdW(i) <= retW(i+1)      holds don't outlive upstream retention
  /// plus each level's own policy conventions.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  std::string name_;
  WorkloadSpec workload_;
  BusinessRequirements business_;
  std::vector<TechniquePtr> levels_;
  std::optional<RecoveryFacilitySpec> facility_;
};

}  // namespace stordep
