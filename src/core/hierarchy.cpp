#include "core/hierarchy.hpp"

namespace stordep {

StorageDesign::StorageDesign(std::string name, WorkloadSpec workload,
                             BusinessRequirements business,
                             std::vector<TechniquePtr> levels,
                             std::optional<RecoveryFacilitySpec> facility)
    : name_(std::move(name)),
      workload_(std::move(workload)),
      business_(business),
      levels_(std::move(levels)),
      facility_(std::move(facility)) {
  if (levels_.empty()) {
    throw DesignError("design '" + name_ + "': needs at least the primary copy");
  }
  for (const auto& level : levels_) {
    if (!level) throw DesignError("design '" + name_ + "': null level");
  }
  if (levels_[0]->kind() != TechniqueKind::kPrimaryCopy) {
    throw DesignError("design '" + name_ +
                      "': level 0 must be the primary copy");
  }
  for (size_t i = 1; i < levels_.size(); ++i) {
    if (levels_[i]->kind() == TechniqueKind::kPrimaryCopy) {
      throw DesignError("design '" + name_ +
                        "': only level 0 may be the primary copy");
    }
    if (levels_[i]->policy() == nullptr) {
      throw DesignError("design '" + name_ + "': level '" +
                        levels_[i]->name() + "' has no policy");
    }
  }
  if (facility_ && facility_->costDiscount < 0) {
    throw DesignError("design '" + name_ +
                      "': facility cost discount must be >= 0");
  }
}

const Technique& StorageDesign::level(int i) const {
  if (i < 0 || i >= levelCount()) {
    throw DesignError("design '" + name_ + "': no level " + std::to_string(i));
  }
  return *levels_[static_cast<size_t>(i)];
}

TechniquePtr StorageDesign::levelPtr(int i) const {
  if (i < 0 || i >= levelCount()) {
    throw DesignError("design '" + name_ + "': no level " + std::to_string(i));
  }
  return levels_[static_cast<size_t>(i)];
}

const PrimaryCopy& StorageDesign::primary() const {
  return static_cast<const PrimaryCopy&>(*levels_[0]);
}

std::vector<DevicePtr> StorageDesign::devices() const {
  std::vector<DevicePtr> out;
  LevelRows rows;
  for (const TechniquePtr& level : levels_) {
    rows.clear();
    level->appendRows(workload_, nullptr, rows);
    auto add = [&](const DeviceModel* d) {
      if (d == nullptr) return;
      for (const DevicePtr& seen : out) {
        if (seen.get() == d) return;
      }
      // Aliasing: the technique owns `d` (Technique's lifetime rule).
      out.emplace_back(level, d);
    };
    for (const DeviceModel* d : rows.storage) add(d);
    for (const DemandRow& demand : rows.demands) add(demand.device);
    for (const RecoveryLeg& leg : rows.legs) {
      add(leg.from);
      add(leg.to);
      add(leg.via);
    }
  }
  return out;
}

void StorageDesign::appendLevelRows(int i, const DeviceModel* primaryTarget,
                                    LevelRows& rows) const {
  const std::size_t first = rows.demands.size();
  level(i).appendRows(workload_, primaryTarget, rows);
  for (std::size_t d = first; d < rows.demands.size(); ++d) {
    rows.demands[d].owner = static_cast<std::uint32_t>(i);
  }
}

std::vector<DemandRow> StorageDesign::allDemands() const {
  LevelRows rows;
  for (int i = 0; i < levelCount(); ++i) appendLevelRows(i, nullptr, rows);
  return std::move(rows.demands);
}

std::vector<std::string_view> StorageDesign::levelNames() const {
  std::vector<std::string_view> out;
  out.reserve(levels_.size());
  for (const TechniquePtr& level : levels_) out.emplace_back(level->name());
  return out;
}

std::vector<std::string> StorageDesign::validate() const {
  std::vector<std::string> out;
  for (size_t i = 1; i < levels_.size(); ++i) {
    const auto& tech = *levels_[i];
    const ProtectionPolicy& pol = *tech.policy();
    for (auto& v : pol.conventionViolations()) {
      out.push_back("level " + std::to_string(i) + " (" + tech.name() +
                    "): " + v);
    }
    if (i + 1 < levels_.size()) {
      const ProtectionPolicy& next = *levels_[i + 1]->policy();
      if (next.primaryWindows().accW < pol.cyclePeriod()) {
        out.push_back("level " + std::to_string(i + 1) + " (" +
                      levels_[i + 1]->name() + "): accW " +
                      toString(next.primaryWindows().accW) +
                      " is shorter than level " + std::to_string(i) +
                      "'s cycle period " + toString(pol.cyclePeriod()) +
                      " — slower levels should take less frequent RPs");
      }
      if (next.retentionCount() < pol.retentionCount()) {
        out.push_back("level " + std::to_string(i + 1) + " (" +
                      levels_[i + 1]->name() + "): retCnt " +
                      std::to_string(next.retentionCount()) +
                      " is below level " + std::to_string(i) + "'s " +
                      std::to_string(pol.retentionCount()));
      }
      if (pol.holdW() > next.retentionWindow() &&
          next.retentionWindow().secs() > 0) {
        out.push_back("level " + std::to_string(i) + " (" + tech.name() +
                      "): holdW " + toString(pol.holdW()) +
                      " exceeds the next level's retention window " +
                      toString(next.retentionWindow()));
      }
    }
  }
  return out;
}

}  // namespace stordep
