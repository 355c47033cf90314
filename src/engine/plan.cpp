#include "engine/plan.hpp"

#include <algorithm>

#include "core/propagation.hpp"

namespace stordep::engine {

namespace {

const std::string kNoDeviceName;

}  // namespace

void EvalPlan::recompile(const StorageDesign& design) {
  // The StorageDesign and PrimaryCopy constructors guarantee a primary
  // level with a non-null array.
  const DeviceModel* primaryArray = design.primary().array().get();

  // Copy-assigned, so the workload's name and curve reuse their capacity.
  const WorkloadSpec& workload = design.workload();
  workload_ = workload;
  business_ = design.business();
  hasFacility_ = design.facility().has_value();
  if (hasFacility_) {
    facilityLocation_ = design.facility()->location;
    facilityProvisioningTime_ = design.facility()->provisioningTime;
  } else {
    facilityLocation_ = Location{};
    facilityProvisioningTime_ = Duration::zero();
  }
  devices_.clear();
  levels_.clear();
  legs_.clear();
  storageIdx_.clear();
  contribLevel_.clear();
  contribBandwidth_.clear();

  // Per-thread scratch, reused across recompiles: every level's rows, the
  // level names by demand owner, and the outlay shares folded from them.
  struct Scratch {
    LevelRows rows;
    std::vector<std::string_view> names;
    std::vector<OutlayShare> outlays;
  };
  thread_local Scratch scratch;
  LevelRows& rows = scratch.rows;
  rows.clear();
  scratch.names.clear();

  // Distinct device rows, first-seen order: per level, its storage devices,
  // then its restore-leg endpoints/transports.
  auto addDevice = [&](const DeviceModel* d) -> std::int32_t {
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      if (devices_[i].device == d) return static_cast<std::int32_t>(i);
    }
    DeviceRow row;
    row.device = d;
    row.hasSpare = d->spec().spare.type != SpareType::kNone;
    row.spareProvisioningTime = d->spareProvisioningTime();
    devices_.push_back(row);
    return static_cast<std::int32_t>(devices_.size() - 1);
  };

  const int levelCount = design.levelCount();
  levels_.reserve(static_cast<std::size_t>(levelCount));
  for (int i = 0; i < levelCount; ++i) {
    const Technique& tech = design.level(i);
    LevelRow row;
    row.technique = design.levelPtr(i);

    const LevelRecoveryWindow window = levelRecoveryWindow(design, i);
    row.lag = window.lag;
    row.oldestAge = window.oldestAge;
    row.withinLoss = tech.policy() != nullptr ? tech.policy()->effectiveAccW()
                                              : Duration::zero();
    if (i > 0) {
      row.defaultPayload = tech.restorePayload(workload, workload.dataCap());
    }

    const std::size_t firstStorage = rows.storage.size();
    const std::size_t firstLeg = rows.legs.size();
    design.appendLevelRows(i, primaryArray, rows);
    scratch.names.emplace_back(tech.name());

    row.storageBegin = static_cast<std::uint32_t>(storageIdx_.size());
    for (std::size_t s = firstStorage; s < rows.storage.size(); ++s) {
      const DeviceModel* d = rows.storage[s];
      if (!d) {
        throw DesignError("design '" + design.name() + "': level '" +
                          tech.name() + "' has a null storage device");
      }
      storageIdx_.push_back(static_cast<std::uint32_t>(addDevice(d)));
    }
    row.storageEnd = static_cast<std::uint32_t>(storageIdx_.size());

    row.legBegin = static_cast<std::uint32_t>(legs_.size());
    for (std::size_t l = firstLeg; l < rows.legs.size(); ++l) {
      const RecoveryLeg& leg = rows.legs[l];
      // recoverFrom() stops at a leg with a missing endpoint; the legs
      // after it are never walked, so they get no rows.
      if (!leg.from || !leg.to) {
        row.endpointMissing = true;
        break;
      }
      LegRow lr;
      lr.from = addDevice(leg.from);
      lr.to = addDevice(leg.to);
      lr.originallyCrossSite =
          leg.from->location().site != leg.to->location().site;
      lr.serializedFix = leg.serializedFix;
      if (leg.via) {
        lr.via = addDevice(leg.via);
        lr.viaPhysical = leg.via->deliversPhysically();
        lr.viaTransit = leg.via->accessDelay();
      }
      legs_.push_back(lr);
    }
    row.legEnd = static_cast<std::uint32_t>(legs_.size());

    levels_.push_back(std::move(row));
  }

  // Flat per-device bandwidth-contribution table for the availableBw fold,
  // in the exact order the legacy fold adds them: levels outer, each
  // level's demand rows inner.
  for (DeviceRow& row : devices_) {
    row.contribBegin = static_cast<std::uint32_t>(contribLevel_.size());
    for (const DemandRow& d : rows.demands) {
      if (d.device != row.device) continue;
      contribLevel_.push_back(static_cast<std::int32_t>(d.owner));
      contribBandwidth_.push_back(d.bandwidth);
    }
    row.contribEnd = static_cast<std::uint32_t>(contribLevel_.size());
  }

  // Scenario-independent half of the evaluation, resolved once over the
  // rows in level order, the order the legacy evaluator folds.
  UtilizationFeasibility feasibility =
      computeUtilizationFeasibility(rows.demands);
  utilFeasible_ = feasibility.feasible;
  utilError_ = std::move(feasibility.firstError);
  computeOutlays(rows.demands, scratch.names, scratch.outlays);
  totalOutlays_ = Money::zero();
  for (const OutlayShare& o : scratch.outlays) totalOutlays_ += o.total();
}

std::shared_ptr<const EvalPlan> EvalPlan::compile(const StorageDesign& design) {
  // Recompiled in place, then copied: the copy sizes every table exactly,
  // and this thread's plan keeps its capacity for the next compile.
  thread_local EvalPlan plan;
  plan.recompile(design);
  return std::make_shared<const EvalPlan>(plan);
}

Bandwidth EvalPlan::availableBw(std::int32_t devIdx, Bytes payload, bool fresh,
                                const bool* lvlDestroyed) const {
  const DeviceRow& row = devices_[static_cast<std::size_t>(devIdx)];
  const Bandwidth base = row.device->transferBandwidth(payload);
  if (fresh) return base;
  Bandwidth demands = Bandwidth::zero();
  for (std::uint32_t c = row.contribBegin; c < row.contribEnd; ++c) {
    const std::int32_t lvl = contribLevel_[c];
    if (lvlDestroyed[lvl]) continue;
    if (lvl > 0 && lvlDestroyed[lvl - 1]) continue;
    demands += contribBandwidth_[c];
  }
  if (demands >= base) return Bandwidth::zero();
  return base - demands;
}

std::vector<char> EvalPlan::destroyedLevels(
    const FailureScenario& scenario) const {
  std::vector<char> out(levels_.size(), 0);
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    bool all = true;
    for (std::uint32_t s = levels_[i].storageBegin; s < levels_[i].storageEnd;
         ++s) {
      const DeviceModel& device = *devices_[storageIdx_[s]].device;
      if (!scenario.destroys(device.name(), device.location())) {
        all = false;
        break;
      }
    }
    out[i] = all ? 1 : 0;
  }
  return out;
}

EvalPlan::ResolvedRecovery EvalPlan::resolveRecovery(
    const FailureScenario& scenario, int sourceLevel) const {
  ResolvedRecovery out;
  if (sourceLevel <= 0 || sourceLevel >= levelCount()) return out;
  const LevelRow& src = levels_[static_cast<std::size_t>(sourceLevel)];
  if (src.legBegin == src.legEnd) return out;
  out.hasLegs = true;

  const std::size_t nDev = devices_.size();
  std::vector<char> devDestroyed(nDev, 0);
  for (std::size_t i = 0; i < nDev; ++i) {
    const DeviceModel& device = *devices_[i].device;
    devDestroyed[i] =
        scenario.destroys(device.name(), device.location()) ? 1 : 0;
  }
  const std::vector<char> lvlDestroyed = destroyedLevels(scenario);

  // The demand half of availableBandwidth(), in the legacy fold order.
  const auto demandFold = [&](std::int32_t devIdx) {
    const DeviceRow& row = devices_[static_cast<std::size_t>(devIdx)];
    Bandwidth demands = Bandwidth::zero();
    for (std::uint32_t c = row.contribBegin; c < row.contribEnd; ++c) {
      const std::int32_t lvl = contribLevel_[c];
      if (lvlDestroyed[static_cast<std::size_t>(lvl)]) continue;
      if (lvl > 0 && lvlDestroyed[static_cast<std::size_t>(lvl - 1)]) continue;
      demands += contribBandwidth_[c];
    }
    return demands;
  };

  // resolveNode (recovery.cpp), minus the diagnostics.
  struct Resolved {
    const Location* loc;
    Duration parFix;
    bool fresh;
    bool viable;
  };
  const auto resolve = [&](std::int32_t idx) -> Resolved {
    const DeviceRow& row = devices_[static_cast<std::size_t>(idx)];
    const Location* loc = &row.device->location();
    if (!devDestroyed[static_cast<std::size_t>(idx)]) {
      return {loc, Duration::zero(), false, true};
    }
    if (scenario.scope == FailureScope::kArray && row.hasSpare) {
      return {loc, row.spareProvisioningTime, true, true};
    }
    if (hasFacility_ && !scenario.destroys(kNoDeviceName, facilityLocation_)) {
      return {&facilityLocation_, facilityProvisioningTime_, true, true};
    }
    return {loc, Duration::zero(), false, false};
  };

  out.legs.reserve(src.legEnd - src.legBegin);
  // Reaching the missing endpoint loses the path like an unviable leg.
  out.pathLost = src.endpointMissing;
  for (std::uint32_t l = src.legBegin; l < src.legEnd; ++l) {
    const LegRow& leg = legs_[l];
    const Resolved from = resolve(leg.from);
    const Resolved to = resolve(leg.to);
    if (!from.viable || !to.viable) {
      // recoverFrom() returns unrecoverable at the first unviable leg; the
      // legs after it are never walked.
      out.pathLost = true;
      break;
    }
    ResolvedLeg r;
    r.from = devices_[static_cast<std::size_t>(leg.from)].device;
    r.to = devices_[static_cast<std::size_t>(leg.to)].device;
    const bool resolvedSameSite = from.loc->site == to.loc->site;
    const bool useVia =
        leg.via >= 0 && !(leg.originallyCrossSite && resolvedSameSite);
    r.physical = useVia && leg.viaPhysical;
    r.transit = useVia ? leg.viaTransit : Duration::zero();
    r.serFix = r.physical ? Duration::zero() : leg.serializedFix;
    r.fromFresh = from.fresh;
    r.toFresh = to.fresh;
    r.fromParFix = from.parFix;
    r.toParFix = to.parFix;
    if (!r.physical) {
      if (!from.fresh) r.fromDemands = demandFold(leg.from);
      if (useVia) {
        r.via = devices_[static_cast<std::size_t>(leg.via)].device;
        r.viaDemands = demandFold(leg.via);
      }
      if (!to.fresh) r.toDemands = demandFold(leg.to);
    }
    out.legs.push_back(r);
  }
  return out;
}

Duration EvalPlan::runResolvedLegs(const ResolvedRecovery& path,
                                   Bytes payload) {
  if (path.pathLost || !path.hasLegs) return Duration::infinite();
  // availableBandwidth() with the demand fold precomputed: same subtraction,
  // same saturation comparison, same operand order.
  const auto remainingBw = [&](const DeviceModel& device, bool fresh,
                               Bandwidth demands) {
    const Bandwidth base = device.transferBandwidth(payload);
    if (fresh) return base;
    if (demands >= base) return Bandwidth::zero();
    return base - demands;
  };
  Duration clock = Duration::zero();
  for (const ResolvedLeg& leg : path.legs) {
    const Duration sendReady = std::max(clock, leg.fromParFix);
    Duration drainTime = Duration::zero();
    Duration applyTime = Duration::zero();
    if (!leg.physical) {
      Bandwidth drainRate = remainingBw(*leg.from, leg.fromFresh,
                                        leg.fromDemands);
      if (leg.via != nullptr) {
        drainRate =
            std::min(drainRate, remainingBw(*leg.via, false, leg.viaDemands));
      }
      drainTime = drainRate.bytesPerSec() > 0 ? payload / drainRate
                                              : Duration::infinite();
      const Bandwidth destRate = remainingBw(*leg.to, leg.toFresh,
                                             leg.toDemands);
      applyTime = destRate.bytesPerSec() > 0 ? payload / destRate
                                             : Duration::infinite();
    }
    const Duration drainDone = sendReady + leg.transit + leg.serFix + drainTime;
    const Duration ready = std::max(drainDone, leg.toParFix) + applyTime;
    clock = ready;
    if (!clock.isFinite()) break;
  }
  return clock;
}

EvaluationMetrics EvalPlan::evaluate(const FailureScenario& scenario,
                                     BumpArena& arena) const {
  BumpArena::Frame frame(arena);
  EvaluationMetrics m;
  m.utilizationFeasible = utilFeasible_;
  m.totalOutlays = totalOutlays_;

  const std::size_t nDev = devices_.size();
  bool* devDestroyed = arena.array<bool>(nDev);
  for (std::size_t i = 0; i < nDev; ++i) {
    const DeviceModel& device = *devices_[i].device;
    devDestroyed[i] = scenario.destroys(device.name(), device.location());
  }

  const std::size_t nLvl = levels_.size();
  bool* lvlDestroyed = arena.array<bool>(nLvl);
  for (std::size_t i = 0; i < nLvl; ++i) {
    bool all = true;
    for (std::uint32_t s = levels_[i].storageBegin; s < levels_[i].storageEnd;
         ++s) {
      if (!devDestroyed[storageIdx_[s]]) {
        all = false;
        break;
      }
    }
    lvlDestroyed[i] = all;
  }

  // Recovery-source choice: assessLevel + chooseRecoverySource, branch for
  // branch (data_loss.cpp). Levels whose assessed loss is infinite
  // (destroyed, corrupted primary, or target beyond retention) are skipped;
  // strictly smaller loss wins, ties keep the lower level.
  const Duration targetAge = scenario.recoveryTargetAge;
  int bestLevel = -1;
  Duration bestLoss = Duration::infinite();
  for (std::size_t i = 0; i < nLvl; ++i) {
    if (lvlDestroyed[i]) continue;
    if (i == 0 && scenario.scope == FailureScope::kDataObject) continue;
    const LevelRow& row = levels_[i];
    Duration loss;
    if (targetAge < row.lag) {
      loss = row.lag - targetAge;
    } else if (targetAge <= row.oldestAge) {
      loss = row.withinLoss;
    } else {
      continue;
    }
    if (!loss.isFinite()) continue;
    if (bestLevel < 0 || loss < bestLoss) {
      bestLevel = static_cast<int>(i);
      bestLoss = loss;
    }
  }

  // Defaults already mirror the no-source case (computeRecovery with no
  // surviving RP): unrecoverable, sourceLevel -1, infinite RT/DL.
  if (bestLevel >= 0) {
    m.sourceLevel = bestLevel;
    m.dataLoss = bestLoss;
    if (bestLevel == 0) {
      // Recovering from the primary itself: nothing to restore.
      m.recoverable = true;
      m.recoveryTime = Duration::zero();
      m.payload = Bytes{0};
    } else {
      const LevelRow& src = levels_[static_cast<std::size_t>(bestLevel)];
      m.payload = scenario.recoverySize
                      ? src.technique->restorePayload(*workload_,
                                                      *scenario.recoverySize)
                      : src.defaultPayload;
      if (src.legBegin == src.legEnd) {
        // "source level has no restore path" (or its first leg has a
        // missing endpoint): unrecoverable, RT stays infinite, DL keeps the
        // source assessment.
      } else {
        // Leg walk: recoverFrom (recovery.cpp), minus the reporting.
        struct Resolved {
          const Location* loc;
          Duration parFix;
          bool fresh;
          bool viable;
        };
        auto resolve = [&](std::int32_t idx) -> Resolved {
          const DeviceRow& row = devices_[static_cast<std::size_t>(idx)];
          const Location* loc = &row.device->location();
          if (!devDestroyed[idx]) {
            return {loc, Duration::zero(), false, true};
          }
          if (scenario.scope == FailureScope::kArray && row.hasSpare) {
            return {loc, row.spareProvisioningTime, true, true};
          }
          if (hasFacility_ &&
              !scenario.destroys(kNoDeviceName, facilityLocation_)) {
            return {&facilityLocation_, facilityProvisioningTime_, true, true};
          }
          return {loc, Duration::zero(), false, false};
        };

        Duration clock = Duration::zero();
        bool pathLost = false;
        for (std::uint32_t l = src.legBegin; l < src.legEnd; ++l) {
          const LegRow& leg = legs_[l];
          const Resolved from = resolve(leg.from);
          const Resolved to = resolve(leg.to);
          if (!from.viable || !to.viable) {
            // An RP survives but there is nowhere to restore it.
            m.dataLoss = Duration::infinite();
            m.recoveryTime = Duration::infinite();
            m.recoverable = false;
            pathLost = true;
            break;
          }
          const bool resolvedSameSite = from.loc->site == to.loc->site;
          const bool useVia =
              leg.via >= 0 && !(leg.originallyCrossSite && resolvedSameSite);
          const bool physical = useVia && leg.viaPhysical;
          const Duration transit = useVia ? leg.viaTransit : Duration::zero();

          const Duration sendReady = std::max(clock, from.parFix);
          Duration drainTime = Duration::zero();
          Duration applyTime = Duration::zero();
          if (!physical) {
            Bandwidth drainRate =
                availableBw(leg.from, m.payload, from.fresh, lvlDestroyed);
            if (useVia) {
              drainRate = std::min(
                  drainRate,
                  availableBw(leg.via, m.payload, false, lvlDestroyed));
            }
            drainTime = drainRate.bytesPerSec() > 0 ? m.payload / drainRate
                                                    : Duration::infinite();
            const Bandwidth destRate =
                availableBw(leg.to, m.payload, to.fresh, lvlDestroyed);
            applyTime = destRate.bytesPerSec() > 0 ? m.payload / destRate
                                                   : Duration::infinite();
          }
          const Duration serFix =
              physical ? Duration::zero() : leg.serializedFix;
          const Duration drainDone = sendReady + transit + serFix + drainTime;
          const Duration ready = std::max(drainDone, to.parFix) + applyTime;
          clock = ready;
          if (!clock.isFinite()) break;
        }
        // A walk that reaches the leg with a missing endpoint keeps the
        // defaults: recoverFrom() returns there unrecoverable, RT infinite,
        // DL kept from the source assessment.
        const bool reachedMissing = src.endpointMissing && clock.isFinite();
        if (!pathLost && !reachedMissing) {
          m.recoverable = clock.isFinite();
          m.recoveryTime = clock;
        }
      }
    }
  }

  // computeCosts + meetsObjectives (cost.cpp, business.hpp).
  m.outagePenalty = business_.outagePenalty(m.recoveryTime);
  m.lossPenalty = business_.lossPenalty(m.dataLoss);
  m.totalPenalties = m.outagePenalty + m.lossPenalty;
  m.totalCost = m.totalOutlays + m.totalPenalties;
  m.meetsObjectives = business_.meetsObjectives(m.recoveryTime, m.dataLoss);
  return m;
}

}  // namespace stordep::engine
