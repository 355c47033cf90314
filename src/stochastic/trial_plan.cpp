#include "stochastic/trial_plan.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

namespace stordep::stochastic {
namespace {

/// One draw from a duration process, in seconds — the same expressions, in
/// the same order, as the legacy loop's sampleSecs (evaluator.cpp).
[[nodiscard]] double sampleSecs(const ProcessSpec& process, sim::Rng& rng) {
  if (!process.mean.isFinite()) {
    return std::numeric_limits<double>::infinity();
  }
  switch (process.kind) {
    case ProcessKind::kExponential:
      return rng.exponential(process.mean.secs());
    case ProcessKind::kWeibull:
      return rng.weibull(process.mean.secs(), process.shape);
    case ProcessKind::kFixed:
      return process.mean.secs();
  }
  return std::numeric_limits<double>::infinity();
}

/// Runaway guard for degenerate processes; must match the legacy loop.
constexpr int kMaxArrivalsPerProcess = 100'000;

}  // namespace

TrialPlan::TrialPlan(const sim::RpLifecycleSimulator& simulator)
    : table_(simulator),
      workload_(simulator.design().workload()),
      business_(simulator.design().business()) {}

std::shared_ptr<const TrialPlan> TrialPlan::compile(
    const sim::RpLifecycleSimulator& simulator,
    const ReliabilitySpec& reliability) {
  const StorageDesign& design = simulator.design();
  std::shared_ptr<TrialPlan> plan(new TrialPlan(simulator));
  plan->evalPlan_ = engine::EvalPlan::compile(design);
  plan->levelCount_ = design.levelCount();
  plan->lo_ = simulator.warmupTime();
  plan->hi_ = simulator.horizon();
  plan->dataCapBytes_ = design.workload().dataCap().bytes();

  plan->stepUnique_.resize(static_cast<std::size_t>(plan->levelCount_),
                           Bytes{0});
  for (int level = 1; level < plan->levelCount_; ++level) {
    const auto& t = plan->table_;
    if (t.isBackup(level) && !t.fullOnly(level) && !t.cumulative(level)) {
      plan->stepUnique_[static_cast<std::size_t>(level)] =
          design.workload().uniqueBytes(Duration{t.stepSecs(level)});
    }
  }

  // Mission failure sources, pre-enumerated exactly as the legacy loop
  // builds them: a scenario row per storage device in resolveReliability()
  // order, plus a site-disaster row per distinct site (first-seen order).
  const auto resolved = resolveReliability(design, reliability);
  plan->missionReady_ = !resolved.empty();
  plan->windowSecs_ = reliability.missionWindow.secs();
  plan->shockRate_ = reliability.siteShockAnnualRate;
  plan->shockMeanSecs_ = plan->shockRate_ > 0
                             ? Duration::kYear / plan->shockRate_
                             : std::numeric_limits<double>::infinity();
  plan->deviceRel_.reserve(resolved.size());
  plan->deviceRows_.reserve(resolved.size());
  std::vector<std::string> sites;
  for (const auto& [device, rel] : resolved) {
    plan->deviceRel_.push_back({rel.failure, rel.repair});
    plan->deviceRows_.push_back(
        plan->compileScenario(FailureScenario::arrayFailure(device->name())));
    const std::string& site = device->location().site;
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      sites.push_back(site);
    }
  }
  plan->siteRows_.reserve(sites.size());
  for (const std::string& site : sites) {
    plan->siteRows_.push_back(
        plan->compileScenario(FailureScenario::siteDisaster(site)));
  }
  return plan;
}

TrialPlan::ScenarioRow TrialPlan::compileScenario(
    const FailureScenario& scenario) const {
  ScenarioRow row;
  row.scope = scenario.scope;
  row.targetAgeSecs = scenario.recoveryTargetAge.secs();
  row.targetAgeZero = scenario.recoveryTargetAge == Duration::zero();
  row.baseSize = scenario.recoverySize.value_or(workload_.dataCap());
  row.payloadScale = std::min(1.0, row.baseSize / workload_.dataCap());
  row.destroyed = evalPlan_->destroyedLevels(scenario);
  row.recovery.resize(static_cast<std::size_t>(levelCount_));
  for (int level = 1; level < levelCount_; ++level) {
    row.recovery[static_cast<std::size_t>(level)] =
        evalPlan_->resolveRecovery(scenario, level);
  }
  return row;
}

void TrialPlan::replayInstant(const ScenarioRow& row, double failTime,
                              ConditionalSample& out) const {
  out.recoverable = false;
  out.rt = 0;
  out.dl = 0;
  out.payload = 0;
  out.penalty = 0;

  const double targetTime = failTime - row.targetAgeSecs;

  // observedRecovery's source choice: best usable RP across levels —
  // minimal loss, ties to the lower level.
  int bestLevel = -1;
  sim::TimelineTable::Hit bestHit;
  Duration bestLoss = Duration::infinite();
  for (int level = 1; level < levelCount_; ++level) {
    if (row.destroyed[static_cast<std::size_t>(level)]) continue;
    const auto hit = table_.bestUsable(level, failTime, targetTime);
    if (!hit) continue;
    const Duration loss{targetTime - hit->dataTime};
    if (loss < bestLoss) {
      bestLoss = loss;
      bestLevel = level;
      bestHit = *hit;
    }
  }

  // observedDataLoss, independently of the recovery choice (the live
  // primary serves "restore to now" even though it is never a source).
  Duration dl = Duration::infinite();
  for (int level = 0; level < levelCount_; ++level) {
    if (row.destroyed[static_cast<std::size_t>(level)]) continue;
    if (level == 0) {
      if (row.scope != FailureScope::kDataObject && row.targetAgeZero) {
        dl = std::min(dl, Duration::zero());
      }
      continue;
    }
    const auto hit = table_.bestVisible(level, failTime, targetTime);
    if (!hit) continue;
    dl = std::min(dl, Duration{targetTime - hit->dataTime});
  }

  if (bestLevel < 0) return;

  // restorePayloadFor: a full (or non-backup, or degenerate chain) restores
  // the base size; an incremental adds its replayed changes.
  Bytes payload = row.baseSize;
  if (table_.isBackup(bestLevel) && !table_.fullOnly(bestLevel) &&
      !bestHit.isFull) {
    if (const auto fullData =
            table_.baseFullDataTime(bestLevel, bestHit, failTime)) {
      const Duration span{bestHit.dataTime - *fullData};
      Bytes incrBytes{0};
      if (table_.cumulative(bestLevel)) {
        incrBytes = workload_.uniqueBytes(span);
      } else {
        const double stepSecs = table_.stepSecs(bestLevel);
        const double count = stepSecs > 0 ? span.secs() / stepSecs : 0.0;
        incrBytes = stepUnique_[static_cast<std::size_t>(bestLevel)] * count;
      }
      payload = row.baseSize + incrBytes * row.payloadScale;
    }
  }

  const Duration rt = engine::EvalPlan::runResolvedLegs(
      row.recovery[static_cast<std::size_t>(bestLevel)], payload);
  if (!rt.isFinite() || !dl.isFinite()) return;
  out.recoverable = true;
  out.rt = rt.secs();
  out.dl = dl.secs();
  out.payload = payload.bytes();
  out.penalty =
      (business_.outagePenalty(rt) + business_.lossPenalty(dl)).usd();
}

void TrialPlan::conditionalTrial(const ScenarioRow& row, sim::Rng& rng,
                                 ConditionalSample& out) const {
  const double failTime = rng.uniform(lo_, hi_);
  replayInstant(row, failTime, out);
}

void TrialPlan::missionTrial(sim::Rng& rng, engine::BumpArena& arena,
                             MissionSample& out) const {
  out.events = 0;
  out.unrecoverable = 0;
  out.penalty = 0;
  out.lossBytes = 0;
  out.downtimeSecs = 0;
  out.eventRtDl.clear();

  engine::BumpArena::Frame frame(arena);
  struct Event {
    double time;
    std::int32_t kind;  ///< 0 = device failure, 1 = site shock
    std::int32_t index;
  };
  std::size_t cap = 64;
  Event* events = arena.array<Event>(cap);
  std::size_t count = 0;
  const auto push = [&](double time, std::int32_t kind, std::int32_t index) {
    if (count == cap) {
      Event* grown = arena.array<Event>(cap * 2);
      std::memcpy(grown, events, count * sizeof(Event));
      events = grown;
      cap *= 2;
    }
    events[count++] = Event{time, kind, index};
  };

  // Renewal process per device, in the legacy draw order: the repair draw
  // precedes the next failure draw within each gap.
  for (std::size_t d = 0; d < deviceRel_.size(); ++d) {
    const DeviceProcess& rel = deviceRel_[d];
    double time = sampleSecs(rel.failure, rng);
    int arrivals = 0;
    while (time < windowSecs_ && arrivals < kMaxArrivalsPerProcess) {
      push(time, 0, static_cast<std::int32_t>(d));
      ++arrivals;
      const double repairDraw = sampleSecs(rel.repair, rng);
      const double failureDraw = sampleSecs(rel.failure, rng);
      const double gap = repairDraw + failureDraw;
      if (!(gap > 0)) break;
      time += gap;
    }
  }
  // Marshall–Olkin-style common shocks: a Poisson stream per site.
  if (shockRate_ > 0) {
    for (std::size_t s = 0; s < siteRows_.size(); ++s) {
      double time = rng.exponential(shockMeanSecs_);
      int arrivals = 0;
      while (time < windowSecs_ && arrivals < kMaxArrivalsPerProcess) {
        push(time, 1, static_cast<std::int32_t>(s));
        ++arrivals;
        time += rng.exponential(shockMeanSecs_);
      }
    }
  }
  // Same comparator as the legacy sort; it is a strict total order on any
  // generated set (same-source events are strictly increasing in time), so
  // the sorted sequence is unique — container differences cannot matter.
  std::sort(events, events + count, [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.index < b.index;
  });

  out.eventRtDl.reserve(count);
  ConditionalSample sample;
  for (std::size_t e = 0; e < count; ++e) {
    const ScenarioRow& row =
        events[e].kind == 0
            ? deviceRows_[static_cast<std::size_t>(events[e].index)]
            : siteRows_[static_cast<std::size_t>(events[e].index)];
    const double failTime = rng.uniform(lo_, hi_);
    replayInstant(row, failTime, sample);
    ++out.events;
    if (!sample.recoverable) {
      ++out.unrecoverable;
      out.lossBytes += dataCapBytes_;
      continue;
    }
    out.eventRtDl.emplace_back(sample.rt, sample.dl);
    out.penalty += sample.penalty;
    out.lossBytes += workload_.uniqueBytes(Duration{sample.dl}).bytes();
    out.downtimeSecs += sample.rt;
  }
}

}  // namespace stordep::stochastic
