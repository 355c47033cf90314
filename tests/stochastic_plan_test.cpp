// Tests for the compiled stochastic TrialPlan: bit-identity with the legacy
// trial loop across thread counts (conditional and mission sampling), arena
// reuse across evaluations, and a hand-written design whose restore leg has
// no endpoints. Sample comparisons are field-wise — never whole-struct
// memcmp, which would compare padding bytes.
#include "stochastic/trial_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "core/reliability.hpp"
#include "devices/catalog.hpp"
#include "engine/batch.hpp"
#include "stochastic/evaluator.hpp"

namespace stordep::stochastic {
namespace {

namespace cs = casestudy;

void expectBitSame(double a, double b, const char* what, std::size_t i) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << what << " differs at trial " << i;
}

void expectSameConditional(const TrialTrace& got, const TrialTrace& want) {
  ASSERT_EQ(got.conditional.size(), want.conditional.size());
  for (std::size_t i = 0; i < got.conditional.size(); ++i) {
    const ConditionalSample& g = got.conditional[i];
    const ConditionalSample& w = want.conditional[i];
    EXPECT_EQ(g.recoverable, w.recoverable) << "recoverable at trial " << i;
    expectBitSame(g.rt, w.rt, "rt", i);
    expectBitSame(g.dl, w.dl, "dl", i);
    expectBitSame(g.payload, w.payload, "payload", i);
    expectBitSame(g.penalty, w.penalty, "penalty", i);
  }
}

void expectSameMission(const TrialTrace& got, const TrialTrace& want) {
  ASSERT_EQ(got.mission.size(), want.mission.size());
  for (std::size_t i = 0; i < got.mission.size(); ++i) {
    const MissionSample& g = got.mission[i];
    const MissionSample& w = want.mission[i];
    EXPECT_EQ(g.events, w.events) << "events at trial " << i;
    EXPECT_EQ(g.unrecoverable, w.unrecoverable)
        << "unrecoverable at trial " << i;
    expectBitSame(g.penalty, w.penalty, "penalty", i);
    expectBitSame(g.lossBytes, w.lossBytes, "lossBytes", i);
    expectBitSame(g.downtimeSecs, w.downtimeSecs, "downtimeSecs", i);
    ASSERT_EQ(g.eventRtDl.size(), w.eventRtDl.size())
        << "event count at trial " << i;
    for (std::size_t e = 0; e < g.eventRtDl.size(); ++e) {
      expectBitSame(g.eventRtDl[e].first, w.eventRtDl[e].first, "event rt", i);
      expectBitSame(g.eventRtDl[e].second, w.eventRtDl[e].second, "event dl",
                    i);
    }
  }
}

StochasticOptions optionsFor(int threads, bool usePlan, TrialTrace* trace) {
  StochasticOptions options;
  options.trials = 400;
  options.seed = 99;
  options.threads = threads;
  options.usePlan = usePlan;
  options.trace = trace;
  // Site shocks on top of the device-class failure defaults so mission
  // trials contain correlated whole-site events, not just independent
  // device failures.
  options.reliability.siteShockAnnualRate = 2.0;
  return options;
}

// ---- Plan vs legacy, across thread counts ---------------------------------

TEST(StochasticPlan, ConditionalBitIdenticalToLegacyAtAnyThreadCount) {
  const FailureScenario scenario = cs::arrayFailure();
  TrialTrace reference;
  {
    const StochasticEvaluator legacy(
        cs::weeklyVaultFullPlusIncremental(),
        optionsFor(/*threads=*/1, /*usePlan=*/false, &reference));
    ASSERT_FALSE(legacy.usingPlan());
    ASSERT_TRUE(legacy.distributionFor(scenario).ok());
    ASSERT_EQ(reference.conditional.size(), 400u);
  }
  for (const int threads : {1, 2, 4, 8}) {
    TrialTrace trace;
    const StochasticEvaluator viaPlan(
        cs::weeklyVaultFullPlusIncremental(),
        optionsFor(threads, /*usePlan=*/true, &trace));
    ASSERT_TRUE(viaPlan.usingPlan());
    const auto result = viaPlan.distributionFor(scenario);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_TRUE(result.value().usedPlan);
    EXPECT_GT(result.value().trialsPerSec, 0.0);
    expectSameConditional(trace, reference);
  }
}

TEST(StochasticPlan, MissionBitIdenticalToLegacyAtAnyThreadCount) {
  TrialTrace reference;
  {
    const StochasticEvaluator legacy(
        cs::weeklyVault(),
        optionsFor(/*threads=*/1, /*usePlan=*/false, &reference));
    ASSERT_TRUE(legacy.annualizedRisk().ok());
    ASSERT_EQ(reference.mission.size(), 400u);
  }
  for (const int threads : {1, 2, 4, 8}) {
    TrialTrace trace;
    const StochasticEvaluator viaPlan(
        cs::weeklyVault(), optionsFor(threads, /*usePlan=*/true, &trace));
    ASSERT_TRUE(viaPlan.usingPlan());
    const auto result = viaPlan.annualizedRisk();
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_TRUE(result.value().usedPlan);
    expectSameMission(trace, reference);
  }
}

TEST(StochasticPlan, EnvelopesMatchBetweenModes) {
  const FailureScenario scenario = cs::siteDisaster();
  const auto run = [&](bool usePlan) {
    const StochasticEvaluator eval(cs::baseline(),
                                   optionsFor(1, usePlan, nullptr));
    auto cond = eval.distributionFor(scenario);
    auto mission = eval.annualizedRisk();
    EXPECT_TRUE(cond.ok());
    EXPECT_TRUE(mission.ok());
    return std::make_pair(cond.value(), mission.value());
  };
  const auto [planCond, planMission] = run(true);
  const auto [legacyCond, legacyMission] = run(false);
  EXPECT_TRUE(planCond.usedPlan);
  EXPECT_FALSE(legacyCond.usedPlan);
  EXPECT_EQ(planCond.unrecoverable, legacyCond.unrecoverable);
  EXPECT_EQ(planCond.rt.max, legacyCond.rt.max);
  EXPECT_EQ(planCond.dl.p99, legacyCond.dl.p99);
  EXPECT_EQ(planCond.penalty.mean, legacyCond.penalty.mean);
  EXPECT_EQ(planCond.expectedPenalty.raw(), legacyCond.expectedPenalty.raw());
  EXPECT_EQ(planMission.eventsPerYear, legacyMission.eventsPerYear);
  EXPECT_EQ(planMission.expectedAnnualPenalty.raw(),
            legacyMission.expectedAnnualPenalty.raw());
  EXPECT_EQ(planMission.expectedAnnualLossBytes.raw(),
            legacyMission.expectedAnnualLossBytes.raw());
  EXPECT_EQ(planMission.expectedAnnualDowntimeHours,
            legacyMission.expectedAnnualDowntimeHours);
}

// ---- Arena reuse -----------------------------------------------------------

TEST(StochasticPlan, MissionTrialsReuseTheThreadArena) {
  // threads = 1 runs every trial inline, so all plan frames come from this
  // thread's arena: after a warm-up evaluation the arena must stop growing,
  // and every trial must have rewound its frame.
  const StochasticEvaluator eval(cs::weeklyVault(),
                                 optionsFor(1, /*usePlan=*/true, nullptr));
  ASSERT_TRUE(eval.usingPlan());
  ASSERT_TRUE(eval.annualizedRisk().ok());  // warm-up sizes the arena

  engine::BumpArena& arena = engine::Engine::threadArena();
  const std::size_t warmBlocks = arena.blockCount();
  const std::size_t warmCapacity = arena.capacity();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(eval.annualizedRisk().ok());
    EXPECT_EQ(arena.blockCount(), warmBlocks);
    EXPECT_EQ(arena.capacity(), warmCapacity);
    EXPECT_EQ(arena.used(), 0u);  // every missionTrial rewound its frame
  }
}

// ---- Restore legs with missing endpoints -----------------------------------

/// A technique whose restore path has a missing endpoint: the compiled plan
/// marks its level unrecoverable, so every trial that restores from it is
/// unrecoverable, as in the legacy loop.
class BrokenRestoreTechnique final : public stordep::Technique {
 public:
  explicit BrokenRestoreTechnique(stordep::DevicePtr storage)
      : Technique("broken restore", stordep::TechniqueKind::kBackup),
        storage_(std::move(storage)),
        policy_(stordep::WindowSpec{stordep::hours(24), stordep::hours(1),
                                    stordep::Duration::zero()},
                /*retentionCount=*/2, stordep::days(14)) {}

  [[nodiscard]] const stordep::ProtectionPolicy* policy()
      const noexcept override {
    return &policy_;
  }
  void appendRows(const stordep::WorkloadSpec&, const stordep::DeviceModel*,
                  stordep::LevelRows& rows) const override {
    rows.storage.push_back(storage_.get());
    rows.legs.push_back(stordep::RecoveryLeg{nullptr, nullptr, nullptr,
                                             stordep::Duration::zero()});
  }

 private:
  stordep::DevicePtr storage_;
  stordep::ProtectionPolicy policy_;
};

stordep::StorageDesign brokenRestoreDesign() {
  auto primary = stordep::catalog::midrangeDiskArray(
      "primary array", stordep::Location::at("primary site"));
  auto offsite = stordep::catalog::midrangeDiskArray(
      "offsite array", stordep::Location::at("offsite"));
  std::vector<stordep::TechniquePtr> levels;
  levels.push_back(std::make_shared<stordep::PrimaryCopy>(primary));
  levels.push_back(std::make_shared<BrokenRestoreTechnique>(offsite));
  return stordep::StorageDesign("broken restore design", cs::celloWorkload(),
                                cs::requirements(), std::move(levels));
}

TEST(StochasticPlanFallback, UnplannableDesignRunsLegacyLoop) {
  TrialTrace requested;
  TrialTrace forced;
  const StochasticEvaluator wantsPlan(
      brokenRestoreDesign(), optionsFor(1, /*usePlan=*/true, &requested));
  const StochasticEvaluator legacy(
      brokenRestoreDesign(), optionsFor(1, /*usePlan=*/false, &forced));
  EXPECT_TRUE(wantsPlan.usingPlan());  // compile is total
  EXPECT_FALSE(legacy.usingPlan());

  const FailureScenario scenario = cs::arrayFailure();
  const auto a = wantsPlan.distributionFor(scenario);
  const auto b = legacy.distributionFor(scenario);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value().usedPlan);
  expectSameConditional(requested, forced);

  requested.mission.clear();
  forced.mission.clear();
  const auto ma = wantsPlan.annualizedRisk();
  const auto mb = legacy.annualizedRisk();
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_TRUE(ma.value().usedPlan);
  expectSameMission(requested, forced);
}

}  // namespace
}  // namespace stordep::stochastic
