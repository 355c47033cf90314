// Tests for the RP-lifecycle simulator and failure injector: the simulated
// data-loss distribution must respect (and approach) the analytic worst-case
// bound from the core models — the paper's future-work validation, executed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "sim/failure_injector.hpp"
#include "sim/rp_simulator.hpp"

namespace stordep::sim {
namespace {

namespace cs = casestudy;

RpSimOptions shortOptions(Duration horizon) {
  RpSimOptions options;
  options.horizon = horizon;
  return options;
}

TEST(RpSimulator, BuildsTimelinesForEveryLevel) {
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(120)));
  sim.run();
  // Split mirrors every 12 h over 120 days ~ 240 RPs.
  EXPECT_NEAR(static_cast<double>(sim.timeline(1).size()), 240, 3);
  // Weekly backups ~ 17.
  EXPECT_NEAR(static_cast<double>(sim.timeline(2).size()), 17, 2);
  // 4-weekly vault shipments ~ 4 (minus warm-up skips).
  EXPECT_GE(sim.timeline(3).size(), 2u);
  EXPECT_LE(sim.timeline(3).size(), 5u);
  EXPECT_GT(sim.eventsProcessed(), 200u);
}

TEST(RpSimulator, SplitMirrorRpsTrackThePrimary) {
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(30)));
  sim.run();
  for (const SimRp& rp : sim.timeline(1)) {
    EXPECT_DOUBLE_EQ(rp.dataTime, rp.createTime);  // captures live data
    EXPECT_DOUBLE_EQ(rp.arrivalTime, rp.createTime);  // no hold/prop
    // Retired after retCnt cycles: 4 x 12 h.
    EXPECT_DOUBLE_EQ(rp.evictTime - rp.arrivalTime, hours(48).secs());
  }
}

TEST(RpSimulator, BackupRpsInheritAlignedMirrorAges) {
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(60)));
  sim.run();
  for (const SimRp& rp : sim.timeline(2)) {
    // Backup captures the (fresh, aligned) upstream state and becomes
    // visible 49 h later.
    EXPECT_DOUBLE_EQ(rp.arrivalTime - rp.createTime, hours(49).secs());
    EXPECT_DOUBLE_EQ(rp.dataTime, rp.createTime);
  }
}

TEST(RpSimulator, VaultRpsCompoundTheBackupTransit) {
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(120)));
  sim.run();
  ASSERT_GE(sim.timeline(3).size(), 1u);
  for (const SimRp& rp : sim.timeline(3)) {
    // A vaulted RP is a backup whose data predates the vault-creation
    // instant by the backup transit (49 h).
    EXPECT_DOUBLE_EQ(rp.createTime - rp.dataTime, hours(49).secs());
    // Visible after the vault hold (4 wk + 12 h) plus shipping (24 h).
    EXPECT_DOUBLE_EQ(rp.arrivalTime - rp.createTime,
                     (weeks(4) + hours(12) + hours(24)).secs());
  }
}

TEST(RpSimulator, ObservedLossNeverExceedsAnalyticBound) {
  const StorageDesign design = cs::baseline();
  RpLifecycleSimulator sim(design, shortOptions(days(200)));
  sim.run();
  FailureInjector injector(sim, Rng(1234));

  for (const auto& [name, scenario] :
       std::vector<std::pair<std::string, FailureScenario>>{
           {"object", cs::objectFailure()},
           {"array", cs::arrayFailure()},
           {"site", cs::siteDisaster()}}) {
    const ValidationStats stats = injector.validateDataLoss(scenario, 2000);
    EXPECT_TRUE(stats.boundHolds) << name << ": max observed "
                                  << toString(stats.maxObserved)
                                  << " vs analytic "
                                  << toString(stats.analyticWorstCase);
    EXPECT_EQ(stats.unrecoverable, 0) << name;
  }
}

TEST(RpSimulator, BoundIsTightUnderDenseSweep) {
  const StorageDesign design = cs::baseline();
  RpLifecycleSimulator sim(design, shortOptions(days(200)));
  sim.run();
  FailureInjector injector(sim, Rng(99));

  // The worst case occurs just before an RP arrival; a dense sweep should
  // observe at least ~95% of the analytic bound for the array scenario.
  const ValidationStats stats =
      injector.sweepDataLoss(cs::arrayFailure(), 20'000);
  EXPECT_TRUE(stats.boundHolds);
  EXPECT_GT(stats.tightness, 0.95)
      << "max observed " << toString(stats.maxObserved) << " vs analytic "
      << toString(stats.analyticWorstCase);
  // And the mean sits well below the worst case (the bound is worst-case,
  // not typical-case).
  EXPECT_LT(stats.meanObserved, stats.analyticWorstCase);
}

TEST(RpSimulator, MisalignedSchedulesCanExceedTheBound) {
  // The paper's lag formula implicitly assumes each level's creation grid
  // is aligned with upstream arrivals. With an adversarial phase shift, the
  // backup captures *stale* mirror images and the observed loss exceeds the
  // aligned-case bound — this documents the model's assumption.
  const StorageDesign design = cs::baseline();
  RpSimOptions options;
  options.horizon = days(200);
  options.alignSchedules = false;
  // Level 2 (backup) fires just before the fresh upstream state would have
  // been captured under alignment.
  options.phases = {Duration::zero(), Duration::zero(), hours(166),
                    hours(400)};
  RpLifecycleSimulator sim(design, options);
  sim.run();
  FailureInjector injector(sim, Rng(7));
  const ValidationStats stats =
      injector.sweepDataLoss(cs::arrayFailure(), 5000);
  // Loss still bounded by bound + upstream accW, but exceeds the bound.
  EXPECT_FALSE(stats.boundHolds);
  EXPECT_LE(stats.maxObserved.secs(),
            (stats.analyticWorstCase + hours(12)).secs() * 1.001);
}

TEST(RpSimulator, ConservativeLagBoundsTheCyclicSchedule) {
  // The paper's formula (73 h) is exceeded by the F+I schedule's weekend
  // gap; the conservative bound (85 h) is both safe and tight.
  const StorageDesign design = cs::weeklyVaultFullPlusIncremental();
  RpLifecycleSimulator sim(design, shortOptions(days(250)));
  sim.run();
  FailureInjector injector(sim, Rng(11));
  const ValidationStats stats =
      injector.sweepDataLoss(cs::arrayFailure(), 20'000);
  const Duration paperBound = rpTimeLag(design, 2);
  const Duration conservative = rpTimeLagConservative(design, 2);
  EXPECT_GT(stats.maxObserved, paperBound);  // the paper's bound is broken
  EXPECT_LE(stats.maxObserved.secs(),
            conservative.secs() * (1 + 1e-9));  // ours holds
  EXPECT_GT(stats.maxObserved.secs(), conservative.secs() * 0.97);  // tight
}

TEST(RpSimulator, AsyncBatchMirrorLossIsMinutes) {
  const StorageDesign design = cs::asyncBatchMirror(1);
  RpSimOptions options;
  options.horizon = hours(6);
  RpLifecycleSimulator sim(design, options);
  sim.run();
  FailureInjector injector(sim, Rng(5));
  const ValidationStats stats =
      injector.sweepDataLoss(cs::arrayFailure(), 4000);
  EXPECT_TRUE(stats.boundHolds);
  EXPECT_LE(stats.maxObserved, minutes(2));
  EXPECT_GT(stats.maxObserved, minutes(1.8));  // tight
}

TEST(RpSimulator, RollbackTargetServedBySplitMirror) {
  // The steady-state window must cover the slowest level's warm-up (~88
  // days for the baseline vault), even though this scenario only exercises
  // the split mirror.
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(200)));
  sim.run();
  FailureInjector injector(sim, Rng(3));
  const ValidationStats stats =
      injector.sweepDataLoss(cs::objectFailure(), 4000);
  EXPECT_TRUE(stats.boundHolds);
  // Analytic: accW = 12 h; the sweep should come close.
  EXPECT_EQ(stats.analyticWorstCase, hours(12));
  EXPECT_GT(stats.tightness, 0.95);
}

TEST(RpSimulator, UnrecoverableTargetDetected) {
  RpLifecycleSimulator sim(cs::asyncBatchMirror(1), shortOptions(hours(6)));
  sim.run();
  FailureInjector injector(sim, Rng(21));
  // A 24 h rollback cannot be served by a 1-minute mirror.
  const ValidationStats stats =
      injector.validateDataLoss(cs::objectFailure(), 200);
  EXPECT_EQ(stats.unrecoverable, stats.samples);
  EXPECT_TRUE(stats.boundHolds);  // both sides agree: hopeless
}

TEST(RpSimulator, QueriesRequireRun) {
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(30)));
  EXPECT_THROW((void)sim.observedDataLoss(cs::arrayFailure(), 1000.0),
               SimulationError);
}

TEST(RpSimulator, HorizonTooShortForSteadyState) {
  RpLifecycleSimulator sim(cs::baseline(), shortOptions(days(2)));
  sim.run();
  FailureInjector injector(sim, Rng(1));
  EXPECT_THROW((void)injector.validateDataLoss(cs::arrayFailure(), 10),
               SimulationError);
}

TEST(RpSimulator, EventBudgetEnforced) {
  RpSimOptions options;
  options.horizon = days(30);
  options.maxEvents = 50;
  RpLifecycleSimulator sim(cs::baseline(), options);
  EXPECT_THROW(sim.run(), SimulationError);
}

/// FNV-1a over the bit patterns of every SimRp field, level 1 first.
std::uint64_t timelineDigest(const RpLifecycleSimulator& sim) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  for (int level = 1; level < sim.design().levelCount(); ++level) {
    for (const SimRp& rp : sim.timeline(level)) {
      mix(std::bit_cast<std::uint64_t>(rp.dataTime));
      mix(std::bit_cast<std::uint64_t>(rp.createTime));
      mix(std::bit_cast<std::uint64_t>(rp.arrivalTime));
      mix(std::bit_cast<std::uint64_t>(rp.evictTime));
      mix(rp.isFull ? 1u : 0u);
    }
  }
  return hash;
}

struct PinnedSchedule {
  std::uint64_t events;
  std::vector<std::size_t> rpsPerLevel;  ///< level 1 first
  std::uint64_t digest;
};

void expectSchedule(const StorageDesign& design, const RpSimOptions& options,
                    const PinnedSchedule& expected) {
  RpLifecycleSimulator sim(design, options);
  sim.run();
  EXPECT_EQ(sim.eventsProcessed(), expected.events);
  std::vector<std::size_t> rps;
  for (int level = 1; level < design.levelCount(); ++level) {
    rps.push_back(sim.timeline(level).size());
  }
  EXPECT_EQ(rps, expected.rpsPerLevel);
  EXPECT_EQ(timelineDigest(sim), expected.digest);
}

/// The smallest budget that runs is one below the event count.
void expectBudgetBoundary(const StorageDesign& design, RpSimOptions options,
                          std::uint64_t events) {
  options.maxEvents = events - 1;
  RpLifecycleSimulator enough(design, options);
  EXPECT_NO_THROW(enough.run());
  options.maxEvents = events - 2;
  RpLifecycleSimulator tooFew(design, options);
  EXPECT_THROW(tooFew.run(), SimulationError);
}

TEST(RpSimulator, ScheduleMatchesTheEventEngineBitForBit) {
  // Recorded from the discrete-event engine the simulator ran on before it
  // walked each level's schedule in a loop: every timeline, event count and
  // budget boundary must stay exactly as that engine produced them.
  const std::vector<PinnedSchedule> expected = {
      {525, {241, 18, 5}, 0xbd253319c39789a1ull},
      {549, {241, 18, 17}, 0x946af59c6fc43083ull},
      {635, {241, 104, 17}, 0xf879c6501619e535ull},
      {757, {241, 121, 18}, 0xfe1b88289a970ab2ull},
      {757, {241, 121, 18}, 0xfe1b88289a970ab2ull},
      {345'601, {172'801}, 0x17286bc11319f0e3ull},
      {345'601, {172'801}, 0x17286bc11319f0e3ull},
  };
  const auto designs = cs::allWhatIfDesigns();
  ASSERT_EQ(designs.size(), expected.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto& [label, design] = designs[i];
    SCOPED_TRACE(label);
    expectSchedule(design, RpSimOptions{}, expected[i]);
    if (expected[i].events < 100'000) {
      expectBudgetBoundary(design, RpSimOptions{}, expected[i].events);
    } else {
      // The async-batch mirrors' boundary over 12 hours keeps this fast.
      RpSimOptions twelveHours;
      twelveHours.horizon = hours(12);
      expectSchedule(design, twelveHours,
                     {1'441, {721}, 0x223aad4b5ee9030eull});
      expectBudgetBoundary(design, twelveHours, 1'441);
    }
  }

  RpSimOptions misaligned;
  misaligned.alignSchedules = false;
  misaligned.phases = {Duration::zero(), hours(5), hours(17), hours(3)};
  expectSchedule(cs::weeklyVaultDailyFull(), misaligned,
                 {753, {240, 120, 17}, 0x0c33326d2c63f8a9ull});
  expectBudgetBoundary(cs::weeklyVaultDailyFull(), misaligned, 753);

  // A negative phase would put the first RP before the simulation starts.
  RpSimOptions negative;
  negative.alignSchedules = false;
  negative.phases = {Duration::zero(), hours(-1)};
  RpLifecycleSimulator sim(cs::baseline(), negative);
  EXPECT_THROW(sim.run(), SimulationError);
}

}  // namespace
}  // namespace stordep::sim
