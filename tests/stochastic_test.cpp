// Tests for the Monte-Carlo layer: P² sketches, substream determinism, the
// conditional and mission-window samplers, cancellation, the reliability
// config block, and the ExpectedPenalty search objective.
#include "stochastic/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "core/data_loss.hpp"
#include "core/reliability.hpp"
#include "optimizer/search.hpp"
#include "sim/rng.hpp"
#include "stochastic/quantile.hpp"

namespace stordep::stochastic {
namespace {

namespace cs = casestudy;

// ---- P² quantile sketches --------------------------------------------------

TEST(P2Quantile, ExactBelowFiveObservations) {
  P2Quantile q(0.5);
  q.add(3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, TracksUniform) {
  sim::Rng rng(1);
  DistributionAccumulator acc(20'000);
  for (int i = 0; i < 20'000; ++i) acc.add(rng.uniform());
  const Distribution d = acc.finalize();
  EXPECT_EQ(d.count, 20'000u);
  EXPECT_GE(d.min, 0.0);
  EXPECT_LT(d.max, 1.0);
  EXPECT_NEAR(d.mean, 0.5, 0.01);
  EXPECT_GT(d.ci95, 0.0);
  EXPECT_NEAR(d.p50, 0.50, 0.02);
  EXPECT_NEAR(d.p95, 0.95, 0.02);
  EXPECT_NEAR(d.p99, 0.99, 0.01);
}

TEST(P2Quantile, TracksExponential) {
  sim::Rng rng(2);
  DistributionAccumulator acc(20'000);
  for (int i = 0; i < 20'000; ++i) acc.add(rng.exponential(2.0));
  const Distribution d = acc.finalize();
  EXPECT_NEAR(d.mean, 2.0, 0.1);
  EXPECT_NEAR(d.p50, 2.0 * std::log(2.0), 0.1);           // 1.386
  EXPECT_NEAR(d.p95, -2.0 * std::log(0.05), 0.3);         // 5.991
  EXPECT_LE(d.p50, d.p95);
  EXPECT_LE(d.p95, d.p99);
  EXPECT_LE(d.p99, d.max);
}

// ---- Substream determinism -------------------------------------------------

TEST(Rng, SubstreamSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(sim::Rng::substreamSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Rng, SplitIsIndependentOfDrawHistory) {
  sim::Rng a(7);
  sim::Rng b(7);
  for (int i = 0; i < 100; ++i) (void)b.next();  // advance b only
  sim::Rng sa = a.split(3);
  sim::Rng sb = b.split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sa.next(), sb.next());
}

// ---- Conditional distributions (migrated from RecoverySimulator) -----------

StochasticOptions optionsWith(Duration horizon, int trials,
                              std::uint64_t seed = 5) {
  StochasticOptions opts;
  opts.trials = trials;
  opts.seed = seed;
  opts.threads = 1;
  opts.sim.horizon = horizon;
  return opts;
}

TEST(StochasticEvaluator, FullOnlyPayloadIsConstant) {
  const StochasticEvaluator eval(cs::baseline(),
                                 optionsWith(days(200), 500));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  EXPECT_EQ(dist.trials, 500);
  EXPECT_EQ(dist.unrecoverable, 0);
  // Weekly fulls restore exactly one full image at every instant.
  EXPECT_EQ(dist.minPayload, gigabytes(1360));
  EXPECT_EQ(dist.maxPayload, gigabytes(1360));
  EXPECT_TRUE(dist.rtBoundHolds);
  EXPECT_TRUE(dist.dlBoundHolds);
  EXPECT_NEAR(dist.rtTightness, 1.0, 1e-6);
  EXPECT_NEAR(dist.rt.min, dist.rt.max, 1.0);
  EXPECT_LT(dist.expectedPenalty, dist.worstCasePenalty);
}

TEST(StochasticEvaluator, IncrementalPayloadVariesAcrossTheCycle) {
  const StochasticEvaluator eval(cs::weeklyVaultFullPlusIncremental(),
                                 optionsWith(days(200), 2000, 7));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  EXPECT_EQ(dist.unrecoverable, 0);
  // The lightest restore is never the bare 1360 GB full: the day-1
  // incremental lands before its base full finishes propagating, so every
  // instant replays at least one increment.
  EXPECT_NEAR(dist.minPayload.gigabytes(), 1386.1, 1.0);
  EXPECT_GT(dist.maxPayload.gigabytes(), 1360.0 + 80.0);
  EXPECT_LT(dist.maxPayload.gigabytes(), 1360.0 + 135.0);
  EXPECT_TRUE(dist.rtBoundHolds);
  EXPECT_GT(dist.rtTightness, 0.9);
  EXPECT_LT(dist.rt.min, dist.rt.max);
  EXPECT_LT(dist.rt.mean, dist.rt.max);
}

TEST(StochasticEvaluator, UnrecoverableTrialsCounted) {
  const StochasticEvaluator eval(cs::asyncBatchMirror(1),
                                 optionsWith(hours(6), 100));
  const auto outcome = eval.distributionFor(cs::objectFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  // A 24 h rollback has no serving level in a mirror-only design at any
  // instant; with zero recoverable trials the expectation is infinite.
  EXPECT_EQ(dist.unrecoverable, 100);
  EXPECT_EQ(dist.penalty.count, 0u);
  EXPECT_FALSE(dist.expectedPenalty.isFinite());
  EXPECT_TRUE(dist.rtBoundHolds);  // vacuously
}

TEST(StochasticEvaluator, SiteDisasterDistributionBounded) {
  const StochasticEvaluator eval(cs::baseline(),
                                 optionsWith(days(250), 500, 13));
  const auto outcome = eval.distributionFor(cs::siteDisaster());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  EXPECT_EQ(dist.unrecoverable, 0);
  EXPECT_TRUE(dist.rtBoundHolds);
  // Site recovery is dominated by the vault round-trip: ~26 h at every
  // sampled instant.
  EXPECT_GT(dist.rt.min, hours(25).secs());
  EXPECT_LT(dist.rt.max, hours(27).secs());
}

TEST(StochasticEvaluator, SampledMeanLossMatchesAnalyticExpectation) {
  const StorageDesign design = cs::baseline();
  const StochasticEvaluator eval(design, optionsWith(days(250), 5000));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const auto source = chooseRecoverySource(design, cs::arrayFailure());
  ASSERT_TRUE(source.has_value());
  const Duration analytic =
      expectedDataLoss(design, source->level, cs::arrayFailure());
  EXPECT_NEAR(outcome.value().dl.mean, analytic.secs(),
              0.05 * analytic.secs());
}

TEST(StochasticEvaluator, RejectsNonPositiveTrialCounts) {
  const StochasticEvaluator eval(cs::baseline(), optionsWith(days(200), 0));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kInvalidDesign);
}

// ---- Determinism across thread counts --------------------------------------

void expectIdentical(const Distribution& a, const Distribution& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.ci95, b.ci95);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(StochasticEvaluator, ThreadCountNeverChangesResults) {
  ScenarioDistribution results[2];
  for (int i = 0; i < 2; ++i) {
    StochasticOptions opts = optionsWith(days(200), 10'000, 11);
    opts.threads = i == 0 ? 1 : 8;
    const StochasticEvaluator eval(cs::weeklyVaultFullPlusIncremental(),
                                   opts);
    const auto outcome = eval.distributionFor(cs::arrayFailure());
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    results[i] = outcome.value();
  }
  EXPECT_EQ(results[0].trials, results[1].trials);
  EXPECT_EQ(results[0].unrecoverable, results[1].unrecoverable);
  expectIdentical(results[0].rt, results[1].rt);
  expectIdentical(results[0].dl, results[1].dl);
  expectIdentical(results[0].penalty, results[1].penalty);
  EXPECT_EQ(results[0].minPayload.bytes(), results[1].minPayload.bytes());
  EXPECT_EQ(results[0].meanPayload.bytes(), results[1].meanPayload.bytes());
  EXPECT_EQ(results[0].maxPayload.bytes(), results[1].maxPayload.bytes());
  EXPECT_EQ(results[0].expectedPenalty.usd(), results[1].expectedPenalty.usd());
}

TEST(StochasticEvaluator, MissionSamplingIsThreadCountInvariant) {
  AnnualizedRisk results[2];
  for (int i = 0; i < 2; ++i) {
    StochasticOptions opts = optionsWith(days(200), 2000, 17);
    opts.threads = i == 0 ? 1 : 8;
    opts.reliability.siteShockAnnualRate = 0.2;
    const StochasticEvaluator eval(cs::baseline(), opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    results[i] = outcome.value();
  }
  EXPECT_EQ(results[0].eventsPerYear, results[1].eventsPerYear);
  EXPECT_EQ(results[0].unrecoverableTrialFraction,
            results[1].unrecoverableTrialFraction);
  EXPECT_EQ(results[0].expectedAnnualLossBytes.bytes(),
            results[1].expectedAnnualLossBytes.bytes());
  EXPECT_EQ(results[0].expectedAnnualPenalty.usd(),
            results[1].expectedAnnualPenalty.usd());
  EXPECT_EQ(results[0].expectedAnnualDowntimeHours,
            results[1].expectedAnnualDowntimeHours);
  expectIdentical(results[0].eventRt, results[1].eventRt);
  expectIdentical(results[0].eventDl, results[1].eventDl);
  expectIdentical(results[0].annualPenalty, results[1].annualPenalty);
}

// ---- Cancellation ----------------------------------------------------------

TEST(StochasticEvaluator, CancellationSurfacesPartialProgressError) {
  engine::CancellationSource source;
  source.cancel();
  StochasticOptions opts = optionsWith(days(200), 1000);
  opts.token = source.token();
  const StochasticEvaluator eval(cs::baseline(), opts);
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kCancelled);
  EXPECT_NE(outcome.error().message.find("cancelled after"),
            std::string::npos);
  EXPECT_NE(outcome.error().message.find("of 1000 trials"),
            std::string::npos);
}

// ---- Mission-window sampling -----------------------------------------------

TEST(StochasticEvaluator, MissionEventRateMatchesClosedForm) {
  const StorageDesign design = cs::baseline();
  // Override every storage device with a memoryless 2-year MTBF and a 1 h
  // fixed repair: each device's failures are then (nearly) Poisson at rate
  // 1/2 per year, so total events/year ~= devices / 2.
  ReliabilitySpec spec;
  for (const auto& [device, processes] : resolveReliability(design, {})) {
    DeviceReliability r;
    r.failure = {ProcessKind::kExponential, years(2), 1.0};
    r.repair = {ProcessKind::kFixed, hours(1), 1.0};
    spec.devices[device->name()] = r;
  }
  const double deviceCount = static_cast<double>(spec.devices.size());
  ASSERT_GT(deviceCount, 0.0);

  StochasticOptions opts = optionsWith(days(200), 4000, 3);
  opts.reliability = spec;
  const StochasticEvaluator eval(design, opts);
  const auto outcome = eval.annualizedRisk();
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const AnnualizedRisk& risk = outcome.value();
  EXPECT_EQ(risk.trials, 4000);
  EXPECT_EQ(risk.missionWindow, years(1));
  const double expectedRate = deviceCount / 2.0;
  EXPECT_NEAR(risk.eventsPerYear, expectedRate, 0.10 * expectedRate);
  EXPECT_GE(risk.expectedAnnualPenalty.usd(), 0.0);
  EXPECT_GE(risk.expectedAnnualDowntimeHours, 0.0);
}

TEST(StochasticEvaluator, SiteShocksRaiseTheEventRate) {
  const StorageDesign design = cs::baseline();
  // Devices effectively never fail on their own; only shocks remain.
  ReliabilitySpec quiet;
  for (const auto& [device, processes] : resolveReliability(design, {})) {
    DeviceReliability r;
    r.failure = {ProcessKind::kExponential, years(100'000), 1.0};
    r.repair = {ProcessKind::kFixed, hours(1), 1.0};
    quiet.devices[device->name()] = r;
  }

  double rates[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    StochasticOptions opts = optionsWith(days(200), 2000, 19);
    opts.reliability = quiet;
    opts.reliability.siteShockAnnualRate = i == 0 ? 0.0 : 0.5;
    const StochasticEvaluator eval(design, opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    rates[i] = outcome.value().eventsPerYear;
  }
  EXPECT_NEAR(rates[0], 0.0, 0.01);
  // At least one site draws shocks at 0.5/year.
  EXPECT_GT(rates[1], 0.4);
}

TEST(StochasticEvaluator, MissionRejectsInvalidReliability) {
  {
    StochasticOptions opts = optionsWith(days(200), 100);
    opts.reliability.siteShockAnnualRate = -1.0;
    const StochasticEvaluator eval(cs::baseline(), opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kInvalidDesign);
  }
  {
    StochasticOptions opts = optionsWith(days(200), 100);
    opts.reliability.missionWindow = Duration::zero();
    const StochasticEvaluator eval(cs::baseline(), opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kInvalidDesign);
  }
}

// ---- Reliability config block ----------------------------------------------

TEST(ReliabilityConfig, RoundTripsThroughJson) {
  ReliabilitySpec spec;
  spec.missionWindow = years(2);
  spec.siteShockAnnualRate = 0.02;
  DeviceReliability array;
  array.failure = {ProcessKind::kWeibull, years(10), 1.5};
  array.repair = {ProcessKind::kExponential, hours(12), 1.0};
  spec.devices["primary-array"] = array;
  DeviceReliability vault;
  vault.failure = {ProcessKind::kExponential, Duration::infinite(), 1.0};
  vault.repair = {ProcessKind::kFixed, weeks(1), 1.0};
  spec.devices["vault"] = vault;

  const ReliabilitySpec back =
      config::reliabilityFromJson(config::reliabilityToJson(spec));
  EXPECT_EQ(back, spec);
}

TEST(ReliabilityConfig, DesignDocumentWithoutBlockYieldsNullopt) {
  const config::Json doc = config::designToJson(cs::baseline());
  EXPECT_FALSE(config::reliabilityFromDesignJson(doc).has_value());
}

TEST(ReliabilityConfig, ClassDefaultsCoverEveryStorageDevice) {
  const auto resolved = resolveReliability(cs::baseline(), {});
  EXPECT_FALSE(resolved.empty());
  for (const auto& [device, processes] : resolved) {
    EXPECT_FALSE(device->isTransport());
    // Every storage device repairs in finite time out of the box.
    EXPECT_TRUE(processes.repair.mean.isFinite()) << device->name();
  }
}

// ---- ExpectedPenalty search objective --------------------------------------

std::vector<optimizer::CandidateSpec> smallCandidateSet() {
  using optimizer::BackupChoice;
  using optimizer::CandidateSpec;
  using optimizer::PitChoice;
  CandidateSpec fullWeekly;
  fullWeekly.pit = PitChoice::kSnapshot;
  fullWeekly.backup = BackupChoice::kFullOnly;
  fullWeekly.backupAccW = weeks(1);
  fullWeekly.vault = true;
  fullWeekly.vaultAccW = weeks(1);
  CandidateSpec fullDaily;
  fullDaily.pit = PitChoice::kSnapshot;
  fullDaily.backup = BackupChoice::kFullOnly;
  fullDaily.backupAccW = hours(24);
  fullDaily.vault = true;
  fullDaily.vaultAccW = weeks(1);
  CandidateSpec fiWeekly;
  fiWeekly.pit = PitChoice::kSplitMirror;
  fiWeekly.backup = BackupChoice::kFullPlusIncremental;
  fiWeekly.backupAccW = weeks(1);
  fiWeekly.vault = true;
  fiWeekly.vaultAccW = weeks(1);
  return {fullWeekly, fullDaily, fiWeekly};
}

TEST(ExpectedPenaltyObjective, NeverExceedsWorstCasePenalties) {
  const std::vector<optimizer::CandidateSpec> candidates = smallCandidateSet();
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  const std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();

  const optimizer::SearchResult worst = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, optimizer::SearchOptions{});
  optimizer::SearchOptions expectedOpts;
  expectedOpts.objective = optimizer::Objective::kExpectedPenalty;
  expectedOpts.stochasticTrials = 256;
  const optimizer::SearchResult expected = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, expectedOpts);

  ASSERT_FALSE(worst.ranked.empty());
  ASSERT_EQ(expected.ranked.size(), worst.ranked.size());
  for (const optimizer::EvaluatedCandidate& e : expected.ranked) {
    const auto match =
        std::find_if(worst.ranked.begin(), worst.ranked.end(),
                     [&](const optimizer::EvaluatedCandidate& w) {
                       return w.label == e.label;
                     });
    ASSERT_NE(match, worst.ranked.end()) << e.label;
    // Expected penalties are a relaxation of the worst case (equality when
    // the sampler is inapplicable and the candidate falls back to analytic).
    EXPECT_LE(e.weightedPenalties.usd(),
              match->weightedPenalties.usd() * (1.0 + 1e-6) + 1.0)
        << e.label;
    EXPECT_EQ(e.outlays.usd(), match->outlays.usd()) << e.label;
  }
}

TEST(ExpectedPenaltyObjective, PenaltiesComposePerScenarioFromSamplerOrAnalytic) {
  // Each ranked candidate's penalty term is, scenario by scenario in order,
  // the sampler's expected penalty — or the analytic worst-case penalty
  // where the sampler cannot serve the scenario — times the scenario weight.
  const std::vector<optimizer::CandidateSpec> candidates = smallCandidateSet();
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();
  scenarios[1].weight = 2.5;  // a non-unit weight shows the multiplication

  optimizer::SearchOptions options;
  options.objective = optimizer::Objective::kExpectedPenalty;
  options.stochasticTrials = 128;
  options.stochasticSeed = 7;
  const optimizer::SearchResult result = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, options);
  ASSERT_FALSE(result.ranked.empty());

  StochasticOptions sopt;
  sopt.trials = options.stochasticTrials;
  sopt.seed = options.stochasticSeed;
  sopt.threads = 1;
  int sampled = 0;
  for (const optimizer::EvaluatedCandidate& c : result.ranked) {
    const StorageDesign design = c.spec.build(workload, business);
    const auto analytic = [&](const optimizer::ScenarioCase& sc) {
      return evaluate(design, sc.scenario).cost.totalPenalties * sc.weight;
    };
    Money expected = Money::zero();
    try {
      const StochasticEvaluator sampler(design, sopt);
      for (const optimizer::ScenarioCase& sc : scenarios) {
        const auto dist = sampler.distributionFor(sc.scenario);
        if (dist.ok() && dist.value().expectedPenalty.isFinite()) {
          expected += dist.value().expectedPenalty * sc.weight;
          ++sampled;
        } else {
          expected += analytic(sc);
        }
      }
    } catch (const std::exception&) {
      // The simulator rejected the design: every scenario stays analytic.
      expected = Money::zero();
      for (const optimizer::ScenarioCase& sc : scenarios) {
        expected += analytic(sc);
      }
    }
    EXPECT_EQ(c.weightedPenalties.raw(), expected.raw()) << c.label;
    EXPECT_EQ(c.totalCost.raw(), (c.outlays + expected).raw()) << c.label;
  }
  EXPECT_GT(sampled, 0);  // the sampler served at least one scenario
}

TEST(ExpectedPenaltyObjective, DefaultObjectiveStaysBitIdenticalToSerial) {
  const std::vector<optimizer::CandidateSpec> candidates = smallCandidateSet();
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  const std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();

  const optimizer::SearchResult viaOptions = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, optimizer::SearchOptions{});
  const optimizer::SearchResult serial = optimizer::searchDesignSpaceSerial(
      candidates, workload, business, scenarios);

  ASSERT_EQ(viaOptions.ranked.size(), serial.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(viaOptions.ranked[i].label, serial.ranked[i].label);
    EXPECT_EQ(viaOptions.ranked[i].totalCost.usd(),
              serial.ranked[i].totalCost.usd());
    EXPECT_EQ(viaOptions.ranked[i].weightedPenalties.usd(),
              serial.ranked[i].weightedPenalties.usd());
  }
}

}  // namespace
}  // namespace stordep::stochastic
