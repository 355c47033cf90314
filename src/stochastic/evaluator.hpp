// evaluator.hpp — seeded Monte-Carlo reliability evaluation.
//
// The analytic engine answers worst-case questions: *if* this scenario
// strikes, what is the recovery time and data loss in the least favorable
// failure instant. This front-end turns those single points into
// distributions, two ways:
//
//   distributionFor(scenario)  conditions on the scenario occurring: each
//       trial samples a failure instant uniformly over the RP-lifecycle
//       simulation's steady-state window and replays the outage through
//       RecoverySimulator::observedRecovery (recovery time, restore
//       payload) and RpLifecycleSimulator::observedDataLoss (recent data
//       loss) — exactly the two per-instant quantities the differential
//       oracles validate against the analytic bounds. Per-trial penalty
//       combines both through the design's business rates.
//
//   annualizedRisk()  samples whole mission windows: every storage device
//       draws failure arrivals from its (exponential/Weibull) failure
//       process, stays down for a repair-process draw before it can fail
//       again, and optional per-site common shocks (ReliabilitySpec::
//       siteShockAnnualRate) add correlated whole-site disasters. Each
//       sampled outage replays through the same per-instant machinery; the
//       per-trial aggregates annualize into expected data-loss bytes,
//       penalty cost and downtime with confidence intervals.
//
// Determinism contract: trial i draws every random number from the
// substream Rng(substreamSeed(seed, i)), so a trial's outcome is a pure
// function of (seed, i). Trials fan out across a thread pool into indexed
// slots and the streaming summaries (stochastic/quantile.hpp) are fed
// sequentially in trial order afterwards — results are bit-identical
// regardless of thread count. Cancellation is cooperative: a fired token
// stops the fan-out and surfaces as a structured kCancelled /
// kDeadlineExceeded EvalError reporting how many trials completed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/reliability.hpp"
#include "engine/cancellation.hpp"
#include "engine/errors.hpp"
#include "sim/recovery_simulator.hpp"
#include "sim/rp_simulator.hpp"
#include "stochastic/quantile.hpp"
#include "stochastic/trial_plan.hpp"

namespace stordep::stochastic {

struct StochasticOptions {
  int trials = 10'000;
  std::uint64_t seed = 1;
  /// 1 = run trials inline on the calling thread; 0 = the process-wide
  /// engine::ThreadPool::shared(); N > 1 = a dedicated pool of N threads.
  /// The choice never affects results, only wall time.
  int threads = 0;
  engine::CancellationToken token;
  /// RP-lifecycle simulation knobs (horizon must cover several cycles of
  /// the slowest level).
  sim::RpSimOptions sim;
  /// Failure/repair processes, mission window and site-shock rate. Devices
  /// without an entry use their class defaults.
  ReliabilitySpec reliability;
  /// Batches for the batch-means confidence intervals.
  int ciBatches = 32;
  /// Run trials through the compiled TrialPlan (bit-identical to the
  /// legacy loop, much faster). False forces the legacy loop — the
  /// differential oracle's reference side.
  bool usePlan = true;
  /// When set, each evaluation records its per-trial samples here, in
  /// trial order (oracle/test hook; not thread-safe across concurrent
  /// evaluations on the same evaluator).
  TrialTrace* trace = nullptr;
};

/// The distribution envelope for one (design, scenario), conditioned on the
/// scenario occurring. rt/dl are in seconds, penalty in dollars.
struct ScenarioDistribution {
  int trials = 0;
  int unrecoverable = 0;  ///< trials where no RP could serve the target

  Distribution rt;
  Distribution dl;
  Distribution penalty;

  /// Restore payload actually read (constant for full-only backups, varies
  /// across the cycle for incremental chains).
  Bytes minPayload;
  Bytes meanPayload;
  Bytes maxPayload;

  /// The paper-style worst case from the analytic model, and whether every
  /// sampled trial respected it (vacuously true with zero recoverable
  /// trials). The DL bound is charged the capture-staleness slack
  /// (rpCaptureSlack) the aligned simulator legitimately sees on
  /// incommensurable window grids.
  Duration analyticWorstRt = Duration::infinite();
  Duration analyticWorstDl = Duration::infinite();
  Duration dlSlack = Duration::zero();
  bool rtBoundHolds = true;
  bool dlBoundHolds = true;
  /// max sampled RT / analytic worst-case RT (how tight the bound is).
  double rtTightness = 0.0;

  /// penalty.mean as Money — what the ExpectedPenalty search objective
  /// uses — and the analytic worst-case penalty it replaces.
  Money expectedPenalty;
  Money worstCasePenalty;

  /// Trial-loop wall time and throughput for this evaluation, and whether
  /// the compiled TrialPlan ran it (false = the legacy loop). Timing
  /// fields vary run to run; everything above is deterministic.
  double wallSeconds = 0.0;
  double trialsPerSec = 0.0;
  bool usedPlan = false;
};

/// Mission-window summary: how much the design is expected to lose and pay
/// per year, with distribution tails. Annual figures are scaled from the
/// mission window (expected value per year = mean per window / window
/// years).
struct AnnualizedRisk {
  int trials = 0;
  Duration missionWindow;

  /// Outage events per year (device failures + site shocks).
  double eventsPerYear = 0.0;
  /// Fraction of trials that contained at least one unrecoverable outage.
  double unrecoverableTrialFraction = 0.0;

  Bytes expectedAnnualLossBytes;
  Bytes lossBytesCi95;
  Money expectedAnnualPenalty;
  Money penaltyCi95;
  double expectedAnnualDowntimeHours = 0.0;

  /// Per-event recovery time / data loss (seconds), across all trials.
  Distribution eventRt;
  Distribution eventDl;
  /// Per-trial penalty, annualized (dollars).
  Distribution annualPenalty;

  /// Trial-loop wall time and throughput for this evaluation, and whether
  /// the compiled TrialPlan ran it (false = the legacy loop). Timing
  /// fields vary run to run; everything above is deterministic.
  double wallSeconds = 0.0;
  double trialsPerSec = 0.0;
  bool usedPlan = false;
};

/// Monte-Carlo front-end over one design. Construction builds and runs the
/// RP-lifecycle simulation once (throws sim::SimulationError /
/// std::invalid_argument on designs the simulator rejects); the evaluation
/// methods are const, deterministic, and safe to call concurrently.
class StochasticEvaluator {
 public:
  explicit StochasticEvaluator(StorageDesign design,
                               StochasticOptions options = {});
  ~StochasticEvaluator();

  StochasticEvaluator(const StochasticEvaluator&) = delete;
  StochasticEvaluator& operator=(const StochasticEvaluator&) = delete;

  /// The RT/DL/penalty distribution conditioned on `scenario` occurring.
  [[nodiscard]] engine::Expected<ScenarioDistribution> distributionFor(
      const FailureScenario& scenario) const;

  /// Mission-window sampling over every storage device's failure/repair
  /// processes (plus site shocks), annualized.
  [[nodiscard]] engine::Expected<AnnualizedRisk> annualizedRisk() const;

  [[nodiscard]] const StorageDesign& design() const noexcept;
  [[nodiscard]] const StochasticOptions& options() const noexcept {
    return options_;
  }

  /// True when trials run through the compiled TrialPlan (usePlan was
  /// set); false = legacy loop.
  [[nodiscard]] bool usingPlan() const noexcept { return plan_ != nullptr; }

 private:
  struct ConditionalTrial;
  struct MissionTrial;

  /// Deterministic fan-out: runs body(i) for i in [0, count) per
  /// options_.threads, polling the token. Returns false when cancellation
  /// skipped any index (the caller counts filled slots for the error).
  [[nodiscard]] bool runTrials(
      int count, const std::function<void(std::size_t)>& body) const;

  StochasticOptions options_;
  std::unique_ptr<sim::RpLifecycleSimulator> sim_;
  std::unique_ptr<sim::RecoverySimulator> recovery_;
  std::shared_ptr<const TrialPlan> plan_;  ///< null = legacy trial loop
};

}  // namespace stordep::stochastic
