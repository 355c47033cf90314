// trial_plan.hpp — compile-once / sample-many fast path for Monte-Carlo
// trials.
//
// StochasticEvaluator's legacy trial loop re-drives the full simulator
// machinery per draw: RecoverySimulator::observedRecovery rebuilds resolved
// restore paths (strings included) through recoverFrom(), observedDataLoss
// re-walks SimRp vectors, and mission sampling churns std::vector event
// buffers per trial. A TrialPlan front-loads everything that does not
// depend on the sampled failure instant:
//
//   compile          flattens the run RP-lifecycle simulation into a
//                    sim::TimelineTable, compiles the design through the
//                    engine::EvalPlan (for destroyed-level masks and
//                    resolved restore legs), and pre-enumerates the mission
//                    failure sources — per-device failure/repair process
//                    rows in resolveReliability() order plus one site-
//                    disaster row per distinct site — each with its
//                    recovery legs already resolved per source level.
//   conditionalTrial one uniform failure-instant draw replayed through
//                    branch-light table lookups; no heap allocation.
//   missionTrial     one mission window: renewal-process event generation
//                    staged in a BumpArena frame (rewound on return), then
//                    the same per-instant replay per event.
//
// Bit-identity contract: trial i draws random numbers in exactly the legacy
// order from the same (seed, i) substream, and every floating-point
// expression mirrors the legacy path (recovery_simulator.cpp,
// rp_simulator.cpp, recovery.cpp) operation for operation — so samples are
// bit-identical to the legacy loop at any thread count. The stochastic-plan
// differential oracle (src/verify/differential.cpp) enforces per-trial
// equality over the generated corpus.
//
// Every design the simulator accepts compiles (EvalPlan::compile is total),
// so StochasticEvaluator runs the legacy loop only when asked to.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/failure.hpp"
#include "core/reliability.hpp"
#include "engine/arena.hpp"
#include "engine/plan.hpp"
#include "sim/rng.hpp"
#include "sim/rp_simulator.hpp"
#include "sim/timeline_table.hpp"

namespace stordep::stochastic {

/// One conditional trial's outcome (the fields the reduction consumes).
/// An unrecoverable trial leaves the numeric fields zero.
struct ConditionalSample {
  bool recoverable = false;
  double rt = 0;       ///< seconds
  double dl = 0;       ///< seconds
  double payload = 0;  ///< bytes
  double penalty = 0;  ///< dollars
};

/// One mission-window trial's aggregates.
struct MissionSample {
  int events = 0;
  int unrecoverable = 0;
  double penalty = 0;       ///< dollars over the window (recoverable events)
  double lossBytes = 0;     ///< bytes lost over the window
  double downtimeSecs = 0;  ///< seconds of outage over the window
  std::vector<std::pair<double, double>> eventRtDl;  ///< (rt, dl) seconds
};

/// Exact per-trial record of a stochastic run, in trial order. Attached via
/// StochasticOptions::trace by the plan-vs-legacy differential oracle and
/// the determinism tests; production callers leave it null.
struct TrialTrace {
  std::vector<ConditionalSample> conditional;
  std::vector<MissionSample> mission;
};

class TrialPlan {
 public:
  /// Compiles `simulator` (which must have been run()) plus the resolved
  /// `reliability` block; never null. The plan copies or owns everything it
  /// needs; the simulator may be destroyed afterwards.
  [[nodiscard]] static std::shared_ptr<const TrialPlan> compile(
      const sim::RpLifecycleSimulator& simulator,
      const ReliabilitySpec& reliability);

  /// One failure scenario flattened for the per-instant replay: destroyed-
  /// level mask, payload scalars, and the restore path resolved per source
  /// level. Compile once per distributionFor() call, share across trials.
  struct ScenarioRow {
    FailureScope scope = FailureScope::kArray;
    double targetAgeSecs = 0;
    bool targetAgeZero = true;
    Bytes baseSize{0};
    /// min(1.0, baseSize / dataCap): the incremental-replay scale factor.
    double payloadScale = 1.0;
    std::vector<char> destroyed;  ///< [level] levelDestroyed()
    std::vector<engine::EvalPlan::ResolvedRecovery> recovery;  ///< [level]
  };

  [[nodiscard]] ScenarioRow compileScenario(
      const FailureScenario& scenario) const;

  /// One conditional trial: draws the failure instant from `rng` (exactly
  /// one uniform draw, matching the legacy loop) and replays it.
  void conditionalTrial(const ScenarioRow& row, sim::Rng& rng,
                        ConditionalSample& out) const;

  /// False when the reliability block resolved to no storage devices;
  /// missionTrial must not be called (the evaluator reports the same
  /// structured error as the legacy path).
  [[nodiscard]] bool missionReady() const noexcept { return missionReady_; }

  /// One mission-window trial. Event staging lives in an `arena` frame and
  /// is rewound before returning; `out`'s eventRtDl vector is the only
  /// allocation (reserved to the event count).
  void missionTrial(sim::Rng& rng, engine::BumpArena& arena,
                    MissionSample& out) const;

 private:
  explicit TrialPlan(const sim::RpLifecycleSimulator& simulator);

  /// observedRecovery + observedDataLoss + penalty at one failure instant.
  void replayInstant(const ScenarioRow& row, double failTime,
                     ConditionalSample& out) const;

  sim::TimelineTable table_;
  std::shared_ptr<const engine::EvalPlan> evalPlan_;
  WorkloadSpec workload_;
  BusinessRequirements business_;
  int levelCount_ = 0;
  double lo_ = 0;  ///< warmupTime: sampled instants are uniform in [lo, hi)
  double hi_ = 0;  ///< horizon
  double dataCapBytes_ = 0;
  /// Per level: uniqueBytes(differential step) — the per-differential
  /// replay size, constant across trials. Zero for non-differential levels.
  std::vector<Bytes> stepUnique_;

  // ---- Mission-window rows (pre-enumerated failure sources) ----------
  struct DeviceProcess {
    ProcessSpec failure;
    ProcessSpec repair;
  };
  std::vector<DeviceProcess> deviceRel_;  ///< resolveReliability() order
  std::vector<ScenarioRow> deviceRows_;   ///< arrayFailure per device
  std::vector<ScenarioRow> siteRows_;     ///< siteDisaster per distinct site
  double windowSecs_ = 0;
  double shockRate_ = 0;
  double shockMeanSecs_ = 0;
  bool missionReady_ = false;
};

}  // namespace stordep::stochastic
