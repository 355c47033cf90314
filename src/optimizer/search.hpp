// search.hpp — exhaustive evaluation over the design space.
//
// For each candidate design, evaluates every failure scenario in the given
// set, rejects candidates that are infeasible (over-utilized hardware or an
// unrecoverable scenario) or that miss the business RTO/RPO, and ranks the
// survivors by scenario-weighted total cost. This is the paper's "automated
// optimization loop" realized over the analytic models — fast enough to
// evaluate hundreds of candidates in milliseconds.
//
// Candidates fan out across an engine::Engine's thread pool (src/engine/).
// Each one is recompiled into its sweep thread's reused engine::EvalPlan
// and every scenario folds allocation-free against the plan; sweeps never
// touch the engine's result cache. The result is bit-identical to the
// serial reference (`searchDesignSpaceSerial`, which calls the legacy
// evaluate()): the plan contract makes every metric equal, candidates are
// written to indexed slots, and all paths rank by the same deterministic
// comparison.
// Robustness: candidate evaluation is isolated — a candidate whose build,
// compile or evaluation throws carries a structured engine::EvalError
// instead of aborting the sweep — and SearchOptions add cooperative
// cancellation, a wall-clock deadline and crash-safe checkpoint/resume
// (optimizer/checkpoint.hpp): completed candidates are journaled, and a
// resumed sweep skips them while producing the exact ranking of an
// uninterrupted run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/batch.hpp"
#include "optimizer/design_space.hpp"

namespace stordep::optimizer {

/// One scenario to design against, with an importance weight used when
/// combining penalty costs across scenarios.
struct ScenarioCase {
  std::string name;
  FailureScenario scenario;
  double weight = 1.0;
};

/// A candidate with its evaluation summary across all scenarios.
struct EvaluatedCandidate {
  CandidateSpec spec;
  std::string label;
  bool feasible = false;         ///< hardware fits and everything recovers
  bool meetsObjectives = false;  ///< RTO/RPO satisfied in every scenario
  Money outlays;                 ///< annual outlays (scenario-independent)
  Money weightedPenalties;       ///< sum of weight x penalties
  Money totalCost;               ///< outlays + weighted penalties
  Duration worstRecoveryTime;    ///< max across scenarios
  Duration worstDataLoss;        ///< max across scenarios
  std::string rejectionReason;   ///< set when infeasible / objective-missed
  /// Set when the candidate could not be evaluated at all (its build,
  /// compile or an evaluation threw). Errored candidates are never feasible
  /// and land in SearchResult::rejected.
  std::optional<engine::EvalError> error;
};

struct SearchResult {
  /// Feasible, objective-meeting candidates, cheapest first.
  std::vector<EvaluatedCandidate> ranked;
  /// Everything else, with reasons.
  std::vector<EvaluatedCandidate> rejected;
  int evaluated = 0;
  /// Candidates restored from a checkpoint journal instead of re-evaluated.
  int skipped = 0;
  /// Candidates whose evaluation errored (they appear in `rejected` with
  /// EvaluatedCandidate::error set).
  int failed = 0;
  /// True when the sweep stopped early (cancellation or deadline); ranked/
  /// rejected then cover only the candidates that completed — with a
  /// checkpoint journal, a later run resumes the rest.
  bool cancelled = false;
  /// Sweep wall time and throughput (evaluated + skipped per second);
  /// filled by every search path for the perf trajectory.
  double wallSeconds = 0.0;
  double candidatesPerSec = 0.0;

  [[nodiscard]] const EvaluatedCandidate* best() const noexcept {
    return ranked.empty() ? nullptr : &ranked.front();
  }
};

/// What the penalty component of a candidate's total cost measures.
enum class Objective {
  /// The paper's objective: scenario-weighted *worst-case* penalties from
  /// the analytic models. Deterministic, bit-identical to the serial
  /// reference.
  kWorstCase,
  /// Scenario-weighted *expected* penalties from the Monte-Carlo layer
  /// (stochastic::StochasticEvaluator, fixed seed, serial trials — still
  /// deterministic). Candidates where the simulation is inapplicable (e.g.
  /// cycles longer than the simulated horizon) fall back to their
  /// worst-case penalty, so rankings are always total.
  kExpectedPenalty,
};

/// Knobs for a sweep (all default to "off").
struct SearchOptions {
  /// Engine to evaluate through (null = Engine::shared()).
  engine::Engine* eng = nullptr;
  /// Cooperative cancellation; polled per candidate.
  engine::CancellationToken token;
  /// Wall-clock budget for the whole sweep (0 = none); candidates not
  /// started before it elapses are left un-evaluated and the result is
  /// marked cancelled.
  std::chrono::milliseconds deadline{0};
  /// Journal file for checkpoint/resume (empty = no journaling). A journal
  /// written by a previous run over the same workload/business/scenarios is
  /// resumed: journaled candidates are skipped, the final ranking is
  /// identical to an uninterrupted sweep.
  std::string checkpointPath;
  /// Journal flush cadence (records per flush).
  std::size_t checkpointEvery = 16;
  /// Candidates drained from the candidate vector or cursor per fan-out
  /// wave. Bounds peak memory at O(streamChunk) materialized candidates.
  std::size_t streamChunk = 1024;
  /// Called on the sweeping thread after every wave with the cumulative
  /// number of candidates dispatched (evaluated + resumed from checkpoint)
  /// so far. Lets a long sweep report progress (the service's /v1/search
  /// streams one chunk per callback). Must not throw; keep it cheap — it
  /// runs between waves, on the critical path.
  std::function<void(std::size_t done)> onProgress;
  /// Sleep inserted between waves (0 = none). Exists for tests that must
  /// kill a process or drop a client *mid*-sweep deterministically —
  /// pacing the waves keeps the sweep alive long enough to die at a
  /// controlled point.
  std::chrono::milliseconds waveDelay{0};
  /// Ranking objective. kWorstCase leaves every result bit-identical to the
  /// serial reference; kExpectedPenalty replaces the penalty term with the
  /// Monte-Carlo expectation. Checkpoint journals record the penalty totals,
  /// so do not share one journal file across objectives.
  Objective objective = Objective::kWorstCase;
  /// Monte-Carlo trials per (candidate, scenario) for kExpectedPenalty.
  int stochasticTrials = 512;
  /// Root seed for the expected-penalty sampler (same seed -> same ranking).
  std::uint64_t stochasticSeed = 1;
};

/// Evaluates one candidate against the scenario set: the design is
/// recompiled into the calling thread's reused evaluation plan
/// (engine/plan.hpp) and every scenario folds allocation-free on that
/// thread, bit-identical to the serial reference. Never throws; failures
/// land in EvaluatedCandidate::error.
/// The two trailing parameters are unused. They remain only so callers
/// that still pass an engine and a plan flag keep compiling.
[[nodiscard]] EvaluatedCandidate evaluateCandidate(
    const CandidateSpec& spec, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    engine::Engine* eng = nullptr, bool usePlan = true);

/// Evaluates all candidates and ranks them: per-candidate error isolation,
/// cooperative cancellation and deadline, and checkpoint/resume through an
/// append-only journal. Candidates fan out across the engine's thread pool
/// in the same wave loop as searchDesignSpaceStreaming, so streamChunk and
/// the wave callbacks apply here too. With default options the result is
/// identical to searchDesignSpaceSerial.
[[nodiscard]] SearchResult searchDesignSpace(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    const SearchOptions& options = {});

/// Streaming sweep: drains `cursor` in SearchOptions::streamChunk-sized
/// waves, fanning each wave across the engine's pool, so a million-point
/// grid is searched in bounded memory (never materialized as a vector).
/// Shares the vector overload's wave loop, so journals resume across the
/// two, and the result is identical to
/// searchDesignSpace(enumerateDesignSpace(...)).
[[nodiscard]] SearchResult searchDesignSpaceStreaming(
    DesignSpaceCursor& cursor, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    const SearchOptions& options = {});

/// The pre-engine reference implementation: one thread, no cache, direct
/// evaluate() calls. Kept as the determinism baseline for tests and the
/// parallel-speedup benchmark.
[[nodiscard]] SearchResult searchDesignSpaceSerial(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios);

/// Ranks already-evaluated candidates with the deterministic comparison
/// every search path shares (totalCost, then label) and fills the count
/// fields. It sorts (totalCost, label, index) keys and then moves each
/// candidate once, ranked ones in key order and rejected ones in input
/// order; the order equals a sort of the candidates themselves, ties
/// included. Sweeps of restricted grid ranges merge through this and rank
/// bit-identically to one sweep of the whole grid: the comparison is a
/// total order over the union of the ranges. wallSeconds /
/// candidatesPerSec / skipped / cancelled are left for the caller.
[[nodiscard]] SearchResult rankEvaluated(
    std::vector<EvaluatedCandidate> evaluated);

/// The case study's scenario set (object, array, site), equally weighted.
[[nodiscard]] std::vector<ScenarioCase> caseStudyScenarios();

/// The Pareto-optimal subset of the feasible candidates over the three
/// axes a designer actually trades off — annual outlays, worst recovery
/// time, worst data loss. A candidate is dominated when another is at
/// least as good on all three axes and strictly better on one; penalties
/// are deliberately excluded so the frontier is independent of the penalty
/// rates (picking a point on it is where the rates come back in).
/// Returned sorted by outlays, cheapest first.
[[nodiscard]] std::vector<EvaluatedCandidate> paretoFrontier(
    const std::vector<EvaluatedCandidate>& candidates);

}  // namespace stordep::optimizer
