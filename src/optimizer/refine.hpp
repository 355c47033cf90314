// refine.hpp — local refinement of a candidate design.
//
// Grid enumeration (design_space.hpp) finds the right *structure*; this
// pass then tunes the continuous knobs — window lengths, retention counts,
// link counts — by steepest-descent hill climbing over a multiplicative
// neighborhood, using the scenario-weighted total cost as the objective.
// Because one evaluation costs microseconds, a full refinement is a few
// milliseconds; the combination (enumerate, pick the leaders, refine each)
// is the paper's envisioned automated-design loop end to end.
#pragma once

#include "optimizer/search.hpp"

namespace stordep::optimizer {

struct RefineOptions {
  /// Hill-climbing step bound (each step re-evaluates every neighbor).
  int maxSteps = 64;
  /// Neighbor scale factors for window knobs.
  std::vector<double> windowFactors{0.5, 2.0};
  /// Cooperative cancellation, polled between climb steps: the climb stops
  /// at the last accepted move (which is always a valid, evaluated design).
  engine::CancellationToken token;
};

struct RefineResult {
  EvaluatedCandidate best;
  int steps = 0;        ///< accepted moves
  int evaluations = 0;  ///< candidate evaluations spent
  Money improvement;    ///< starting total cost minus final total cost
  /// True when the climb stopped on cancellation rather than convergence;
  /// `best` still holds the best design found so far.
  bool cancelled = false;
};

/// All structurally valid one-knob neighbors of `spec` (exposed for tests).
[[nodiscard]] std::vector<CandidateSpec> neighbors(
    const CandidateSpec& spec, const RefineOptions& options = {});

/// Hill-climbs from `start` until no neighbor improves the total cost.
/// Infeasible or objective-missing neighbors are never accepted; if the
/// start itself is infeasible the result simply reports it unrefined.
/// Each step's neighborhood is evaluated in parallel on the engine's pool
/// (null = Engine::shared()), one compiled plan per neighbor; the accepted
/// move is selected serially in neighbor order, so results match a serial
/// climb exactly.
[[nodiscard]] RefineResult refineCandidate(
    const CandidateSpec& start, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    const RefineOptions& options = {}, engine::Engine* eng = nullptr);

}  // namespace stordep::optimizer
