// evaluator.hpp — the framework's top-level entry point.
//
// evaluate(design, scenario) composes all sub-models (paper Sec 3.3) and
// returns the four output metrics: normal-mode utilization, worst-case
// recovery time, worst-case recent data loss, and overall cost, together
// with the full supporting detail (per-device utilizations, recovery
// timeline, per-technique outlays, convention warnings).
#pragma once

#include <vector>

#include "core/cost.hpp"
#include "core/data_loss.hpp"
#include "core/hierarchy.hpp"
#include "core/recovery.hpp"
#include "core/utilization.hpp"

namespace stordep {

struct EvaluationResult {
  UtilizationResult utilization;
  RecoveryResult recovery;
  CostResult cost;
  /// Per-level loss assessments (diagnostic view of the source choice).
  std::vector<LevelLossAssessment> levelAssessments;
  /// Soft convention violations from the design (paper Sec 3.2.1).
  std::vector<std::string> warnings;
  /// Whether the design meets the business RTO/RPO (always true when no
  /// objectives are set).
  bool meetsObjectives = false;
};

[[nodiscard]] EvaluationResult evaluate(const StorageDesign& design,
                                        const FailureScenario& scenario);

/// The scalar core of an EvaluationResult: every field the optimizer's
/// candidate fold and the dependability reports actually rank on, as a flat
/// trivially-copyable record (no strings, no vectors). This is the output
/// type of the plan-based fast path (engine/plan.hpp); summarizeEvaluation()
/// projects a full legacy result onto it so the two paths can be compared
/// field-for-field (the plan-vs-legacy differential oracle).
struct EvaluationMetrics {
  bool utilizationFeasible = false;
  bool recoverable = false;
  bool meetsObjectives = false;
  /// Chosen recovery source level; -1 when no surviving level has an RP.
  int sourceLevel = -1;
  Duration recoveryTime = Duration::infinite();
  Duration dataLoss = Duration::infinite();
  Bytes payload{0};
  Money totalOutlays = Money::zero();
  Money outagePenalty = Money::zero();
  Money lossPenalty = Money::zero();
  Money totalPenalties = Money::zero();
  Money totalCost = Money::zero();
};

[[nodiscard]] EvaluationMetrics summarizeEvaluation(
    const EvaluationResult& result);

}  // namespace stordep
