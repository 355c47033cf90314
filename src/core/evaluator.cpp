#include "core/evaluator.hpp"

namespace stordep {

EvaluationResult evaluate(const StorageDesign& design,
                          const FailureScenario& scenario) {
  EvaluationResult result;
  result.utilization = computeUtilization(design);
  result.levelAssessments = assessAllLevels(design, scenario);
  result.recovery = computeRecovery(design, scenario);
  result.cost = computeCosts(design, result.recovery);
  result.warnings = design.validate();
  result.meetsObjectives = design.business().meetsObjectives(
      result.recovery.recoveryTime, result.recovery.dataLoss);
  return result;
}

EvaluationMetrics summarizeEvaluation(const EvaluationResult& result) {
  EvaluationMetrics m;
  m.utilizationFeasible = result.utilization.feasible();
  m.recoverable = result.recovery.recoverable;
  m.meetsObjectives = result.meetsObjectives;
  m.sourceLevel = result.recovery.sourceLevel;
  m.recoveryTime = result.recovery.recoveryTime;
  m.dataLoss = result.recovery.dataLoss;
  m.payload = result.recovery.payload;
  m.totalOutlays = result.cost.totalOutlays;
  m.outagePenalty = result.cost.outagePenalty;
  m.lossPenalty = result.cost.lossPenalty;
  m.totalPenalties = result.cost.totalPenalties;
  m.totalCost = result.cost.totalCost;
  return m;
}

}  // namespace stordep
