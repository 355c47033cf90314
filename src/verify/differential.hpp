// differential.hpp — cross-implementation oracles for generated cases.
//
// The repo computes the same dependability answers three independent ways:
// the analytic evaluator (src/core), the RP-lifecycle simulator
// (src/sim), and the parallel batch engine (src/engine) behind
// optimizer::searchDesignSpace. Each oracle here runs one generated case
// through two of them and checks agreement:
//
//   sim-bound       analytic worst-case DL bound every simulated failure
//                   instant (paper's "validate the models via simulation"
//                   future work; requires a convention-conforming design,
//                   where the aligned-schedule bound is a theorem)
//   stochastic-bound the Monte-Carlo layer (stochastic::StochasticEvaluator)
//                   never samples beyond the analytic worst case: sampled
//                   P100 of RT/DL stays under the bound, and the reported
//                   quantiles are monotone (P50 <= P95 <= P99 <= max)
//   search-parity   searchDesignSpaceSerial vs the engine-backed parallel
//                   search, bit-identical rankings
//   plan-vs-legacy  engine::EvalPlan::compile + EvalPlan::evaluate vs the
//                   reference evaluate() pipeline, bit-identical metrics on
//                   every generated scenario (the compile-once fast path's
//                   correctness contract)
//   round-trip      saveDesign -> loadDesign -> saveDesign reaches a fixpoint
//                   and the reloaded design evaluates bit-identically
//   mutation        random structural mutations of the design JSON either
//                   load successfully or fail with DesignIoError — never any
//                   other exception, never a crash
#pragma once

#include <string>
#include <vector>

#include "verify/gen.hpp"

namespace stordep::verify {

/// Outcome of one differential oracle on one case (same shape as
/// RelationResult; kept separate so reports can distinguish the families).
struct OracleResult {
  std::string oracle;
  bool applicable = true;
  bool holds = true;
  std::string detail;
};

struct OracleOptions {
  /// Monte-Carlo samples per simulator validation.
  int simSamples = 64;
  /// Candidates per search-parity check (drawn deterministically from the
  /// case's auxSeed).
  int searchCandidates = 6;
  /// Random JSON mutations per mutation-robustness check.
  int mutations = 4;
  /// Threads for the parallel side of search parity.
  int searchThreads = 4;
  /// Monte-Carlo trials per stochastic-bound check.
  int stochasticTrials = 48;
};

/// Analytic evaluator vs the RP-lifecycle simulation: the analytic worst-case
/// data loss bounds every simulated failure instant. Applicable only to
/// convention-conforming designs (validate() empty) with a
/// simulation-affordable slowest cycle, and to array/site scenarios (the
/// simulator's failure model).
[[nodiscard]] OracleResult simBoundOracle(const CaseSpec& spec,
                                          const OracleOptions& options = {});

/// Analytic worst case vs the Monte-Carlo distribution layer: the sampled
/// maximum recovery time must stay under the analytic worst-case RT, the
/// sampled maximum data loss under the analytic worst-case DL plus capture
/// slack, and the reported RT/DL quantiles must be monotone
/// (P50 <= P95 <= P99 <= max). Same applicability guards as simBoundOracle.
[[nodiscard]] OracleResult stochasticBoundOracle(
    const CaseSpec& spec, const OracleOptions& options = {});

/// Compiled stochastic TrialPlan vs the legacy trial loop: the same design
/// evaluated through two StochasticEvaluators sharing one seed — one routed
/// through TrialPlan (usePlan), one forced onto the legacy per-trial
/// sampler — with per-trial traces attached. Every conditional trial
/// (recoverable, RT, DL, payload, penalty), every mission trial (event
/// count, unrecoverable count, penalty, loss bytes, downtime, per-event
/// RT/DL) and the deterministic envelope summaries must match bit-for-bit.
/// Same applicability guards as stochasticBoundOracle.
[[nodiscard]] OracleResult stochasticPlanOracle(
    const CaseSpec& spec, const OracleOptions& options = {});

/// Serial reference search vs the engine-backed parallel search over a small
/// candidate set including this case's candidate: rankings, labels, costs
/// and rejection reasons must match bit-identically.
[[nodiscard]] OracleResult searchParityOracle(const CaseSpec& spec,
                                              const OracleOptions& options = {});

/// Compiled evaluation plan vs the reference evaluator: EvalPlan::compile on
/// the case's design, then every scenario (the generated one plus a
/// site-disaster variant) evaluated through both EvalPlan::evaluate and the
/// legacy evaluate() pipeline. Every metric — feasibility, recoverability,
/// source level, RT, DL, payload, outlays, penalties, total cost, the
/// RTO/RPO verdict, and the utilization error string — must match
/// bit-for-bit.
[[nodiscard]] OracleResult planVsLegacyOracle(const CaseSpec& spec);

/// saveDesign -> loadDesign -> saveDesign fixpoint, plus bit-identical
/// evaluation of the reloaded design.
[[nodiscard]] OracleResult roundTripOracle(const CaseSpec& spec);

/// Structured-JSON fuzzing of config/design_io: deterministic random
/// mutations (drop a key, retype a value, corrupt a quantity string, nest
/// garbage) of the serialized design must produce either a successful load
/// or a DesignIoError — nothing else escapes.
[[nodiscard]] OracleResult mutationOracle(const CaseSpec& spec,
                                          const OracleOptions& options = {});

}  // namespace stordep::verify
