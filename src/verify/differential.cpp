#include "verify/differential.hpp"

#include <cmath>
#include <exception>
#include <sstream>
#include <vector>

#include "config/design_io.hpp"
#include "core/data_loss.hpp"
#include "core/evaluator.hpp"
#include "core/propagation.hpp"
#include "engine/batch.hpp"
#include "optimizer/search.hpp"
#include "sim/failure_injector.hpp"
#include "sim/rp_simulator.hpp"
#include "stochastic/evaluator.hpp"

namespace stordep::verify {

namespace opt = stordep::optimizer;

namespace {

OracleResult pass(const std::string& name) {
  return OracleResult{name, true, true, ""};
}
OracleResult notApplicable(const std::string& name) {
  return OracleResult{name, false, true, ""};
}
OracleResult fail(const std::string& name, std::string detail) {
  return OracleResult{name, true, false, std::move(detail)};
}

std::string num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

bool bitSame(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// The slowest accumulation window in the case's hierarchy; the simulator's
/// default horizon must cover several of its cycles to reach steady state.
Duration slowestCycle(const CaseSpec& spec) {
  Duration slowest = Duration::zero();
  if (spec.candidate.pit != opt::PitChoice::kNone) {
    slowest = std::max(slowest, spec.candidate.pitAccW);
  }
  if (spec.candidate.backup != opt::BackupChoice::kNone) {
    slowest = std::max(slowest, spec.candidate.backupAccW);
  }
  if (spec.candidate.vault) {
    slowest = std::max(slowest, spec.candidate.vaultAccW);
  }
  return slowest;
}

}  // namespace

OracleResult simBoundOracle(const CaseSpec& spec,
                            const OracleOptions& options) {
  const char* kName = "sim-bound";
  if (spec.scope != FailureScope::kArray && spec.scope != FailureScope::kSite) {
    return notApplicable(kName);
  }
  StorageDesign design = makeDesign(spec);
  // The aligned-schedule bound is a theorem only for convention-conforming
  // designs (accW_i >= cyclePer_{i-1} etc.); non-conforming ones can
  // legitimately exceed the analytic worst case.
  if (!design.validate().empty()) return notApplicable(kName);
  // Steady-state retention of the slowest level must fit the horizon with
  // several cycles to spare.
  if (slowestCycle(spec) > days(7)) return notApplicable(kName);

  const FailureScenario scenario = makeScenario(spec);
  try {
    sim::RpLifecycleSimulator simulator(std::move(design), sim::RpSimOptions{});
    simulator.run();

    sim::FailureInjector injector(simulator,
                                  sim::Rng(mixSeed(spec.auxSeed, 1)));
    const sim::ValidationStats stats =
        injector.validateDataLoss(scenario, options.simSamples);
    if (stats.samples > stats.unrecoverable) {
      if (!stats.analyticWorstCase.isFinite()) {
        return fail(kName,
                    "simulator recovered data where the analytic model calls "
                    "the scenario unrecoverable");
      }
      // The paper's bound assumes grid-conforming windows; when a level's
      // accW is incommensurable with the upstream cycle, charge the capture
      // staleness (rpCaptureSlack) the aligned simulator legitimately sees.
      Duration slack = Duration::zero();
      const auto source = chooseRecoverySource(simulator.design(), scenario);
      if (source) slack = rpCaptureSlack(simulator.design(), source->level);
      const double bound = (stats.analyticWorstCase + slack).secs();
      const double eps = 1e-6 * std::max(1.0, bound);
      if (stats.maxObserved.secs() > bound + eps) {
        return fail(kName,
                    "simulated data loss exceeds the analytic worst case: "
                    "observed max " +
                        num(stats.maxObserved.raw()) + " s > bound " +
                        num(stats.analyticWorstCase.raw()) +
                        " s + capture slack " + num(slack.raw()) + " s");
      }
    }
  } catch (const std::exception& e) {
    return fail(kName, std::string("simulation threw: ") + e.what());
  }
  return pass(kName);
}

OracleResult stochasticBoundOracle(const CaseSpec& spec,
                                   const OracleOptions& options) {
  const char* kName = "stochastic-bound";
  if (spec.scope != FailureScope::kArray && spec.scope != FailureScope::kSite) {
    return notApplicable(kName);
  }
  StorageDesign design = makeDesign(spec);
  // Same applicability as simBoundOracle: the sampled-P100-under-bound
  // property is a theorem only for convention-conforming designs whose
  // slowest cycle fits the default simulation horizon.
  if (!design.validate().empty()) return notApplicable(kName);
  if (slowestCycle(spec) > days(7)) return notApplicable(kName);

  const FailureScenario scenario = makeScenario(spec);
  try {
    stochastic::StochasticOptions sopt;
    sopt.trials = options.stochasticTrials;
    sopt.seed = mixSeed(spec.auxSeed, 5);
    sopt.threads = 1;
    const stochastic::StochasticEvaluator eval(std::move(design), sopt);
    const auto result = eval.distributionFor(scenario);
    if (!result.ok()) {
      return fail(kName, "stochastic evaluation failed: " +
                             result.error().describe());
    }
    const stochastic::ScenarioDistribution& dist = result.value();
    if (!dist.rtBoundHolds) {
      return fail(kName,
                  "sampled recovery time exceeds the analytic worst case: "
                  "observed max " +
                      num(dist.rt.max) + " s > bound " +
                      num(dist.analyticWorstRt.raw()) + " s");
    }
    if (!dist.dlBoundHolds) {
      return fail(kName,
                  "sampled data loss exceeds the analytic worst case: "
                  "observed max " +
                      num(dist.dl.max) + " s > bound " +
                      num(dist.analyticWorstDl.raw()) + " s + capture slack " +
                      num(dist.dlSlack.raw()) + " s");
    }
    const auto monotone = [](const stochastic::Distribution& d) {
      if (d.count == 0) return true;
      return !std::isnan(d.p50) && !std::isnan(d.p95) && !std::isnan(d.p99) &&
             d.p50 <= d.p95 && d.p95 <= d.p99 && d.p99 <= d.max;
    };
    if (!monotone(dist.rt) || !monotone(dist.dl)) {
      return fail(kName,
                  "quantiles are not monotone: RT p50/p95/p99/max " +
                      num(dist.rt.p50) + "/" + num(dist.rt.p95) + "/" +
                      num(dist.rt.p99) + "/" + num(dist.rt.max) +
                      ", DL p50/p95/p99/max " + num(dist.dl.p50) + "/" +
                      num(dist.dl.p95) + "/" + num(dist.dl.p99) + "/" +
                      num(dist.dl.max));
    }
  } catch (const std::exception& e) {
    return fail(kName, std::string("stochastic evaluation threw: ") + e.what());
  }
  return pass(kName);
}

OracleResult stochasticPlanOracle(const CaseSpec& spec,
                                  const OracleOptions& options) {
  const char* kName = "stochastic-plan";
  if (spec.scope != FailureScope::kArray && spec.scope != FailureScope::kSite) {
    return notApplicable(kName);
  }
  StorageDesign design = makeDesign(spec);
  // Same guards as stochasticBoundOracle: the simulator must accept the
  // design and the default horizon must cover the slowest cycle.
  if (!design.validate().empty()) return notApplicable(kName);
  if (slowestCycle(spec) > days(7)) return notApplicable(kName);

  const FailureScenario scenario = makeScenario(spec);
  try {
    stochastic::StochasticOptions base;
    base.trials = options.stochasticTrials;
    base.seed = mixSeed(spec.auxSeed, 6);
    base.threads = 1;
    // Device-class failure/repair defaults apply on both sides; a nonzero
    // shock rate additionally exercises the correlated whole-site path.
    base.reliability.siteShockAnnualRate = 1.0;

    stochastic::TrialTrace planTrace;
    stochastic::TrialTrace legacyTrace;
    stochastic::StochasticOptions planOpt = base;
    planOpt.usePlan = true;
    planOpt.trace = &planTrace;
    stochastic::StochasticOptions legacyOpt = base;
    legacyOpt.usePlan = false;
    legacyOpt.trace = &legacyTrace;

    const stochastic::StochasticEvaluator viaPlan(makeDesign(spec), planOpt);
    const stochastic::StochasticEvaluator legacy(std::move(design), legacyOpt);

    const auto planCond = viaPlan.distributionFor(scenario);
    const auto legacyCond = legacy.distributionFor(scenario);
    if (!planCond.ok() || !legacyCond.ok()) {
      return fail(kName,
                  "conditional evaluation failed: " +
                      (planCond.ok() ? legacyCond.error().describe()
                                     : planCond.error().describe()));
    }
    if (planTrace.conditional.size() != legacyTrace.conditional.size()) {
      return fail(kName, "conditional trial counts differ: " +
                             std::to_string(planTrace.conditional.size()) +
                             " vs " +
                             std::to_string(legacyTrace.conditional.size()));
    }
    for (std::size_t i = 0; i < planTrace.conditional.size(); ++i) {
      const stochastic::ConditionalSample& p = planTrace.conditional[i];
      const stochastic::ConditionalSample& l = legacyTrace.conditional[i];
      if (p.recoverable != l.recoverable || !bitSame(p.rt, l.rt) ||
          !bitSame(p.dl, l.dl) || !bitSame(p.payload, l.payload) ||
          !bitSame(p.penalty, l.penalty)) {
        return fail(kName, "conditional trial " + std::to_string(i) +
                               " differs: plan rt/dl/payload/penalty " +
                               num(p.rt) + "/" + num(p.dl) + "/" +
                               num(p.payload) + "/" + num(p.penalty) +
                               " vs legacy " + num(l.rt) + "/" + num(l.dl) +
                               "/" + num(l.payload) + "/" + num(l.penalty));
      }
    }
    const auto sameDist = [](const stochastic::Distribution& a,
                             const stochastic::Distribution& b) {
      return a.count == b.count && bitSame(a.min, b.min) &&
             bitSame(a.max, b.max) && bitSame(a.mean, b.mean) &&
             bitSame(a.ci95, b.ci95) && bitSame(a.p50, b.p50) &&
             bitSame(a.p95, b.p95) && bitSame(a.p99, b.p99);
    };
    {
      const stochastic::ScenarioDistribution& p = planCond.value();
      const stochastic::ScenarioDistribution& l = legacyCond.value();
      if (p.trials != l.trials || p.unrecoverable != l.unrecoverable ||
          !sameDist(p.rt, l.rt) || !sameDist(p.dl, l.dl) ||
          !sameDist(p.penalty, l.penalty) ||
          !bitSame(p.meanPayload.raw(), l.meanPayload.raw()) ||
          !bitSame(p.expectedPenalty.raw(), l.expectedPenalty.raw())) {
        return fail(kName,
                    "conditional envelopes differ: plan penalty mean " +
                        num(p.penalty.mean) + " vs legacy " +
                        num(l.penalty.mean));
      }
    }

    const auto planMission = viaPlan.annualizedRisk();
    const auto legacyMission = legacy.annualizedRisk();
    if (!planMission.ok() || !legacyMission.ok()) {
      return fail(kName,
                  "mission evaluation failed: " +
                      (planMission.ok() ? legacyMission.error().describe()
                                        : planMission.error().describe()));
    }
    if (planTrace.mission.size() != legacyTrace.mission.size()) {
      return fail(kName, "mission trial counts differ: " +
                             std::to_string(planTrace.mission.size()) +
                             " vs " +
                             std::to_string(legacyTrace.mission.size()));
    }
    for (std::size_t i = 0; i < planTrace.mission.size(); ++i) {
      const stochastic::MissionSample& p = planTrace.mission[i];
      const stochastic::MissionSample& l = legacyTrace.mission[i];
      if (p.events != l.events || p.unrecoverable != l.unrecoverable ||
          !bitSame(p.penalty, l.penalty) ||
          !bitSame(p.lossBytes, l.lossBytes) ||
          !bitSame(p.downtimeSecs, l.downtimeSecs) ||
          p.eventRtDl != l.eventRtDl) {
        return fail(kName, "mission trial " + std::to_string(i) +
                               " differs: plan events/penalty/loss " +
                               std::to_string(p.events) + "/" +
                               num(p.penalty) + "/" + num(p.lossBytes) +
                               " vs legacy " + std::to_string(l.events) +
                               "/" + num(l.penalty) + "/" + num(l.lossBytes));
      }
    }
    {
      const stochastic::AnnualizedRisk& p = planMission.value();
      const stochastic::AnnualizedRisk& l = legacyMission.value();
      if (p.trials != l.trials || !bitSame(p.eventsPerYear, l.eventsPerYear) ||
          !bitSame(p.unrecoverableTrialFraction,
                   l.unrecoverableTrialFraction) ||
          !bitSame(p.expectedAnnualLossBytes.raw(),
                   l.expectedAnnualLossBytes.raw()) ||
          !bitSame(p.expectedAnnualPenalty.raw(),
                   l.expectedAnnualPenalty.raw()) ||
          !bitSame(p.expectedAnnualDowntimeHours,
                   l.expectedAnnualDowntimeHours) ||
          !sameDist(p.eventRt, l.eventRt) || !sameDist(p.eventDl, l.eventDl) ||
          !sameDist(p.annualPenalty, l.annualPenalty)) {
        return fail(kName,
                    "mission envelopes differ: plan annual penalty " +
                        num(p.expectedAnnualPenalty.raw()) + " vs legacy " +
                        num(l.expectedAnnualPenalty.raw()));
      }
    }
  } catch (const std::exception& e) {
    return fail(kName, std::string("stochastic-plan threw: ") + e.what());
  }
  return pass(kName);
}

OracleResult searchParityOracle(const CaseSpec& spec,
                                const OracleOptions& options) {
  const char* kName = "search-parity";
  // A small candidate set around this case: its own candidate plus random
  // neighbors drawn deterministically from the aux stream.
  std::vector<opt::CandidateSpec> candidates{spec.candidate};
  sim::Rng rng(mixSeed(spec.auxSeed, 3));
  while (static_cast<int>(candidates.size()) < options.searchCandidates) {
    const CaseSpec neighbor = generateCase(rng);
    candidates.push_back(neighbor.candidate);
  }

  const WorkloadSpec workload = makeWorkload(spec);
  const BusinessRequirements business = makeBusiness(spec);
  std::vector<opt::ScenarioCase> scenarios;
  scenarios.push_back({"generated", makeScenario(spec), 1.0});
  if (spec.scope != FailureScope::kSite) {
    CaseSpec site = spec;
    site.scope = FailureScope::kSite;
    site.targetAgeHours = 0.0;
    site.recoverySizeMB = 1.0;
    scenarios.push_back({"site", makeScenario(site), 1.0});
  }

  try {
    const opt::SearchResult serial =
        opt::searchDesignSpaceSerial(candidates, workload, business, scenarios);
    engine::Engine eng(engine::EngineOptions{.threads = options.searchThreads});
    opt::SearchOptions searchOptions;
    searchOptions.eng = &eng;
    const opt::SearchResult parallel = opt::searchDesignSpace(
        candidates, workload, business, scenarios, searchOptions);

    const auto compare = [&](const std::vector<opt::EvaluatedCandidate>& a,
                             const std::vector<opt::EvaluatedCandidate>& b,
                             const char* bucket) -> std::string {
      if (a.size() != b.size()) {
        return std::string(bucket) + " sizes differ: " +
               std::to_string(a.size()) + " vs " + std::to_string(b.size());
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].label != b[i].label) {
          return std::string(bucket) + "[" + std::to_string(i) +
                 "] labels differ: '" + a[i].label + "' vs '" + b[i].label +
                 "'";
        }
        if (!bitSame(a[i].totalCost.raw(), b[i].totalCost.raw()) ||
            !bitSame(a[i].worstRecoveryTime.raw(),
                     b[i].worstRecoveryTime.raw()) ||
            !bitSame(a[i].worstDataLoss.raw(), b[i].worstDataLoss.raw()) ||
            a[i].feasible != b[i].feasible ||
            a[i].rejectionReason != b[i].rejectionReason) {
          return std::string(bucket) + "[" + std::to_string(i) + "] ('" +
                 a[i].label + "') metrics differ: cost " +
                 num(a[i].totalCost.raw()) + " vs " +
                 num(b[i].totalCost.raw());
        }
      }
      return "";
    };
    std::string diff = compare(serial.ranked, parallel.ranked, "ranked");
    if (diff.empty()) {
      diff = compare(serial.rejected, parallel.rejected, "rejected");
    }
    if (!diff.empty()) {
      return fail(kName, "serial vs parallel search disagree: " + diff);
    }
  } catch (const std::exception& e) {
    return fail(kName, std::string("search threw: ") + e.what());
  }
  return pass(kName);
}

OracleResult planVsLegacyOracle(const CaseSpec& spec) {
  const char* kName = "plan-vs-legacy";
  try {
    const StorageDesign design = makeDesign(spec);
    const std::shared_ptr<const engine::EvalPlan> plan =
        engine::EvalPlan::compile(design);

    // The generated scenario plus a site-disaster variant, so every case
    // exercises both a partial and a total failure against the same plan.
    std::vector<std::pair<std::string, FailureScenario>> scenarios;
    scenarios.emplace_back("generated", makeScenario(spec));
    {
      CaseSpec site = spec;
      site.scope = FailureScope::kSite;
      site.targetAgeHours = 0.0;
      site.recoverySizeMB = 1.0;
      scenarios.emplace_back("site", makeScenario(site));
    }

    for (const auto& [label, scenario] : scenarios) {
      const EvaluationResult reference = evaluate(design, scenario);
      const EvaluationMetrics legacy = summarizeEvaluation(reference);
      const EvaluationMetrics viaPlan =
          plan->evaluate(scenario, engine::Engine::threadArena());

      const auto mismatch = [&](const char* field, double a,
                                double b) -> std::string {
        return "scenario '" + label + "' " + field + " differs: plan " +
               num(a) + " vs legacy " + num(b);
      };
      if (viaPlan.utilizationFeasible != legacy.utilizationFeasible) {
        return fail(kName, "scenario '" + label +
                               "' utilization feasibility differs");
      }
      if (viaPlan.recoverable != legacy.recoverable) {
        return fail(kName, "scenario '" + label + "' recoverability differs");
      }
      if (viaPlan.meetsObjectives != legacy.meetsObjectives) {
        return fail(kName, "scenario '" + label + "' RTO/RPO verdict differs");
      }
      if (viaPlan.sourceLevel != legacy.sourceLevel) {
        return fail(kName, "scenario '" + label + "' source level differs: " +
                               std::to_string(viaPlan.sourceLevel) + " vs " +
                               std::to_string(legacy.sourceLevel));
      }
      if (!bitSame(viaPlan.recoveryTime.raw(), legacy.recoveryTime.raw())) {
        return fail(kName, mismatch("recovery time", viaPlan.recoveryTime.raw(),
                                    legacy.recoveryTime.raw()));
      }
      if (!bitSame(viaPlan.dataLoss.raw(), legacy.dataLoss.raw())) {
        return fail(kName, mismatch("data loss", viaPlan.dataLoss.raw(),
                                    legacy.dataLoss.raw()));
      }
      if (!bitSame(viaPlan.payload.raw(), legacy.payload.raw())) {
        return fail(kName, mismatch("payload", viaPlan.payload.raw(),
                                    legacy.payload.raw()));
      }
      if (!bitSame(viaPlan.totalOutlays.raw(), legacy.totalOutlays.raw())) {
        return fail(kName, mismatch("outlays", viaPlan.totalOutlays.raw(),
                                    legacy.totalOutlays.raw()));
      }
      if (!bitSame(viaPlan.outagePenalty.raw(), legacy.outagePenalty.raw())) {
        return fail(kName,
                    mismatch("outage penalty", viaPlan.outagePenalty.raw(),
                             legacy.outagePenalty.raw()));
      }
      if (!bitSame(viaPlan.lossPenalty.raw(), legacy.lossPenalty.raw())) {
        return fail(kName, mismatch("loss penalty", viaPlan.lossPenalty.raw(),
                                    legacy.lossPenalty.raw()));
      }
      if (!bitSame(viaPlan.totalPenalties.raw(),
                   legacy.totalPenalties.raw()) ||
          !bitSame(viaPlan.totalCost.raw(), legacy.totalCost.raw())) {
        return fail(kName, mismatch("total cost", viaPlan.totalCost.raw(),
                                    legacy.totalCost.raw()));
      }
      // The rejection string the optimizer builds from an over-utilized
      // design must also agree with the reference's first error.
      if (!viaPlan.utilizationFeasible) {
        const std::string& referenceError =
            reference.utilization.errors.empty()
                ? std::string()
                : reference.utilization.errors[0];
        if (plan->utilizationError() != referenceError) {
          return fail(kName, "utilization error strings differ: plan '" +
                                 plan->utilizationError() + "' vs legacy '" +
                                 referenceError + "'");
        }
      }
    }
  } catch (const std::exception& e) {
    return fail(kName, std::string("plan-vs-legacy threw: ") + e.what());
  }
  return pass(kName);
}

OracleResult roundTripOracle(const CaseSpec& spec) {
  const char* kName = "round-trip";
  try {
    const StorageDesign design = makeDesign(spec);
    const std::string once = config::saveDesign(design);
    const StorageDesign reloaded = config::loadDesign(once);
    const std::string twice = config::saveDesign(reloaded);
    if (once != twice) {
      return fail(kName,
                  "saveDesign(loadDesign(s)) is not a fixpoint; first "
                  "divergence at byte " +
                      std::to_string(std::mismatch(once.begin(), once.end(),
                                                   twice.begin(), twice.end())
                                         .first -
                                     once.begin()));
    }
    const FailureScenario scenario = makeScenario(spec);
    const EvaluationResult a = evaluate(design, scenario);
    const EvaluationResult b = evaluate(reloaded, scenario);
    if (!bitSame(a.recovery.recoveryTime.raw(), b.recovery.recoveryTime.raw()) ||
        !bitSame(a.recovery.dataLoss.raw(), b.recovery.dataLoss.raw()) ||
        !bitSame(a.cost.totalCost.raw(), b.cost.totalCost.raw())) {
      return fail(kName,
                  "reloaded design evaluates differently: RT " +
                      num(a.recovery.recoveryTime.raw()) + " vs " +
                      num(b.recovery.recoveryTime.raw()) + ", cost " +
                      num(a.cost.totalCost.raw()) + " vs " +
                      num(b.cost.totalCost.raw()));
    }
  } catch (const std::exception& e) {
    return fail(kName, std::string("round-trip threw: ") + e.what());
  }
  return pass(kName);
}

namespace {

/// Collects pointers to every node in the document (pre-order).
void collectNodes(config::Json& node, std::vector<config::Json*>& out) {
  out.push_back(&node);
  if (node.isArray()) {
    for (config::Json& child : node.asArray()) collectNodes(child, out);
  } else if (node.isObject()) {
    for (auto& [key, child] : node.asObject()) collectNodes(child, out);
  }
}

/// Applies one random structural mutation in place.
void mutateOnce(config::Json& doc, sim::Rng& rng) {
  std::vector<config::Json*> nodes;
  collectNodes(doc, nodes);
  config::Json& victim = *nodes[rng.uniformInt(nodes.size())];
  switch (rng.uniformInt(6)) {
    case 0:  // retype to null
      victim = config::Json(nullptr);
      break;
    case 1:  // retype to a garbage string (also corrupts quantity strings)
      victim = config::Json("12 parsecs");
      break;
    case 2:  // negative / absurd number
      victim = config::Json(rng.uniform() < 0.5 ? -1.0 : 1e308);
      break;
    case 3:  // drop a member, if an object with members
      if (victim.isObject() && !victim.asObject().empty()) {
        config::JsonObject& members = victim.asObject();
        members.erase(members.begin() +
                      static_cast<std::ptrdiff_t>(
                          rng.uniformInt(members.size())));
      } else {
        victim = config::Json(true);
      }
      break;
    case 4:  // duplicate-ish junk member
      if (victim.isObject()) {
        victim.set("fuzz", config::Json(-3.5));
      } else {
        victim = config::Json(config::JsonObject{});
      }
      break;
    default:  // swallow into an array
      victim = config::Json(config::JsonArray{config::Json(1.0)});
      break;
  }
}

}  // namespace

OracleResult mutationOracle(const CaseSpec& spec,
                            const OracleOptions& options) {
  const char* kName = "mutation";
  config::Json base;
  try {
    base = config::designToJson(makeDesign(spec));
  } catch (const std::exception& e) {
    return fail(kName, std::string("serializing the design threw: ") + e.what());
  }
  sim::Rng rng(mixSeed(spec.auxSeed, 4));
  for (int i = 0; i < options.mutations; ++i) {
    config::Json mutated = base;
    const int edits = 1 + static_cast<int>(rng.uniformInt(3));
    for (int e = 0; e < edits; ++e) mutateOnce(mutated, rng);
    const std::string text = mutated.dump();
    try {
      (void)config::loadDesign(text);
    } catch (const config::DesignIoError&) {
      // expected failure mode
    } catch (const std::exception& e) {
      return fail(kName,
                  std::string("mutated design leaked a non-DesignIoError (") +
                      e.what() + "); document: " + text.substr(0, 400));
    }
  }
  return pass(kName);
}

}  // namespace stordep::verify
