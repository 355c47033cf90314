#include "optimizer/search.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "casestudy/casestudy.hpp"
#include "optimizer/checkpoint.hpp"
#include "stochastic/evaluator.hpp"

namespace stordep::optimizer {

namespace {

/// Expected-penalty objective parameters; null pointer = worst-case mode
/// (the default, kept bit-identical to the serial reference).
struct StochasticObjectiveSpec {
  int trials = 512;
  std::uint64_t seed = 1;
};

/// Folds one scenario evaluation into the candidate summary. Returns false
/// when the candidate is infeasible and the scenario loop should stop (the
/// same early-out the serial reference takes).
bool foldScenario(EvaluatedCandidate& out, const EvaluationResult& result,
                  const ScenarioCase& sc, bool& outlaysRecorded) {
  if (!result.utilization.feasible()) {
    out.feasible = false;
    out.rejectionReason = "over-utilized: " + result.utilization.errors[0];
    return false;
  }
  if (!result.recovery.recoverable) {
    out.feasible = false;
    out.rejectionReason = "unrecoverable under scenario '" + sc.name + "'";
    return false;
  }
  if (!result.meetsObjectives) {
    out.meetsObjectives = false;
    out.rejectionReason = "misses RTO/RPO under scenario '" + sc.name + "'";
  }
  if (!outlaysRecorded) {
    out.outlays = result.cost.totalOutlays;  // scenario-independent
    outlaysRecorded = true;
  }
  out.weightedPenalties += result.cost.totalPenalties * sc.weight;
  out.worstRecoveryTime =
      std::max(out.worstRecoveryTime, result.recovery.recoveryTime);
  out.worstDataLoss = std::max(out.worstDataLoss, result.recovery.dataLoss);
  return true;
}

/// Evaluates one candidate through a compiled plan: the design is
/// recompiled into the calling thread's engine::EvalPlan, whose tables keep
/// their capacity from candidate to candidate, and every scenario folds
/// through EvalPlan::evaluate on the thread's bump arena — no per-eval heap
/// allocation, no cache traffic, no shard locks. Field for field this
/// reproduces the serial reference's foldScenario (the plan contract
/// guarantees bit-identical metrics; the plan-vs-legacy oracle enforces it),
/// including the exact rejection strings. `stochastic` non-null selects the
/// expected-penalty objective. Never throws: a build, compile or evaluation
/// failure is captured as EvaluatedCandidate::error, isolating it to this
/// candidate.
EvaluatedCandidate evaluateViaPlan(const CandidateSpec& spec,
                                   const WorkloadSpec& workload,
                                   const BusinessRequirements& business,
                                   const std::vector<ScenarioCase>& scenarios,
                                   const StochasticObjectiveSpec* stochastic) {
  EvaluatedCandidate out;
  out.spec = spec;
  out.feasible = true;
  out.meetsObjectives = true;

  try {
    const StorageDesign design = spec.build(workload, business);
    out.label = design.name();  // build() names the design spec.label()
    // Separate from EvalPlan::compile's own per-thread plan, which the
    // expected-penalty sampler below compiles into.
    thread_local engine::EvalPlan plan;
    plan.recompile(design);

    bool outlaysRecorded = false;
    // Per-scenario worst-case penalty contributions, kept in fold order so
    // the expected-penalty objective can fall back scenario-by-scenario.
    std::vector<Money> analyticPenalties;
    for (const ScenarioCase& sc : scenarios) {
      // Scenario-independent, but checked inside the loop so an empty
      // scenario set leaves the candidate untouched, like the legacy fold.
      if (!plan.utilizationFeasible()) {
        out.feasible = false;
        out.rejectionReason = "over-utilized: " + plan.utilizationError();
        break;
      }
      const EvaluationMetrics m =
          plan.evaluate(sc.scenario, engine::Engine::threadArena());
      if (!m.recoverable) {
        out.feasible = false;
        out.rejectionReason = "unrecoverable under scenario '" + sc.name + "'";
        break;
      }
      if (!m.meetsObjectives) {
        out.meetsObjectives = false;
        out.rejectionReason = "misses RTO/RPO under scenario '" + sc.name + "'";
      }
      if (!outlaysRecorded) {
        out.outlays = m.totalOutlays;  // scenario-independent
        outlaysRecorded = true;
      }
      out.weightedPenalties += m.totalPenalties * sc.weight;
      out.worstRecoveryTime = std::max(out.worstRecoveryTime, m.recoveryTime);
      out.worstDataLoss = std::max(out.worstDataLoss, m.dataLoss);
      if (stochastic != nullptr) {
        analyticPenalties.push_back(m.totalPenalties * sc.weight);
      }
    }

    // Expected-penalty objective: replace the worst-case penalty term with
    // the Monte-Carlo expectation. Trials run serially (the candidate loop
    // is already parallel) from a fixed root seed, so rankings stay
    // deterministic. Scenarios the simulation cannot serve keep their
    // worst-case contribution; a design the simulator rejects outright
    // keeps all of them.
    if (stochastic != nullptr && out.feasible && out.meetsObjectives &&
        analyticPenalties.size() == scenarios.size()) {
      try {
        stochastic::StochasticOptions sopt;
        sopt.trials = stochastic->trials;
        sopt.seed = stochastic->seed;
        sopt.threads = 1;
        const stochastic::StochasticEvaluator sampler(design, sopt);
        Money expected = Money::zero();
        for (std::size_t j = 0; j < scenarios.size(); ++j) {
          const auto dist = sampler.distributionFor(scenarios[j].scenario);
          if (dist.ok() && dist.value().expectedPenalty.isFinite()) {
            expected += dist.value().expectedPenalty * scenarios[j].weight;
          } else {
            expected += analyticPenalties[j];
          }
        }
        out.weightedPenalties = expected;
      } catch (...) {
        // Simulator rejected the design; the analytic worst-case penalties
        // already accumulated stand.
      }
    }
  } catch (...) {
    // build(), compile or an evaluation rejected the candidate.
    out.label = spec.label();
    out.error = engine::errorFromCurrentException();
  }

  if (out.error) {
    out.feasible = false;
    out.rejectionReason = "evaluation failed: " + out.error->describe();
  }
  out.totalCost = out.outlays + out.weightedPenalties;
  return out;
}

/// Deterministic ranking shared by all search paths: totalCost, then label.
/// Sorts small keys instead of whole candidates and moves each candidate
/// once. std::sort's moves depend only on its comparator's answers, so the
/// order, ties included, is the one a sort of the candidates gives.
void rankCandidates(SearchResult& result,
                    std::vector<EvaluatedCandidate> evaluated) {
  struct Key {
    Money totalCost;
    const std::string* label;
    std::size_t index;
  };
  std::vector<Key> keys;
  keys.reserve(evaluated.size());
  for (std::size_t i = 0; i < evaluated.size(); ++i) {
    const EvaluatedCandidate& candidate = evaluated[i];
    ++result.evaluated;
    if (candidate.error) ++result.failed;
    if (candidate.feasible && candidate.meetsObjectives) {
      keys.push_back(Key{candidate.totalCost, &candidate.label, i});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.totalCost != b.totalCost) return a.totalCost < b.totalCost;
    return *a.label < *b.label;  // deterministic tie-break
  });
  result.ranked.reserve(keys.size());
  for (const Key& key : keys) {
    result.ranked.push_back(std::move(evaluated[key.index]));
  }
  // A moved-from candidate keeps its flags, so this pass still tells them
  // apart.
  result.rejected.reserve(evaluated.size() - keys.size());
  for (EvaluatedCandidate& candidate : evaluated) {
    if (!(candidate.feasible && candidate.meetsObjectives)) {
      result.rejected.push_back(std::move(candidate));
    }
  }
}

/// Fills the throughput fields every search path reports (evaluated counts
/// both computed and journal-restored candidates).
void finalizeThroughput(SearchResult& result,
                        std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.wallSeconds = elapsed.count();
  result.candidatesPerSec =
      result.wallSeconds > 0.0
          ? static_cast<double>(result.evaluated) / result.wallSeconds
          : 0.0;
}

}  // namespace

SearchResult rankEvaluated(std::vector<EvaluatedCandidate> evaluated) {
  SearchResult result;
  rankCandidates(result, std::move(evaluated));
  return result;
}

EvaluatedCandidate evaluateCandidate(
    const CandidateSpec& spec, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios, engine::Engine* /*eng*/,
    bool /*usePlan*/) {
  return evaluateViaPlan(spec, workload, business, scenarios, nullptr);
}

namespace {

/// The one candidate loop behind every sweep: drains `next` in
/// SearchOptions::streamChunk-sized waves and fans each wave across the
/// engine's pool. Each wave appends its slots to the list the ranking reads
/// and every result is written straight into its own slot, so the ranking
/// sees exactly the serial order, and peak memory is O(streamChunk)
/// materialized candidates on top of the evaluated ones, regardless of how
/// many `next` yields. A cancel stops the loop after the wave it lands in;
/// that wave's un-evaluated slots are dropped, only the candidates that
/// completed are ranked, and a checkpoint journal resumes the rest.
SearchResult sweepWaves(const std::function<bool(CandidateSpec&)>& next,
                        const WorkloadSpec& workload,
                        const BusinessRequirements& business,
                        const std::vector<ScenarioCase>& scenarios,
                        const SearchOptions& options) {
  const auto startTime = std::chrono::steady_clock::now();
  engine::Engine& resolved =
      options.eng != nullptr ? *options.eng : engine::Engine::shared();

  engine::CancellationToken token = options.token;
  if (options.deadline.count() > 0) {
    token = token.withDeadline(options.deadline);
  }
  const bool cancellable = token.cancellable();

  const StochasticObjectiveSpec stochasticSpec{options.stochasticTrials,
                                               options.stochasticSeed};
  const StochasticObjectiveSpec* stochastic =
      options.objective == Objective::kExpectedPenalty ? &stochasticSpec
                                                       : nullptr;

  std::unique_ptr<CheckpointJournal> journal;
  if (!options.checkpointPath.empty()) {
    journal = std::make_unique<CheckpointJournal>(
        options.checkpointPath,
        fingerprintSearchContext(workload, business, scenarios),
        options.checkpointEvery);
  }

  SearchResult result;
  std::vector<EvaluatedCandidate> finished;

  // Wave buffers, reused across chunks.
  const std::size_t chunkSize = std::max<std::size_t>(1, options.streamChunk);
  std::vector<CandidateSpec> chunk;
  chunk.reserve(chunkSize);
  std::vector<engine::Fingerprint> keys;
  // Marks the wave's slots holding a finished evaluation (vector<char>:
  // written concurrently per index).
  std::vector<char> completed;

  bool stopped = false;
  CandidateSpec spec;
  while (!stopped) {
    chunk.clear();
    while (chunk.size() < chunkSize && next(spec)) {
      chunk.push_back(spec);
    }
    if (chunk.empty()) break;

    if (journal) {
      keys.clear();
      keys.reserve(chunk.size());
      for (const CandidateSpec& c : chunk) {
        keys.push_back(fingerprintCandidate(c));
      }
    }
    // Chunk entry i lands in finished[base + i].
    const std::size_t base = finished.size();
    finished.resize(base + chunk.size());
    completed.assign(chunk.size(), 0);
    // Resume: restore journaled candidates before fanning out, so the wave
    // spends its budget only on un-finished work.
    if (journal) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (const EvaluatedCandidate* record = journal->find(keys[i])) {
          finished[base + i] = *record;
          finished[base + i].spec = chunk[i];  // journal stores metrics only
          completed[i] = 1;
          ++result.skipped;
        }
      }
    }

    const bool ranAll = resolved.parallelForCancellable(
        chunk.size(),
        [&](std::size_t i) {
          if (completed[i] != 0) return;  // restored from the journal
          if (cancellable && token.cancelled()) return;
          EvaluatedCandidate& slot = finished[base + i];
          slot = evaluateViaPlan(chunk[i], workload, business, scenarios,
                                 stochastic);
          completed[i] = 1;
          // Only clean evaluations are journaled: a failed candidate is
          // re-attempted on resume, not pinned.
          if (journal && !slot.error) journal->record(keys[i], slot);
        },
        token);

    // Drop the slots a cancellation left un-evaluated, keeping the order of
    // the rest.
    std::size_t kept = base;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (completed[i] == 0) {
        stopped = true;
        continue;
      }
      if (kept != base + i) finished[kept] = std::move(finished[base + i]);
      ++kept;
    }
    finished.resize(kept);
    if (!ranAll) stopped = true;
    if (options.onProgress) options.onProgress(finished.size());
    if (options.waveDelay.count() > 0 && !stopped) {
      std::this_thread::sleep_for(options.waveDelay);
    }
  }
  if (journal) journal->flush();

  result.cancelled = stopped;
  rankCandidates(result, std::move(finished));
  finalizeThroughput(result, startTime);
  return result;
}

}  // namespace

SearchResult searchDesignSpace(const std::vector<CandidateSpec>& candidates,
                               const WorkloadSpec& workload,
                               const BusinessRequirements& business,
                               const std::vector<ScenarioCase>& scenarios,
                               const SearchOptions& options) {
  std::size_t next = 0;
  return sweepWaves(
      [&](CandidateSpec& out) {
        if (next == candidates.size()) return false;
        out = candidates[next++];
        return true;
      },
      workload, business, scenarios, options);
}

SearchResult searchDesignSpaceStreaming(DesignSpaceCursor& cursor,
                                        const WorkloadSpec& workload,
                                        const BusinessRequirements& business,
                                        const std::vector<ScenarioCase>& scenarios,
                                        const SearchOptions& options) {
  return sweepWaves([&](CandidateSpec& out) { return cursor.next(out); },
                    workload, business, scenarios, options);
}

SearchResult searchDesignSpaceSerial(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios) {
  const auto startTime = std::chrono::steady_clock::now();
  std::vector<EvaluatedCandidate> evaluated;
  evaluated.reserve(candidates.size());
  for (const CandidateSpec& spec : candidates) {
    EvaluatedCandidate out;
    out.spec = spec;
    out.label = spec.label();
    out.feasible = true;
    out.meetsObjectives = true;

    const StorageDesign design = spec.build(workload, business);
    bool outlaysRecorded = false;
    for (const ScenarioCase& sc : scenarios) {
      const EvaluationResult result = evaluate(design, sc.scenario);
      if (!foldScenario(out, result, sc, outlaysRecorded)) break;
    }
    out.totalCost = out.outlays + out.weightedPenalties;
    evaluated.push_back(std::move(out));
  }

  SearchResult result;
  rankCandidates(result, std::move(evaluated));
  finalizeThroughput(result, startTime);
  return result;
}

std::vector<EvaluatedCandidate> paretoFrontier(
    const std::vector<EvaluatedCandidate>& candidates) {
  auto dominates = [](const EvaluatedCandidate& a,
                      const EvaluatedCandidate& b) {
    const bool geAll = a.outlays <= b.outlays &&
                       a.worstRecoveryTime <= b.worstRecoveryTime &&
                       a.worstDataLoss <= b.worstDataLoss;
    const bool gtAny = a.outlays < b.outlays ||
                       a.worstRecoveryTime < b.worstRecoveryTime ||
                       a.worstDataLoss < b.worstDataLoss;
    return geAll && gtAny;
  };

  std::vector<EvaluatedCandidate> frontier;
  for (const EvaluatedCandidate& candidate : candidates) {
    if (!candidate.feasible) continue;
    bool dominated = false;
    for (const EvaluatedCandidate& other : candidates) {
      if (!other.feasible) continue;
      if (dominates(other, candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(candidate);
  }
  std::sort(frontier.begin(), frontier.end(),
            [](const EvaluatedCandidate& a, const EvaluatedCandidate& b) {
              if (a.outlays != b.outlays) return a.outlays < b.outlays;
              return a.label < b.label;
            });
  // Identical metric triples would all survive domination; keep the first
  // of each (deterministic by label through the sort above).
  std::vector<EvaluatedCandidate> unique;
  for (auto& candidate : frontier) {
    const bool duplicate =
        !unique.empty() && unique.back().outlays == candidate.outlays &&
        unique.back().worstRecoveryTime == candidate.worstRecoveryTime &&
        unique.back().worstDataLoss == candidate.worstDataLoss;
    if (!duplicate) unique.push_back(std::move(candidate));
  }
  return unique;
}

std::vector<ScenarioCase> caseStudyScenarios() {
  return {
      ScenarioCase{"object failure", casestudy::objectFailure(), 1.0},
      ScenarioCase{"array failure", casestudy::arrayFailure(), 1.0},
      ScenarioCase{"site disaster", casestudy::siteDisaster(), 1.0},
  };
}

}  // namespace stordep::optimizer
