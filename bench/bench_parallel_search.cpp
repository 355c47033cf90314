// bench_parallel_search — throughput of the batch-evaluation engine.
//
// Runs the same ~500-candidate design-space sweep (the paper's automated
// optimization loop, on a grid denser than the default) several ways:
//
//  * the serial reference path (pre-engine: one thread, no cache, the
//    legacy evaluate());
//  * engine-backed at 1/2/4/8 threads (parallel speedup; every run's
//    ranking must match serial); every sweep compiles each candidate into
//    an evaluation plan (engine/plan.hpp) and never touches the engine's
//    cache;
//  * a streaming sweep over a >= 10k-candidate grid;
//  * the gated compile-once-evaluate-many matrix — every design under 24
//    scenario variants, serial and cold 8-thread, vs a legacy serial loop
//    over the identical pairs.
//
// Emits a JSON document on stdout so the perf trajectory can be tracked
// across PRs, and exits non-zero if the engine's results diverge from the
// serial reference (determinism is part of the contract being benchmarked)
// or if the plan path misses its throughput gates (see
// kSeedSerialEvalsPerSec below).
//
// Speedup expectations for the *thread* runs are hardware-relative: the
// container this repo is grown in may expose a single core (reported as
// hardwareThreads), in which case thread counts above it add scheduling
// overhead instead of speedup. The *plan* gates are not: compiling a design
// once and folding scenarios allocation-free must beat the legacy evaluate()
// per-eval cost by a wide margin on any hardware, so those gates fail the
// job rather than merely noting a slow machine.
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "casestudy/casestudy.hpp"
#include "config/json.hpp"
#include "engine/batch.hpp"
#include "optimizer/search.hpp"

namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;
using stordep::config::Json;
using stordep::config::JsonArray;
using stordep::config::JsonObject;

double secondsSince(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// The legacy serial evaluate() throughput recorded when the plan fast path
/// landed (single-core container, RelWithDebInfo): ~143k (design, scenario)
/// evaluations per second. The serial compile-once-evaluate-many loop must
/// clear 5x this absolute floor — the gate that keeps the cold path's
/// per-eval win from regressing silently. The in-run relative gate next to
/// it (plan >= 5x the legacy loop measured in the same process) covers
/// machines meaningfully slower or faster than the one this constant was
/// recorded on.
constexpr double kSeedSerialEvalsPerSec = 143077.0;

/// A denser grid than the default ~200-candidate space: >= 500 structurally
/// valid candidates.
std::vector<opt::CandidateSpec> denseCandidates() {
  opt::DesignSpaceOptions options;
  options.pitAccWs = {stordep::hours(6), stordep::hours(12),
                      stordep::hours(24), stordep::hours(48)};
  options.pitRetentionCounts = {2, 4};
  options.backupAccWs = {stordep::hours(24), stordep::weeks(1),
                         stordep::weeks(2)};
  options.mirrorLinkCounts = {1, 2, 4, 10};
  return opt::enumerateDesignSpace(options);
}

/// A >= 10k-point grid for the streaming sweep: dense enough that the
/// candidate vector is worth not materializing.
opt::DesignSpaceOptions bigGridOptions() {
  opt::DesignSpaceOptions options;
  options.pitAccWs = {stordep::hours(3),  stordep::hours(6),
                      stordep::hours(12), stordep::hours(24),
                      stordep::hours(48)};
  options.pitRetentionCounts = {1, 2, 4, 8};
  options.backupAccWs = {stordep::hours(24), stordep::days(3),
                         stordep::weeks(1), stordep::weeks(2)};
  options.vaultAccWs = {stordep::weeks(1), stordep::weeks(4),
                        stordep::weeks(12)};
  options.mirrorChoices = {opt::MirrorChoice::kNone, opt::MirrorChoice::kAsync,
                           opt::MirrorChoice::kAsyncBatch};
  options.mirrorLinkCounts = {1, 2, 4, 8, 16};
  return options;
}

bool sameRanking(const opt::SearchResult& a, const opt::SearchResult& b) {
  if (a.ranked.size() != b.ranked.size() ||
      a.rejected.size() != b.rejected.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].label != b.ranked[i].label ||
        a.ranked[i].totalCost.raw() != b.ranked[i].totalCost.raw() ||
        a.ranked[i].worstRecoveryTime.raw() !=
            b.ranked[i].worstRecoveryTime.raw() ||
        a.ranked[i].worstDataLoss.raw() != b.ranked[i].worstDataLoss.raw()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<opt::CandidateSpec> candidates = denseCandidates();
  const std::vector<opt::ScenarioCase> scenarios = opt::caseStudyScenarios();
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();

  const auto serialStart = std::chrono::steady_clock::now();
  const opt::SearchResult serial =
      opt::searchDesignSpaceSerial(candidates, workload, business, scenarios);
  const double serialSeconds = secondsSince(serialStart);

  Json doc{JsonObject{}};
  doc.set("bench", Json("parallel_search"));
  doc.set("compiler", Json(stordep::bench::kCompiler));
  doc.set("host", Json(stordep::bench::hostDescription()));
  doc.set("candidates", Json(static_cast<std::int64_t>(candidates.size())));
  doc.set("scenarios", Json(static_cast<std::int64_t>(scenarios.size())));
  doc.set("hardwareThreads",
          Json(static_cast<std::int64_t>(
              std::thread::hardware_concurrency())));
  doc.set("serialSeconds", Json(serialSeconds));
  doc.set("serialEvalsPerSec",
          Json(static_cast<double>(candidates.size() * scenarios.size()) /
               serialSeconds));

  bool ok = true;
  JsonArray runs;
  // The 1- and 8-thread runs double as the plan section's sweep timings.
  double sweepSerialSeconds = 0.0;
  double sweepCold8Seconds = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    stordep::engine::Engine engine(
        stordep::engine::EngineOptions{.threads = threads});
    opt::SearchOptions options;
    options.eng = &engine;

    const auto coldStart = std::chrono::steady_clock::now();
    const opt::SearchResult cold = opt::searchDesignSpace(
        candidates, workload, business, scenarios, options);
    const double coldSeconds = secondsSince(coldStart);

    if (!sameRanking(serial, cold)) {
      std::cerr << "FAIL: engine-backed ranking diverged from serial at "
                << threads << " threads\n";
      ok = false;
    }
    if (threads == 1) sweepSerialSeconds = coldSeconds;
    if (threads == 8) sweepCold8Seconds = coldSeconds;

    Json run{JsonObject{}};
    run.set("threads", Json(threads));
    run.set("coldSeconds", Json(coldSeconds));
    run.set("coldSpeedupVsSerial", Json(serialSeconds / coldSeconds));
    run.set("coldEvalsPerSec",
            Json(static_cast<double>(candidates.size() * scenarios.size()) /
                 coldSeconds));
    runs.push_back(std::move(run));
  }
  doc.set("runs", Json(std::move(runs)));

  // Streaming sweep over a >= 10k-candidate grid: the cursor drains chunks
  // into the pool without ever materializing the candidate vector. The
  // serial reference runs over the materialized vector (which also validates
  // that the cursor reproduces enumerateDesignSpace exactly), and every
  // streaming ranking must be bit-identical to it. Throughput is
  // hardware-relative like the thread runs above, so the hard guards are
  // the machine-independent contracts: no divergence, and streaming stays
  // within 30% of serial even with no cores to fan out to. Each run takes a
  // few tenths of a second, so both sides of the gate run kBigGridAttempts
  // times and the gate compares the fastest of each; every run's ranking is
  // checked.
  {
    constexpr int kBigGridAttempts = 3;
    const opt::DesignSpaceOptions bigOptions = bigGridOptions();
    const std::vector<opt::CandidateSpec> bigGrid =
        opt::enumerateDesignSpace(bigOptions);
    const auto keepFastest = [](opt::SearchResult& best,
                                opt::SearchResult run) {
      if (best.wallSeconds <= 0.0 || run.wallSeconds < best.wallSeconds) {
        best = std::move(run);
      }
    };

    opt::SearchResult bigSerial;
    for (int attempt = 0; attempt < kBigGridAttempts; ++attempt) {
      keepFastest(bigSerial, opt::searchDesignSpaceSerial(
                                 bigGrid, workload, business, scenarios));
    }

    opt::SearchResult cold;
    bool coldDiverged = false;
    for (int attempt = 0; attempt < kBigGridAttempts; ++attempt) {
      stordep::engine::Engine engine(stordep::engine::EngineOptions{});
      opt::SearchOptions searchOptions;
      searchOptions.eng = &engine;

      opt::DesignSpaceCursor coldCursor(bigOptions);
      opt::SearchResult coldRun = opt::searchDesignSpaceStreaming(
          coldCursor, workload, business, scenarios, searchOptions);
      coldDiverged = coldDiverged || !sameRanking(bigSerial, coldRun);
      keepFastest(cold, std::move(coldRun));
    }

    if (bigGrid.size() < 10000) {
      std::cerr << "FAIL: big grid produced only " << bigGrid.size()
                << " candidates (< 10000)\n";
      ok = false;
    }
    if (coldDiverged) {
      std::cerr << "FAIL: streaming sweep ranking diverged from serial on "
                << bigGrid.size() << " candidates\n";
      ok = false;
    }
    if (cold.candidatesPerSec < 0.7 * bigSerial.candidatesPerSec) {
      std::cerr << "FAIL: cold streaming sweep " << cold.candidatesPerSec
                << " candidates/sec fell below 70% of serial "
                << bigSerial.candidatesPerSec << "\n";
      ok = false;
    }

    Json big{JsonObject{}};
    big.set("candidates", Json(static_cast<std::int64_t>(bigGrid.size())));
    big.set("gridCardinality",
            Json(static_cast<std::int64_t>(opt::gridCardinality(bigOptions))));
    big.set("serialSeconds", Json(bigSerial.wallSeconds));
    big.set("serialCandidatesPerSec", Json(bigSerial.candidatesPerSec));
    big.set("coldStreamingSeconds", Json(cold.wallSeconds));
    big.set("coldStreamingCandidatesPerSec", Json(cold.candidatesPerSec));
    big.set("coldStreamingSpeedup",
            Json(cold.candidatesPerSec /
                 (bigSerial.candidatesPerSec > 0.0 ? bigSerial.candidatesPerSec
                                                   : 1.0)));
    doc.set("bigGrid", Json(std::move(big)));
  }

  // ---- Compiled-plan fast path --------------------------------------------
  // The cold-path scaling target lives here. The workload is the paper's
  // dependability matrix — every design evaluated under a *set* of failure
  // scenarios (object/array/site across a spread of recovery target ages),
  // which is exactly the shape the compile-once plan amortizes over. All of
  // these are HARD gates (they fail the job, not just note a slow machine —
  // the plan's per-eval win is not hardware-relative):
  //
  //  1. serial (1-thread) plan matrix: >= 5x evals/sec vs BOTH the in-run
  //     legacy evaluate() loop over the same pairs and the recorded seed
  //     baseline (kSeedSerialEvalsPerSec);
  //  2. cold 8-thread plan matrix: >= 4x the serial legacy wall time, even
  //     on one core (per-eval win must survive the thread fan-out).
  //
  // The plan-routed candidate *sweeps* are the per-thread runs above, whose
  // rankings are checked against serial there; their 1- and 8-thread
  // timings are reported here, not gated (a 3-scenario sweep is dominated
  // by candidate build + compile, which the matrix workload amortizes
  // away).
  {
    // The matrix workload: every design from the dense grid under 24
    // scenarios (the 3 case-study failures x 8 recovery target ages).
    // Designs that either path cannot evaluate without throwing are skipped
    // (the sweeps above have per-candidate isolation; these loops have none).
    std::vector<std::shared_ptr<const stordep::StorageDesign>> designs;
    designs.reserve(candidates.size());
    std::vector<stordep::FailureScenario> matrixScenarios;
    for (const opt::ScenarioCase& sc : scenarios) {
      for (const double ageHours : {0.0, 1.0, 6.0, 24.0, 72.0, 168.0, 336.0,
                                    720.0}) {
        stordep::FailureScenario variant = sc.scenario;
        variant.recoveryTargetAge = stordep::hours(ageHours);
        matrixScenarios.push_back(std::move(variant));
      }
    }
    for (const opt::CandidateSpec& spec : candidates) {
      try {
        stordep::StorageDesign design = spec.build(workload, business);
        for (const stordep::FailureScenario& sc : matrixScenarios) {
          (void)stordep::evaluate(design, sc);
        }
        designs.push_back(
            std::make_shared<const stordep::StorageDesign>(std::move(design)));
      } catch (const std::exception&) {
        continue;
      }
    }
    const std::size_t pairs = designs.size() * matrixScenarios.size();

    // Legacy serial reference over the same pairs, same order as the
    // matrix's design-major output.
    double legacyChecksum = 0.0;
    const auto legacyStart = std::chrono::steady_clock::now();
    for (const auto& design : designs) {
      for (const stordep::FailureScenario& sc : matrixScenarios) {
        legacyChecksum +=
            stordep::summarizeEvaluation(stordep::evaluate(*design, sc))
                .totalCost.raw();
      }
    }
    const double legacySeconds = secondsSince(legacyStart);
    const double legacyEvalsPerSec =
        static_cast<double>(pairs) / legacySeconds;

    auto matrixChecksum =
        [](const std::vector<stordep::EvaluationMetrics>& rows) {
          double sum = 0.0;
          for (const stordep::EvaluationMetrics& m : rows) {
            sum += m.totalCost.raw();
          }
          return sum;
        };

    // Gate (1): serial plan matrix (compile included — this is the cold
    // path, nothing is pre-warmed).
    stordep::engine::Engine serialEngine(
        stordep::engine::EngineOptions{.threads = 1});
    stordep::engine::Engine::PlanBatchStats serialStats;
    const auto planSerialStart = std::chrono::steady_clock::now();
    const std::vector<stordep::EvaluationMetrics> serialMatrix =
        serialEngine.evaluatePlanMatrix(designs, matrixScenarios,
                                        &serialStats);
    const double planSerialSeconds = secondsSince(planSerialStart);
    const double planSerialEvalsPerSec =
        static_cast<double>(pairs) / planSerialSeconds;

    // Gate (2): cold 8-thread plan matrix.
    stordep::engine::Engine coldEngine(
        stordep::engine::EngineOptions{.threads = 8});
    stordep::engine::Engine::PlanBatchStats coldStats;
    const auto planColdStart = std::chrono::steady_clock::now();
    const std::vector<stordep::EvaluationMetrics> coldMatrix =
        coldEngine.evaluatePlanMatrix(designs, matrixScenarios, &coldStats);
    const double planColdSeconds = secondsSince(planColdStart);
    const double planColdSpeedup = legacySeconds / planColdSeconds;

    // Every pair agrees with the legacy loop bit-for-bit: identical fold
    // order makes the checksums comparable exactly (the fuzz oracle checks
    // per-field equality; this is the cheap whole-matrix cross-check).
    if (matrixChecksum(serialMatrix) != legacyChecksum ||
        matrixChecksum(coldMatrix) != legacyChecksum) {
      std::cerr << "FAIL: plan matrix checksum diverged from the legacy "
                   "evaluate() loop\n";
      ok = false;
    }
    if (planSerialEvalsPerSec < 5.0 * legacyEvalsPerSec) {
      std::cerr << "FAIL: serial plan matrix " << planSerialEvalsPerSec
                << " evals/sec < 5x in-run legacy " << legacyEvalsPerSec
                << "\n";
      ok = false;
    }
    if (planSerialEvalsPerSec < 5.0 * kSeedSerialEvalsPerSec) {
      std::cerr << "FAIL: serial plan matrix " << planSerialEvalsPerSec
                << " evals/sec < 5x seed baseline " << kSeedSerialEvalsPerSec
                << "\n";
      ok = false;
    }
    if (planColdSpeedup < 4.0) {
      std::cerr << "FAIL: cold 8-thread plan matrix only " << planColdSpeedup
                << "x the serial legacy loop (< 4x)\n";
      ok = false;
    }

    Json plan{JsonObject{}};
    plan.set("matrixDesigns", Json(static_cast<std::int64_t>(designs.size())));
    plan.set("matrixScenarios",
             Json(static_cast<std::int64_t>(matrixScenarios.size())));
    plan.set("matrixPairs", Json(static_cast<std::int64_t>(pairs)));
    plan.set("legacySerialSeconds", Json(legacySeconds));
    plan.set("legacySerialEvalsPerSec", Json(legacyEvalsPerSec));
    plan.set("serialSeconds", Json(planSerialSeconds));
    plan.set("serialEvalsPerSec", Json(planSerialEvalsPerSec));
    plan.set("serialSpeedupVsLegacy",
             Json(planSerialEvalsPerSec / legacyEvalsPerSec));
    plan.set("serialSpeedupVsSeedBaseline",
             Json(planSerialEvalsPerSec / kSeedSerialEvalsPerSec));
    plan.set("seedBaselineEvalsPerSec", Json(kSeedSerialEvalsPerSec));
    plan.set("cold8Seconds", Json(planColdSeconds));
    plan.set("cold8SpeedupVsLegacySerial", Json(planColdSpeedup));
    plan.set("cold8PairsPerSec", Json(coldStats.pairsPerSec));
    plan.set("cold8ThreadsUsed",
             Json(static_cast<std::int64_t>(coldStats.threadsUsed)));
    plan.set("planCompiles",
             Json(static_cast<std::int64_t>(coldStats.planCompiles)));
    plan.set("sweepSerialSeconds", Json(sweepSerialSeconds));
    plan.set("sweepSerialSpeedupVsSerialSearch",
             Json(serialSeconds / sweepSerialSeconds));
    plan.set("sweepCold8Seconds", Json(sweepCold8Seconds));
    plan.set("sweepCold8SpeedupVsSerialSearch",
             Json(serialSeconds / sweepCold8Seconds));
    doc.set("plan", Json(std::move(plan)));
  }

  doc.set("ok", Json(ok));

  const std::string out = doc.pretty();
  std::cout << out << "\n";
  std::ofstream file("BENCH_parallel_search.json");
  file << out << "\n";
  return ok ? 0 : 1;
}
