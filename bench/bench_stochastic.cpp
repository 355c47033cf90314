// bench_stochastic — throughput, speedup and determinism gate for the
// Monte-Carlo layer.
//
// Three modes of the same workload run back to back: the legacy per-trial
// sampler (usePlan=false, 1 thread), the compiled TrialPlan serially, and
// the TrialPlan fanned out over 8 threads. The bench hard-fails unless
//
//   * the serial plan runs the 10,000-trial conditional distribution at
//     >= 5x the in-run legacy rate AND >= 5x the recorded seed baseline
//     (kSeedLegacyConditionalTrialsPerSec) — the compile-once fast path
//     must stay an order-of-magnitude win, not drift back to parity;
//   * the 8-thread plan finishes the replay-heavy 2,000-trial mission
//     sample in <= 1/4 of the serial legacy wall time, even on one core;
//   * every mode agrees on every bit of the result envelope — parallelism
//     and the plan are wall-time knobs, never result knobs.
//
// Each mode repeats its run (same trials, same seed) until the trial loops it
// timed add up to at least kMinTimedSeconds, and the rate gates read each
// mode's best repetition: a single 10,000-trial plan loop takes a few
// milliseconds, too short to gate on a shared host. Every repetition's
// envelope must still be bit-identical to every other mode's.
//
// The mission workload overrides every device to a 30-day exponential
// failure process (12-hour repairs) plus 2 site shocks/year, so trials are
// replay-heavy (~40 events/year) rather than RNG-bound; that is the regime
// the plan's precompiled scenario rows accelerate.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "bench_host.hpp"
#include "casestudy/casestudy.hpp"
#include "config/json.hpp"
#include "core/reliability.hpp"
#include "report/report.hpp"
#include "stochastic/evaluator.hpp"

namespace {

namespace cs = stordep::casestudy;
namespace st = stordep::stochastic;
using stordep::config::Json;
using stordep::config::JsonObject;

constexpr int kConditionalTrials = 10'000;
constexpr int kMissionTrials = 2'000;

// Legacy serial conditional throughput on the seed machine (trials/sec,
// weekly vault F+I, array failure, 10k trials). The serial plan must beat
// 5x this recorded floor as well as 5x the in-run legacy rate, so a
// regression shows up even if the legacy loop slows down alongside it.
constexpr double kSeedLegacyConditionalTrialsPerSec = 574771.0;
constexpr double kConditionalSpeedupFloor = 5.0;
// The 8-thread plan must finish the mission sample in <= wall/this of the
// serial legacy loop.
constexpr double kMissionSpeedupFloor = 4.0;
// Each mode repeats its run until the trial loops it timed add up to this.
constexpr double kMinTimedSeconds = 0.100;

st::StochasticOptions optionsFor(int threads, bool usePlan) {
  st::StochasticOptions opts;
  opts.trials = kConditionalTrials;
  opts.seed = 7;
  opts.threads = threads;
  opts.usePlan = usePlan;
  opts.sim.horizon = stordep::days(250);
  return opts;
}

/// Replay-heavy mission reliability: every storage device fails every ~30
/// days and repairs in ~12 hours, plus correlated site shocks.
stordep::ReliabilitySpec missionReliability(const stordep::StorageDesign&
                                                design) {
  stordep::ReliabilitySpec spec;
  spec.siteShockAnnualRate = 2.0;
  for (const auto& [device, rel] : resolveReliability(design, spec)) {
    stordep::DeviceReliability heavy;
    heavy.failure = {stordep::ProcessKind::kExponential, stordep::days(30),
                     1.0};
    heavy.repair = {stordep::ProcessKind::kExponential, stordep::hours(12),
                    1.0};
    spec.devices[device->name()] = heavy;
  }
  return spec;
}

bool identical(double a, double b) {
  // Bit-identity including the NaN/Inf cases the envelope can carry.
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b;
}

bool identical(const st::Distribution& a, const st::Distribution& b) {
  return a.count == b.count && identical(a.min, b.min) &&
         identical(a.max, b.max) && identical(a.mean, b.mean) &&
         identical(a.ci95, b.ci95) && identical(a.p50, b.p50) &&
         identical(a.p95, b.p95) && identical(a.p99, b.p99);
}

bool identical(const st::ScenarioDistribution& a,
               const st::ScenarioDistribution& b) {
  // Field-by-field on the deterministic envelope; the wallSeconds /
  // trialsPerSec / usedPlan trio varies by construction and is excluded.
  return a.trials == b.trials && a.unrecoverable == b.unrecoverable &&
         identical(a.rt, b.rt) && identical(a.dl, b.dl) &&
         identical(a.penalty, b.penalty) &&
         identical(a.minPayload.bytes(), b.minPayload.bytes()) &&
         identical(a.meanPayload.bytes(), b.meanPayload.bytes()) &&
         identical(a.maxPayload.bytes(), b.maxPayload.bytes()) &&
         identical(a.expectedPenalty.usd(), b.expectedPenalty.usd());
}

bool identical(const st::AnnualizedRisk& a, const st::AnnualizedRisk& b) {
  return a.trials == b.trials && identical(a.eventsPerYear, b.eventsPerYear) &&
         identical(a.unrecoverableTrialFraction,
                   b.unrecoverableTrialFraction) &&
         identical(a.expectedAnnualLossBytes.bytes(),
                   b.expectedAnnualLossBytes.bytes()) &&
         identical(a.expectedAnnualPenalty.usd(),
                   b.expectedAnnualPenalty.usd()) &&
         identical(a.expectedAnnualDowntimeHours,
                   b.expectedAnnualDowntimeHours) &&
         identical(a.eventRt, b.eventRt) && identical(a.eventDl, b.eventDl) &&
         identical(a.annualPenalty, b.annualPenalty);
}

struct Mode {
  const char* label;
  int threads;
  bool usePlan;
};

constexpr Mode kModes[] = {
    {"legacy", 1, false},
    {"plan", 1, true},
    {"plan", 8, true},
};

/// One mode's repetitions: the fastest envelope (by its own trial-loop
/// wall clock) and how many runs it took to time kMinTimedSeconds.
template <typename Envelope>
struct Repeated {
  Envelope best;
  int repetitions = 0;
};

/// Runs `run` (returning engine::Expected<Envelope>) until the summed
/// wallSeconds reach kMinTimedSeconds. Every envelope must be bit-identical
/// to `reference`, which the first envelope of the first mode sets; a
/// mismatch clears `allIdentical`. Returns nullopt if a run errors.
template <typename Envelope, typename Run>
std::optional<Repeated<Envelope>> repeatTimed(
    Run run, std::optional<Envelope>& reference, bool& allIdentical) {
  Repeated<Envelope> out;
  double timed = 0.0;
  while (timed < kMinTimedSeconds) {
    auto outcome = run();
    if (!outcome.ok()) {
      std::cerr << "FAIL: evaluation errored: " << outcome.error().describe()
                << "\n";
      return std::nullopt;
    }
    const Envelope& envelope = outcome.value();
    if (!reference) {
      reference = envelope;
    } else if (!identical(*reference, envelope)) {
      allIdentical = false;
    }
    if (out.repetitions == 0 || envelope.wallSeconds < out.best.wallSeconds) {
      out.best = envelope;
    }
    timed += envelope.wallSeconds;
    ++out.repetitions;
  }
  return out;
}

}  // namespace

int main() {
  using stordep::report::Align;
  using stordep::report::TextTable;
  using stordep::report::fixed;

  const stordep::StorageDesign design = cs::weeklyVaultFullPlusIncremental();
  const stordep::FailureScenario scenario = cs::arrayFailure();

  TextTable table({"Phase", "Mode", "Threads", "Trials", "Reps",
                   "Best wall (s)", "Trials/sec"});
  for (size_t c = 2; c < 7; ++c) table.align(c, Align::kRight);
  table.title("Monte-Carlo throughput (weekly vault F+I, array failure)");

  bool ok = true;
  Json doc{JsonObject{}};
  doc.set("bench", Json("stochastic"));
  doc.set("conditionalTrials",
          Json(static_cast<std::int64_t>(kConditionalTrials)));
  doc.set("missionTrials", Json(static_cast<std::int64_t>(kMissionTrials)));
  doc.set("seedLegacyConditionalTrialsPerSec",
          Json(kSeedLegacyConditionalTrialsPerSec));
  doc.set("compiler", Json(stordep::bench::kCompiler));
  doc.set("host", Json(stordep::bench::hostDescription()));

  // --- Conditional distribution: legacy, plan serial, plan 8T ------------
  std::optional<st::ScenarioDistribution> condReference;
  bool condIdentical = true;
  double condRate[3] = {0, 0, 0};
  int condReps[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const Mode& mode = kModes[i];
    const st::StochasticEvaluator eval(design,
                                       optionsFor(mode.threads, mode.usePlan));
    const auto runs = repeatTimed<st::ScenarioDistribution>(
        [&] { return eval.distributionFor(scenario); }, condReference,
        condIdentical);
    if (!runs) return 1;
    // The envelope's own timing covers exactly the trial loop (the part the
    // plan compiles away), not the shared quantile post-pass.
    condRate[i] = runs->best.trialsPerSec;
    condReps[i] = runs->repetitions;
    table.addRow({"conditional", mode.label, std::to_string(mode.threads),
                  std::to_string(kConditionalTrials),
                  std::to_string(condReps[i]),
                  fixed(runs->best.wallSeconds, 4), fixed(condRate[i], 0)});
  }
  if (!condIdentical) {
    std::cerr << "FAIL: conditional envelope differs across modes or "
                 "repetitions (plan-vs-legacy / thread-count determinism "
                 "broken)\n";
    ok = false;
  }
  const double condSpeedup = condRate[1] / condRate[0];
  if (condSpeedup < kConditionalSpeedupFloor) {
    std::cerr << "FAIL: serial plan conditional speedup " << condSpeedup
              << "x < required " << kConditionalSpeedupFloor
              << "x over the in-run legacy loop\n";
    ok = false;
  }
  if (condRate[1] <
      kConditionalSpeedupFloor * kSeedLegacyConditionalTrialsPerSec) {
    std::cerr << "FAIL: serial plan conditional rate " << condRate[1]
              << " trials/s < required "
              << kConditionalSpeedupFloor * kSeedLegacyConditionalTrialsPerSec
              << " (5x the recorded seed-machine legacy baseline)\n";
    ok = false;
  }

  // --- Mission-window sample: replay-heavy reliability --------------------
  const stordep::ReliabilitySpec heavy = missionReliability(design);
  std::optional<st::AnnualizedRisk> missionReference;
  bool missionIdentical = true;
  double missionWall[3] = {0, 0, 0};
  double missionRate[3] = {0, 0, 0};
  int missionReps[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const Mode& mode = kModes[i];
    st::StochasticOptions opts = optionsFor(mode.threads, mode.usePlan);
    opts.trials = kMissionTrials;
    opts.reliability = heavy;
    const st::StochasticEvaluator eval(design, opts);
    const auto runs = repeatTimed<st::AnnualizedRisk>(
        [&] { return eval.annualizedRisk(); }, missionReference,
        missionIdentical);
    if (!runs) return 1;
    missionWall[i] = runs->best.wallSeconds;
    missionRate[i] = runs->best.trialsPerSec;
    missionReps[i] = runs->repetitions;
    table.addRow({"mission", mode.label, std::to_string(mode.threads),
                  std::to_string(kMissionTrials),
                  std::to_string(missionReps[i]), fixed(missionWall[i], 4),
                  fixed(missionRate[i], 0)});
  }
  if (!missionIdentical) {
    std::cerr << "FAIL: annualized-risk envelope differs across modes or "
                 "repetitions (plan-vs-legacy / thread-count determinism "
                 "broken)\n";
    ok = false;
  }
  const double missionSpeedup = missionWall[0] / missionWall[2];
  if (missionSpeedup < kMissionSpeedupFloor) {
    std::cerr << "FAIL: 8-thread plan mission wall " << missionWall[2]
              << " s is only " << missionSpeedup << "x faster than the "
              << "serial legacy wall " << missionWall[0] << " s (need "
              << kMissionSpeedupFloor << "x)\n";
    ok = false;
  }

  std::cout << table.render();
  std::cout << "\nconditional plan speedup (serial, in-run): "
            << fixed(condSpeedup, 1)
            << "x\nmission plan-8T speedup over legacy serial: "
            << fixed(missionSpeedup, 1)
            << "x\nall modes bit-identical and gates met: "
            << (ok ? "yes" : "NO") << "\n";

  const auto repetitions = [](const int (&reps)[3]) {
    Json out{JsonObject{}};
    out.set("legacy1T", Json(reps[0]));
    out.set("plan1T", Json(reps[1]));
    out.set("plan8T", Json(reps[2]));
    return out;
  };
  doc.set("conditionalRepetitions", repetitions(condReps));
  doc.set("missionRepetitions", repetitions(missionReps));
  doc.set("conditionalLegacyTrialsPerSec1T", Json(condRate[0]));
  doc.set("conditionalTrialsPerSec1T", Json(condRate[1]));
  doc.set("conditionalTrialsPerSec8T", Json(condRate[2]));
  doc.set("conditionalPlanSpeedup", Json(condSpeedup));
  doc.set("missionLegacyTrialsPerSec1T", Json(missionRate[0]));
  doc.set("missionTrialsPerSec1T", Json(missionRate[1]));
  doc.set("missionTrialsPerSec8T", Json(missionRate[2]));
  doc.set("missionPlan8TSpeedup", Json(missionSpeedup));
  doc.set("eventsPerYear", Json(missionReference->eventsPerYear));
  doc.set("deterministic", Json(ok));
  doc.set("ok", Json(ok));

  const std::string out = doc.pretty();
  std::cout << out << "\n";
  std::ofstream file("BENCH_stochastic.json");
  file << out << "\n";
  return ok ? 0 : 1;
}
