// plan_test.cpp — the compile-once evaluation-plan fast path.
//
// Covers the pieces the plan-vs-legacy fuzz oracle cannot: the BumpArena's
// reuse/rewind protocol, plan-compilation determinism (recompiled designs
// evaluate to the same bits, and a plan recompiled in place keeps nothing of
// the design before), how many heap allocations a warm compile and a warm
// sweep candidate make (this binary replaces the global operator new with a
// counting one),
// hand-written designs the generator never produces (restore legs with
// missing endpoints, null storage devices), and that a cold plan-routed
// search returns bit-identical rankings at 1/2/4/8 threads (this binary also
// runs under TSan in CI).

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "core/evaluator.hpp"
#include "core/hierarchy.hpp"
#include "core/technique.hpp"
#include "core/techniques/foreground.hpp"
#include "devices/catalog.hpp"
#include "engine/arena.hpp"
#include "engine/batch.hpp"
#include "engine/plan.hpp"
#include "optimizer/design_space.hpp"
#include "optimizer/search.hpp"

// Global allocation counter: counts the calling thread's operator new calls
// while tCountAllocations is set. Deletes are not counted. The replacements
// stay out of line, so the compiler never pairs an inlined std::free with a
// new-expression.
namespace {
thread_local bool tCountAllocations = false;
thread_local std::size_t tAllocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (tCountAllocations) ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;
using stordep::engine::BumpArena;
using stordep::engine::Engine;
using stordep::engine::EngineOptions;
using stordep::engine::EvalPlan;

// ---- BumpArena -------------------------------------------------------------

TEST(Arena, ArrayAllocationAlignsAndZeroes) {
  BumpArena arena(/*blockBytes=*/256);
  double* d = arena.array<double>(4);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(d[i], 0.0);

  bool* flags = arena.array<bool>(7);
  ASSERT_NE(flags, nullptr);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(flags[i]);

  EXPECT_GE(arena.used(), 4 * sizeof(double) + 7 * sizeof(bool));
  EXPECT_EQ(arena.highWater(), arena.used());
}

TEST(Arena, ResetKeepsBlocksAndReusesMemory) {
  BumpArena arena(/*blockBytes=*/128);
  void* first = arena.allocate(64, 8);
  ASSERT_NE(first, nullptr);
  const std::size_t blocks = arena.blockCount();
  const std::size_t capacity = arena.capacity();

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.blockCount(), blocks);     // blocks retained...
  EXPECT_EQ(arena.capacity(), capacity);     // ...capacity unchanged
  void* again = arena.allocate(64, 8);
  EXPECT_EQ(again, first);  // same bytes handed out again
}

TEST(Arena, FrameRewindsWithoutFreeing) {
  BumpArena arena(/*blockBytes=*/128);
  (void)arena.allocate(16, 8);
  const std::size_t before = arena.used();
  void* inner1 = nullptr;
  {
    BumpArena::Frame frame(arena);
    inner1 = arena.allocate(32, 8);
    (void)arena.allocate(500, 8);  // forces growth past the first block
    EXPECT_GT(arena.used(), before);
  }
  EXPECT_EQ(arena.used(), before);  // frame rewound the bump position
  // The next frame re-serves the same scratch memory.
  BumpArena::Frame frame(arena);
  EXPECT_EQ(arena.allocate(32, 8), inner1);
}

TEST(Arena, OversizedAllocationGetsItsOwnBlock) {
  BumpArena arena(/*blockBytes=*/64);
  void* big = arena.allocate(1024, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.capacity(), 1024u);
  // High-water tracks the peak across resets.
  const std::size_t peak = arena.highWater();
  arena.reset();
  (void)arena.allocate(8, 8);
  EXPECT_EQ(arena.highWater(), peak);
}

// ---- Plan compilation ------------------------------------------------------

/// Compares every EvaluationMetrics field, doubles by bit pattern.
void expectMetricsBitIdentical(const stordep::EvaluationMetrics& got,
                               const stordep::EvaluationMetrics& want,
                               const std::string& context) {
  EXPECT_EQ(got.utilizationFeasible, want.utilizationFeasible) << context;
  EXPECT_EQ(got.recoverable, want.recoverable) << context;
  EXPECT_EQ(got.meetsObjectives, want.meetsObjectives) << context;
  EXPECT_EQ(got.sourceLevel, want.sourceLevel) << context;
  const auto same = [&](double g, double w, const char* field) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g), std::bit_cast<std::uint64_t>(w))
        << context << ": " << field << " " << g << " vs " << w;
  };
  same(got.recoveryTime.raw(), want.recoveryTime.raw(), "recoveryTime");
  same(got.dataLoss.raw(), want.dataLoss.raw(), "dataLoss");
  same(got.payload.raw(), want.payload.raw(), "payload");
  same(got.totalOutlays.raw(), want.totalOutlays.raw(), "totalOutlays");
  same(got.outagePenalty.raw(), want.outagePenalty.raw(), "outagePenalty");
  same(got.lossPenalty.raw(), want.lossPenalty.raw(), "lossPenalty");
  same(got.totalPenalties.raw(), want.totalPenalties.raw(), "totalPenalties");
  same(got.totalCost.raw(), want.totalCost.raw(), "totalCost");
}

/// The three case-study scenarios, named.
std::vector<std::pair<std::string, stordep::FailureScenario>> namedScenarios() {
  return {{"object", cs::objectFailure()},
          {"array", cs::arrayFailure()},
          {"site", cs::siteDisaster()}};
}

TEST(PlanCompile, RecompiledDesignsEvaluateIdentically) {
  // Compilation is a pure function of the design's content, not its object
  // identity: compiling a design twice, or compiling the same design
  // re-materialized from scratch, gives plans that evaluate to the same bits
  // under every scenario and recovery-target age.
  const auto designs = cs::allWhatIfDesigns();
  const auto rematerialized = cs::allWhatIfDesigns();
  ASSERT_EQ(designs.size(), rematerialized.size());
  const stordep::Duration ages[] = {
      stordep::Duration::zero(), stordep::minutes(30), stordep::hours(24),
      stordep::weeks(1),         stordep::weeks(6),    stordep::years(4)};
  BumpArena arena;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& [label, design] = designs[d];
    ASSERT_EQ(rematerialized[d].first, label);
    const auto first = EvalPlan::compile(design);
    const auto second = EvalPlan::compile(design);
    const auto fresh = EvalPlan::compile(rematerialized[d].second);
    ASSERT_NE(first, nullptr) << label;
    ASSERT_NE(second, nullptr) << label;
    ASSERT_NE(fresh, nullptr) << label;
    for (const auto& [scenarioName, base] : namedScenarios()) {
      for (const stordep::Duration age : ages) {
        stordep::FailureScenario scenario = base;
        scenario.recoveryTargetAge = age;
        const std::string context =
            label + " / " + scenarioName + " @ " + stordep::toString(age);
        const stordep::EvaluationMetrics m = first->evaluate(scenario, arena);
        expectMetricsBitIdentical(second->evaluate(scenario, arena), m,
                                  context + " (compiled twice)");
        expectMetricsBitIdentical(fresh->evaluate(scenario, arena), m,
                                  context + " (re-materialized)");
      }
    }
  }
}

TEST(PlanCompile, EveryCaseStudyDesignIsPlannable) {
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    EXPECT_NE(EvalPlan::compile(design), nullptr) << label;
  }
}

TEST(PlanCompile, WarmCompileAllocatesOnlyThePlan) {
  // Once its per-thread scratch is warm, compile allocates the plan itself,
  // its exactly sized tables and its workload copy, and, for an infeasible
  // design, the diagnostic string: at most 16 allocations per compile,
  // however many rows the design's levels append.
  std::vector<stordep::StorageDesign> designs;
  opt::DesignSpaceCursor cursor;
  opt::CandidateSpec spec;
  while (cursor.next(spec)) {
    designs.push_back(spec.build(cs::celloWorkload(), cs::requirements()));
  }
  for (auto& [label, design] : cs::allWhatIfDesigns()) {
    designs.push_back(std::move(design));
  }
  // Nine split mirrors of the dataset overfill the primary array.
  const opt::CandidateSpec overfull{.pit = opt::PitChoice::kSplitMirror,
                                    .pitRetentionCount = 8,
                                    .backup = opt::BackupChoice::kFullOnly,
                                    .vault = true};
  designs.push_back(overfull.build(cs::celloWorkload(), cs::requirements()));
  std::size_t infeasible = 0;
  for (const stordep::StorageDesign& design : designs) {
    (void)EvalPlan::compile(design);  // warms this thread's scratch
    tAllocations = 0;
    tCountAllocations = true;
    const auto plan = EvalPlan::compile(design);
    tCountAllocations = false;
    EXPECT_LE(tAllocations, 16u) << design.name();
    if (!plan->utilizationFeasible()) ++infeasible;
  }
  EXPECT_GT(infeasible, 0u) << "no infeasible design was compiled";
}

TEST(PlanCompile, WarmSweepCandidateAllocatesAtMostTwenty) {
  // A sweep candidate recompiles its thread's reused plan instead of
  // allocating a plan of its own. Once warm, what is left is the design
  // build (its techniques, level vector and name), the label and the
  // result: at most 20 allocations per candidate.
  const std::vector<opt::CandidateSpec> candidates =
      opt::enumerateDesignSpace();
  const std::vector<opt::ScenarioCase> scenarios = opt::caseStudyScenarios();
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();
  for (const opt::CandidateSpec& spec : candidates) {
    (void)opt::evaluateCandidate(spec, workload, business, scenarios);
  }
  for (const opt::CandidateSpec& spec : candidates) {
    tAllocations = 0;
    tCountAllocations = true;
    const opt::EvaluatedCandidate candidate =
        opt::evaluateCandidate(spec, workload, business, scenarios);
    tCountAllocations = false;
    EXPECT_LE(tAllocations, 20u) << candidate.label;
  }
}

// ---- Plan vs legacy on the case-study designs ------------------------------

TEST(PlanEvaluate, BitIdenticalToLegacyOnCaseStudyMatrix) {
  BumpArena arena;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    const auto plan = EvalPlan::compile(design);
    ASSERT_NE(plan, nullptr) << label;
    for (const auto& [scenarioName, scenario] : namedScenarios()) {
      const stordep::EvaluationMetrics viaPlan =
          plan->evaluate(scenario, arena);
      const stordep::EvaluationMetrics legacy =
          stordep::summarizeEvaluation(stordep::evaluate(design, scenario));
      expectMetricsBitIdentical(viaPlan, legacy,
                                label + " / " + scenarioName);
    }
  }
}

TEST(PlanEvaluate, RepeatedEvalsReuseArenaWithoutGrowth) {
  const stordep::StorageDesign design = cs::baseline();
  const auto plan = EvalPlan::compile(design);
  ASSERT_NE(plan, nullptr);
  BumpArena arena;
  const stordep::EvaluationMetrics first =
      plan->evaluate(cs::siteDisaster(), arena);
  const std::size_t warmBlocks = arena.blockCount();
  const std::size_t warmCapacity = arena.capacity();
  for (int i = 0; i < 100; ++i) {
    const stordep::EvaluationMetrics again =
        plan->evaluate(cs::siteDisaster(), arena);
    ASSERT_EQ(again.recoveryTime.raw(), first.recoveryTime.raw());
    ASSERT_EQ(again.totalCost.raw(), first.totalCost.raw());
  }
  EXPECT_EQ(arena.blockCount(), warmBlocks);  // no growth once warm
  EXPECT_EQ(arena.capacity(), warmCapacity);
  EXPECT_EQ(arena.used(), 0u);  // every eval rewound its frame
}

// ---- Designs outside the generated corpus ---------------------------------

/// One scripted restore leg; the technique keeps its devices alive.
struct ScriptedLeg {
  stordep::DevicePtr from;
  stordep::DevicePtr to;
  stordep::DevicePtr via;
  stordep::Duration serializedFix;
};

/// A technique whose storage devices and restore legs are given verbatim, so
/// a test can build the malformed shapes no built-in technique constructor
/// accepts: restore legs with missing endpoints, null storage devices.
class ScriptedTechnique final : public stordep::Technique {
 public:
  ScriptedTechnique(std::string name, std::vector<stordep::DevicePtr> storage,
                    std::vector<ScriptedLeg> legs)
      : Technique(std::move(name), stordep::TechniqueKind::kBackup),
        storage_(std::move(storage)),
        legs_(std::move(legs)),
        policy_(stordep::WindowSpec{stordep::hours(24), stordep::hours(1),
                                    stordep::Duration::zero()},
                /*retentionCount=*/2, stordep::days(14)) {}

  [[nodiscard]] const stordep::ProtectionPolicy* policy()
      const noexcept override {
    return &policy_;
  }
  void appendRows(const stordep::WorkloadSpec&, const stordep::DeviceModel*,
                  stordep::LevelRows& rows) const override {
    for (const stordep::DevicePtr& d : storage_) {
      rows.storage.push_back(d.get());
    }
    for (const ScriptedLeg& leg : legs_) {
      rows.legs.push_back(stordep::RecoveryLeg{leg.from.get(), leg.to.get(),
                                               leg.via.get(),
                                               leg.serializedFix});
    }
  }

 private:
  std::vector<stordep::DevicePtr> storage_;
  std::vector<ScriptedLeg> legs_;
  stordep::ProtectionPolicy policy_;
};

/// A two-level design: the primary array at "primary site", then `level`.
stordep::StorageDesign designWith(const std::string& name,
                                  stordep::TechniquePtr level) {
  auto primary = stordep::catalog::midrangeDiskArray(
      "primary array", stordep::Location::at("primary site"));
  std::vector<stordep::TechniquePtr> levels;
  levels.push_back(std::make_shared<stordep::PrimaryCopy>(primary));
  levels.push_back(std::move(level));
  return stordep::StorageDesign(name, cs::celloWorkload(), cs::requirements(),
                                std::move(levels));
}

/// Level 1 keeps its RPs offsite, and its only restore leg has no endpoints.
stordep::StorageDesign brokenRestoreDesign() {
  auto offsite = stordep::catalog::midrangeDiskArray(
      "offsite array", stordep::Location::at("offsite"));
  return designWith(
      "broken restore design",
      std::make_shared<ScriptedTechnique>(
          "broken restore", std::vector<stordep::DevicePtr>{offsite},
          std::vector<ScriptedLeg>{ScriptedLeg{
              nullptr, nullptr, nullptr, stordep::Duration::zero()}}));
}

TEST(PlanFallback, BrokenRestoreDesignCompilesAndMatchesLegacy) {
  const stordep::StorageDesign design = brokenRestoreDesign();
  const auto plan = EvalPlan::compile(design);
  ASSERT_NE(plan, nullptr);
  BumpArena arena;
  for (const auto& [scenarioName, scenario] : namedScenarios()) {
    expectMetricsBitIdentical(
        plan->evaluate(scenario, arena),
        stordep::summarizeEvaluation(stordep::evaluate(design, scenario)),
        scenarioName);
  }
  // The object failure corrupts the primary, so level 1 is the source and
  // its broken restore path leaves the object unrecoverable.
  const stordep::EvaluationMetrics object =
      plan->evaluate(cs::objectFailure(), arena);
  EXPECT_EQ(object.sourceLevel, 1);
  EXPECT_FALSE(object.recoverable);
  EXPECT_TRUE(object.dataLoss.isFinite());
}

TEST(PlanFallback, SecondLegWithoutEndpointWalksTheFirstLeg) {
  // Level 1 restores offsite -> staging array (at the primary site), then
  // staging -> nothing: recoverFrom() walks the first leg before it gives
  // up at the second.
  auto offsite = stordep::catalog::midrangeDiskArray(
      "offsite array", stordep::Location::at("offsite"));
  auto staging = stordep::catalog::midrangeDiskArray(
      "staging array", stordep::Location::at("primary site"));
  const stordep::StorageDesign design = designWith(
      "two-leg restore design",
      std::make_shared<ScriptedTechnique>(
          "two-leg restore", std::vector<stordep::DevicePtr>{offsite},
          std::vector<ScriptedLeg>{
              ScriptedLeg{offsite, staging, nullptr, stordep::minutes(5)},
              ScriptedLeg{staging, nullptr, nullptr,
                          stordep::Duration::zero()}}));
  const auto plan = EvalPlan::compile(design);
  ASSERT_NE(plan, nullptr);
  BumpArena arena;

  // Viable first leg: nothing is destroyed, the staging array receives the
  // payload, and the missing endpoint then makes the path unrecoverable
  // with the source's finite data loss.
  const stordep::FailureScenario corrupt = cs::objectFailure();
  // Unviable first leg: the site disaster takes the primary and the staging
  // array, and there is no recovery facility to replace them, so the
  // object is lost (infinite data loss) before the missing endpoint.
  const stordep::FailureScenario site =
      stordep::FailureScenario::siteDisaster("primary site");
  for (const auto& [name, scenario] :
       std::vector<std::pair<std::string, stordep::FailureScenario>>{
           {"first leg viable", corrupt}, {"first leg unviable", site}}) {
    expectMetricsBitIdentical(
        plan->evaluate(scenario, arena),
        stordep::summarizeEvaluation(stordep::evaluate(design, scenario)),
        name);
  }
  const stordep::EvaluationMetrics viable = plan->evaluate(corrupt, arena);
  EXPECT_EQ(viable.sourceLevel, 1);
  EXPECT_FALSE(viable.recoverable);
  EXPECT_FALSE(viable.recoveryTime.isFinite());
  EXPECT_TRUE(viable.dataLoss.isFinite());
  const stordep::EvaluationMetrics lost = plan->evaluate(site, arena);
  EXPECT_EQ(lost.sourceLevel, 1);
  EXPECT_FALSE(lost.recoverable);
  EXPECT_FALSE(lost.dataLoss.isFinite());
}

TEST(PlanFallback, NullStorageDeviceThrowsDesignError) {
  const stordep::StorageDesign design = designWith(
      "null storage design",
      std::make_shared<ScriptedTechnique>(
          "null storage", std::vector<stordep::DevicePtr>{nullptr},
          std::vector<ScriptedLeg>{}));
  try {
    (void)EvalPlan::compile(design);
    ADD_FAILURE() << "compile accepted a null storage device";
  } catch (const stordep::DesignError& e) {
    EXPECT_NE(std::string(e.what()).find("'null storage'"), std::string::npos)
        << e.what();
  }
}

/// `design`'s levels without its recovery facility.
stordep::StorageDesign withoutFacility(const stordep::StorageDesign& design) {
  std::vector<stordep::TechniquePtr> levels;
  for (int i = 0; i < design.levelCount(); ++i) {
    levels.push_back(design.levelPtr(i));
  }
  return stordep::StorageDesign(design.name() + " without facility",
                                design.workload(), design.business(),
                                std::move(levels));
}

TEST(PlanCompile, RecompileInPlaceMatchesAFreshCompile) {
  // One plan recompiled through designs that flip every piece of its state
  // (feasibility and its message, level count, facility, a missing restore
  // endpoint) must hold no trace of the design before: after each step it
  // evaluates like a plan that never held anything else.
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();
  // Nine split mirrors of the dataset overfill the primary array.
  const opt::CandidateSpec overfull{.pit = opt::PitChoice::kSplitMirror,
                                    .pitRetentionCount = 8,
                                    .backup = opt::BackupChoice::kFullOnly,
                                    .vault = true};
  const opt::CandidateSpec deepest{.pit = opt::PitChoice::kSplitMirror,
                                   .backup = opt::BackupChoice::kFullOnly,
                                   .vault = true,
                                   .mirror = opt::MirrorChoice::kAsyncBatch};
  const opt::CandidateSpec snapshotOnly{.pit = opt::PitChoice::kSnapshot};
  const stordep::StorageDesign snapshot =
      snapshotOnly.build(workload, business);
  std::vector<stordep::StorageDesign> steps;
  steps.push_back(overfull.build(workload, business));
  steps.push_back(deepest.build(workload, business));
  steps.push_back(withoutFacility(snapshot));
  steps.push_back(brokenRestoreDesign());
  steps.push_back(snapshot);
  steps.push_back(cs::baseline());
  steps.push_back(overfull.build(workload, business));
  ASSERT_FALSE(EvalPlan::compile(steps[0])->utilizationFeasible());
  ASSERT_TRUE(EvalPlan::compile(steps[1])->utilizationFeasible());
  ASSERT_EQ(steps[1].levelCount(), 5);
  ASSERT_EQ(steps[2].levelCount(), 2);
  ASSERT_FALSE(steps[2].facility().has_value());

  BumpArena arena;
  EvalPlan reused;
  for (const stordep::StorageDesign& design : steps) {
    reused.recompile(design);
    const auto compiled = EvalPlan::compile(design);
    EvalPlan fresh;
    fresh.recompile(design);
    const EvalPlan* const references[] = {compiled.get(), &fresh};
    for (const EvalPlan* want : references) {
      const std::string context =
          design.name() + (want == &fresh ? " (fresh plan)" : " (compile)");
      EXPECT_EQ(reused.utilizationFeasible(), want->utilizationFeasible())
          << context;
      EXPECT_EQ(reused.utilizationError(), want->utilizationError())
          << context;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.totalOutlays().raw()),
                std::bit_cast<std::uint64_t>(want->totalOutlays().raw()))
          << context;
      EXPECT_EQ(reused.levelCount(), want->levelCount()) << context;
      for (const auto& [scenarioName, scenario] : namedScenarios()) {
        expectMetricsBitIdentical(reused.evaluate(scenario, arena),
                                  want->evaluate(scenario, arena),
                                  context + " / " + scenarioName);
      }
    }
  }
}

TEST(PlanFallback, MatrixFallsBackToLegacyForUnplannableDesigns) {
  // Every design compiles, the broken-restore one included: the matrix has
  // no legacy rows, and each row equals the legacy evaluator's.
  const auto designs = std::vector<std::shared_ptr<const stordep::StorageDesign>>{
      std::make_shared<const stordep::StorageDesign>(cs::baseline()),
      std::make_shared<const stordep::StorageDesign>(brokenRestoreDesign())};
  const std::vector<stordep::FailureScenario> scenarios = {
      cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()};

  Engine engine(EngineOptions{.threads = 2});
  Engine::PlanBatchStats stats;
  const std::vector<stordep::EvaluationMetrics> matrix =
      engine.evaluatePlanMatrix(designs, scenarios, &stats);

  ASSERT_EQ(matrix.size(), designs.size() * scenarios.size());
  EXPECT_EQ(stats.pairs, matrix.size());
  EXPECT_EQ(stats.planCompiles, designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const stordep::EvaluationMetrics legacy = stordep::summarizeEvaluation(
          stordep::evaluate(*designs[d], scenarios[s]));
      expectMetricsBitIdentical(matrix[d * scenarios.size() + s], legacy,
                                "design " + std::to_string(d) + " scenario " +
                                    std::to_string(s));
    }
  }
}

TEST(PlanFallback, SearchStillRanksUnplannableDesignSpaces) {
  // evaluateCandidate's plan route agrees field for field with the serial
  // reference, which runs the legacy evaluate().
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();
  ASSERT_FALSE(candidates.empty());
  const opt::EvaluatedCandidate viaPlan = opt::evaluateCandidate(
      candidates.front(), cs::celloWorkload(), cs::requirements(), scenarios);
  const opt::SearchResult serial = opt::searchDesignSpaceSerial(
      {candidates.front()}, cs::celloWorkload(), cs::requirements(),
      scenarios);
  ASSERT_EQ(serial.evaluated, 1);
  const opt::EvaluatedCandidate& legacy =
      serial.ranked.empty() ? serial.rejected.front() : serial.ranked.front();
  EXPECT_EQ(viaPlan.label, legacy.label);
  EXPECT_EQ(viaPlan.feasible, legacy.feasible);
  EXPECT_EQ(viaPlan.meetsObjectives, legacy.meetsObjectives);
  EXPECT_EQ(viaPlan.rejectionReason, legacy.rejectionReason);
  EXPECT_EQ(viaPlan.totalCost.raw(), legacy.totalCost.raw());
  EXPECT_EQ(viaPlan.outlays.raw(), legacy.outlays.raw());
  EXPECT_EQ(viaPlan.weightedPenalties.raw(), legacy.weightedPenalties.raw());
  EXPECT_EQ(viaPlan.worstRecoveryTime.raw(), legacy.worstRecoveryTime.raw());
  EXPECT_EQ(viaPlan.worstDataLoss.raw(), legacy.worstDataLoss.raw());
}

// ---- Thread-count determinism (runs under TSan in CI) ----------------------

void expectSameRanking(const opt::SearchResult& a, const opt::SearchResult& b,
                       int threads) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << threads << " threads";
  ASSERT_EQ(a.rejected.size(), b.rejected.size()) << threads << " threads";
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].label, b.ranked[i].label)
        << threads << " threads, rank " << i;
    EXPECT_EQ(a.ranked[i].totalCost.raw(), b.ranked[i].totalCost.raw())
        << threads << " threads, rank " << i;
    EXPECT_EQ(a.ranked[i].outlays.raw(), b.ranked[i].outlays.raw());
    EXPECT_EQ(a.ranked[i].weightedPenalties.raw(),
              b.ranked[i].weightedPenalties.raw());
    EXPECT_EQ(a.ranked[i].worstRecoveryTime.raw(),
              b.ranked[i].worstRecoveryTime.raw());
    EXPECT_EQ(a.ranked[i].worstDataLoss.raw(),
              b.ranked[i].worstDataLoss.raw());
  }
  for (std::size_t i = 0; i < a.rejected.size(); ++i) {
    EXPECT_EQ(a.rejected[i].label, b.rejected[i].label);
    EXPECT_EQ(a.rejected[i].rejectionReason, b.rejected[i].rejectionReason);
  }
}

TEST(PlanDeterminism, ColdGridSearchBitIdenticalAcrossThreadCounts) {
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();

  std::optional<opt::SearchResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    // A fresh engine per thread count: every sweep is fully cold.
    Engine engine(EngineOptions{.threads = threads});
    opt::SearchOptions options;
    options.eng = &engine;
    const opt::SearchResult result = opt::searchDesignSpace(
        candidates, workload, business, scenarios, options);
    EXPECT_EQ(result.evaluated, static_cast<int>(candidates.size()));
    if (!reference) {
      reference = result;
      ASSERT_FALSE(reference->ranked.empty());
    } else {
      expectSameRanking(*reference, result, threads);
    }
  }
}

}  // namespace
