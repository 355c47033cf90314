// Tests for the batch-evaluation engine: fingerprint stability and collision
// sanity, cache LRU/stats behavior, thread-pool fan-out and exception
// propagation, and the determinism contract — engine-backed parallel
// evaluation must be bit-identical to the serial reference on the paper's
// case-study designs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "engine/batch.hpp"
#include "engine/eval_cache.hpp"
#include "engine/fingerprint.hpp"
#include "engine/thread_pool.hpp"
#include "multiobject/portfolio.hpp"
#include "optimizer/refine.hpp"
#include "optimizer/search.hpp"

namespace stordep::engine {
namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;

// ---- Fingerprints ----------------------------------------------------------

TEST(Fingerprint, Fnv1aKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(Fingerprint, StableAcrossIndependentBuilds) {
  // Two independently materialized copies of the same design serialize and
  // fingerprint identically — the key is content, not object identity.
  const StorageDesign a = cs::baseline();
  const StorageDesign b = cs::baseline();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(canonicalSerialization(a), canonicalSerialization(b));
  EXPECT_EQ(fingerprintDesign(a), fingerprintDesign(b));
  EXPECT_EQ(fingerprintScenario(cs::siteDisaster()),
            fingerprintScenario(cs::siteDisaster()));
  EXPECT_EQ(fingerprintEvaluation(a, cs::arrayFailure()),
            fingerprintEvaluation(b, cs::arrayFailure()));
}

TEST(Fingerprint, DistinguishesDesignsScenariosAndOrder) {
  const StorageDesign baseline = cs::baseline();
  const StorageDesign weekly = cs::weeklyVault();
  EXPECT_NE(fingerprintDesign(baseline), fingerprintDesign(weekly));
  EXPECT_NE(fingerprintScenario(cs::arrayFailure()),
            fingerprintScenario(cs::siteDisaster()));

  // combine() is order-sensitive: (a, b) and (b, a) must differ.
  const Fingerprint a = fingerprintDesign(baseline);
  const Fingerprint b = fingerprintScenario(cs::arrayFailure());
  EXPECT_NE(combine(a, b), combine(b, a));
}

TEST(Fingerprint, NoCollisionsAcrossTheDesignSpace) {
  // Every (candidate, scenario) pair in the default sweep keys a distinct
  // cache slot: ~200 designs x 3 scenarios, all 128-bit values unique.
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();
  std::set<std::string> seen;
  for (const opt::CandidateSpec& spec : candidates) {
    const StorageDesign design =
        spec.build(cs::celloWorkload(), cs::requirements());
    const Fingerprint designFp = fingerprintDesign(design);
    for (const opt::ScenarioCase& sc : scenarios) {
      const Fingerprint key =
          combine(designFp, fingerprintScenario(sc.scenario));
      EXPECT_TRUE(seen.insert(key.toHex()).second)
          << "collision at " << spec.label() << " / " << sc.name;
    }
  }
  EXPECT_EQ(seen.size(), candidates.size() * scenarios.size());
}

TEST(Fingerprint, HexRendering) {
  const Fingerprint fp{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(fp.toHex(), "0123456789abcdeffedcba9876543210");
}

// ---- EvalCache -------------------------------------------------------------

EvaluationResult markedResult(double marker) {
  EvaluationResult result;
  result.cost.totalOutlays = Money{marker};
  return result;
}

TEST(EvalCache, HitMissInsertCounters) {
  EvalCache cache(/*capacity=*/8, /*shards=*/2);
  const Fingerprint key{1, 2};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, markedResult(42.0));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->cost.totalOutlays.usd(), 42.0);

  const EvalCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(EvalCache, LruEvictionAtCapacity) {
  // One shard of capacity 4 makes the eviction order fully observable.
  EvalCache cache(/*capacity=*/4, /*shards=*/1);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(Fingerprint{i, i}, markedResult(static_cast<double>(i)));
  }
  // Touch key 0 so key 1 becomes the least recently used.
  EXPECT_TRUE(cache.lookup(Fingerprint{0, 0}).has_value());
  cache.insert(Fingerprint{9, 9}, markedResult(9.0));

  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(Fingerprint{1, 1}).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(Fingerprint{0, 0}).has_value());
  EXPECT_TRUE(cache.lookup(Fingerprint{9, 9}).has_value());
}

TEST(EvalCache, GetOrComputeAndClear) {
  EvalCache cache(16, 4);
  EXPECT_FALSE(cache.lookup(Fingerprint{5, 5}).has_value());
  cache.insert(Fingerprint{5, 5}, markedResult(7.0));
  EXPECT_TRUE(cache.lookup(Fingerprint{5, 5}).has_value());  // served

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(Fingerprint{5, 5}).has_value());  // gone
}

TEST(EvalCache, ShardCountRoundsToPowerOfTwo) {
  EvalCache cache(100, 3);
  EXPECT_EQ(cache.shardCount(), 4u);
  EXPECT_GE(cache.capacity(), 100u);
}

TEST(EvalCache, ProbeClaimsAMissAndWaitersReadTheClaimantsEntry) {
  EvalCache cache(/*capacity=*/8, /*shards=*/1);
  const Fingerprint key{3, 4};
  EvalCache::Probe first = cache.probe(key);
  ASSERT_FALSE(first.hit.has_value());
  std::thread waiter([&] {
    const EvalCache::Probe second = cache.probe(key);
    ASSERT_TRUE(second.hit.has_value());
    EXPECT_DOUBLE_EQ(second.hit->cost.totalOutlays.usd(), 5.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  first.claim.fulfil(markedResult(5.0));
  waiter.join();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A claim dropped without an entry hands the key to the next probe.
  const Fingerprint other{5, 6};
  { const EvalCache::Probe dropped = cache.probe(other); }
  const EvalCache::Probe again = cache.probe(other);
  EXPECT_FALSE(again.hit.has_value());
  EXPECT_EQ(cache.stats().misses, 3u);
  // lookup() neither claims nor waits on a claimed key.
  EXPECT_FALSE(cache.lookup(other).has_value());
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> touched(kCount);
  pool.parallelFor(kCount, [&](std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SubmitReturnsValueAndPropagatesException) {
  ThreadPool pool(2);
  auto ok = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(ok.get(), 42);

  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW((void)bad.get(), std::runtime_error);

  // The pool survives a throwing task.
  auto after = pool.submit([]() { return 1; });
  EXPECT_EQ(after.get(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(1000,
                       [](std::size_t i) {
                         if (i == 537) throw std::invalid_argument("boom");
                       }),
      std::invalid_argument);
  // Still usable afterwards.
  std::atomic<int> count{0};
  pool.parallelFor(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A worker calling parallelFor must make progress even when every other
  // worker is busy: the calling thread participates in the loop.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  auto outer = pool.submit([&]() {
    pool.parallelFor(32, [&](std::size_t) { ++total; });
    return true;
  });
  EXPECT_TRUE(outer.get());
  EXPECT_EQ(total.load(), 32);
}

// ---- Determinism: parallel + cached == serial ------------------------------

void expectBitIdentical(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.recovery.recoverable, b.recovery.recoverable);
  EXPECT_EQ(a.recovery.recoveryTime.raw(), b.recovery.recoveryTime.raw());
  EXPECT_EQ(a.recovery.dataLoss.raw(), b.recovery.dataLoss.raw());
  EXPECT_EQ(a.cost.totalOutlays.raw(), b.cost.totalOutlays.raw());
  EXPECT_EQ(a.cost.totalPenalties.raw(), b.cost.totalPenalties.raw());
  EXPECT_EQ(a.cost.totalCost.raw(), b.cost.totalCost.raw());
  EXPECT_EQ(a.utilization.overallBwUtil, b.utilization.overallBwUtil);
  EXPECT_EQ(a.utilization.overallCapUtil, b.utilization.overallCapUtil);
  EXPECT_EQ(a.meetsObjectives, b.meetsObjectives);
  EXPECT_EQ(a.warnings, b.warnings);
}

TEST(Determinism, BatchMatchesSerialOnCaseStudyDesigns) {
  // The Table 5/6/7 designs under all three scenarios: an engine batch at
  // full parallelism, twice (cold cache, then warm), against direct serial
  // evaluate() calls.
  std::vector<EvalRequest> requests;
  std::vector<EvaluationResult> serial;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    auto shared = std::make_shared<const StorageDesign>(design);
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      requests.push_back(EvalRequest{shared, scenario});
      serial.push_back(evaluate(design, scenario));
    }
  }

  Engine engine(EngineOptions{.threads = 4, .cacheCapacity = 1024});
  const BatchResult cold = engine.evaluateBatch(requests);
  ASSERT_EQ(cold.results.size(), serial.size());
  EXPECT_EQ(cold.stats.requests, serial.size());
  EXPECT_EQ(cold.stats.threadsUsed, 4);
  ASSERT_TRUE(cold.allOk());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectBitIdentical(cold.results[i].value(), serial[i]);
  }

  const BatchResult warm = engine.evaluateBatch(requests);
  EXPECT_EQ(warm.stats.cacheHits, warm.stats.requests);  // fully memoized
  EXPECT_EQ(warm.stats.evaluations, 0u);
  ASSERT_TRUE(warm.allOk());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectBitIdentical(warm.results[i].value(), serial[i]);
  }
}

TEST(Determinism, EngineBackedSearchMatchesSerialReference) {
  // The acceptance criterion: identical ranked candidate list — same
  // labels, same Money/Duration values — from the engine-backed search and
  // the pre-engine serial path.
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();

  const opt::SearchResult serial = opt::searchDesignSpaceSerial(
      candidates, cs::celloWorkload(), cs::requirements(), scenarios);

  Engine engine(EngineOptions{.threads = 4});
  opt::SearchOptions options;
  options.eng = &engine;
  const opt::SearchResult parallel =
      opt::searchDesignSpace(candidates, cs::celloWorkload(),
                             cs::requirements(), scenarios, options);

  EXPECT_EQ(parallel.evaluated, serial.evaluated);
  ASSERT_EQ(parallel.ranked.size(), serial.ranked.size());
  ASSERT_EQ(parallel.rejected.size(), serial.rejected.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(parallel.ranked[i].label, serial.ranked[i].label);
    EXPECT_EQ(parallel.ranked[i].totalCost.raw(),
              serial.ranked[i].totalCost.raw());
    EXPECT_EQ(parallel.ranked[i].outlays.raw(),
              serial.ranked[i].outlays.raw());
    EXPECT_EQ(parallel.ranked[i].weightedPenalties.raw(),
              serial.ranked[i].weightedPenalties.raw());
    EXPECT_EQ(parallel.ranked[i].worstRecoveryTime.raw(),
              serial.ranked[i].worstRecoveryTime.raw());
    EXPECT_EQ(parallel.ranked[i].worstDataLoss.raw(),
              serial.ranked[i].worstDataLoss.raw());
  }
}

TEST(Determinism, RefineMatchesAcrossEngines) {
  // Hill climbing through a 1-thread engine and a 4-thread engine takes the
  // same steps to the same optimum.
  opt::CandidateSpec start;
  start.pit = opt::PitChoice::kSnapshot;
  start.pitAccW = hours(24);
  start.pitRetentionCount = 4;
  start.mirror = opt::MirrorChoice::kAsyncBatch;
  start.mirrorLinkCount = 10;
  ASSERT_TRUE(start.valid());

  Engine one(EngineOptions{.threads = 1});
  Engine four(EngineOptions{.threads = 4});
  const opt::RefineResult serial =
      opt::refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                           opt::caseStudyScenarios(), {}, &one);
  const opt::RefineResult parallel =
      opt::refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                           opt::caseStudyScenarios(), {}, &four);
  EXPECT_EQ(parallel.best.label, serial.best.label);
  EXPECT_EQ(parallel.best.totalCost.raw(), serial.best.totalCost.raw());
  EXPECT_EQ(parallel.steps, serial.steps);
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
}

TEST(Determinism, PortfolioBatchMatchesSerialRecover) {
  using stordep::multiobject::ObjectSpec;
  using stordep::multiobject::Portfolio;
  using stordep::multiobject::PortfolioRecoveryResult;

  const Portfolio portfolio({
      ObjectSpec{"db", cs::baseline(), {}},
      ObjectSpec{"app", cs::weeklyVault(), {"db"}},
  });
  const std::vector<FailureScenario> scenarios{
      cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()};

  Engine engine(EngineOptions{.threads = 4});
  const std::vector<PortfolioRecoveryResult> batch =
      portfolio.recoverBatch(scenarios, &engine);
  ASSERT_EQ(batch.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const PortfolioRecoveryResult direct = portfolio.recover(scenarios[i]);
    EXPECT_EQ(batch[i].allRecoverable, direct.allRecoverable);
    EXPECT_EQ(batch[i].totalRecoveryTime.raw(),
              direct.totalRecoveryTime.raw());
    EXPECT_EQ(batch[i].worstDataLoss.raw(), direct.worstDataLoss.raw());
    ASSERT_EQ(batch[i].objects.size(), direct.objects.size());
    for (std::size_t j = 0; j < direct.objects.size(); ++j) {
      EXPECT_EQ(batch[i].objects[j].completionTime.raw(),
                direct.objects[j].completionTime.raw());
    }
  }
}

TEST(Search, OutlaysRecordedOnceAndScenarioIndependent) {
  // The hoisting fix: a candidate's recorded outlays equal the outlays of a
  // direct evaluation under *any* scenario (they are scenario-independent),
  // and the engine computes them at most once per candidate.
  opt::CandidateSpec spec;
  spec.pit = opt::PitChoice::kSplitMirror;
  spec.backup = opt::BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  ASSERT_TRUE(spec.valid());

  Engine engine(EngineOptions{.threads = 1});
  const opt::EvaluatedCandidate candidate = opt::evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(),
      opt::caseStudyScenarios(), &engine);

  const StorageDesign design =
      spec.build(cs::celloWorkload(), cs::requirements());
  for (const FailureScenario& scenario :
       {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
    EXPECT_EQ(evaluate(design, scenario).cost.totalOutlays.raw(),
              candidate.outlays.raw());
  }
}

// ---- Single-flight misses through the engine ---------------------------------

/// `threads` callers evaluating the same (design, scenario) pair at once,
/// each with its own one-pair batch.
std::vector<BatchResult> evaluateConcurrently(Engine& engine,
                                              const EvalRequest& request,
                                              int threads) {
  std::vector<BatchResult> out(static_cast<std::size_t>(threads));
  std::vector<std::thread> callers;
  for (int i = 0; i < threads; ++i) {
    callers.emplace_back([&, i] {
      out[static_cast<std::size_t>(i)] = engine.evaluateBatch({request});
    });
  }
  for (std::thread& caller : callers) caller.join();
  return out;
}

TEST(SingleFlight, ConcurrentMissesOfOnePairComputeOnce) {
  constexpr int kThreads = 8;
  Engine engine(EngineOptions{.threads = 1});
  FaultPlan plan;
  plan.sites = faultSiteBit(FaultSite::kEvaluate);
  plan.latency = std::chrono::milliseconds(20);  // the claim stays held
  engine.setFaultInjector(std::make_shared<FaultInjector>(plan));
  const EvalRequest request{std::make_shared<const StorageDesign>(cs::baseline()),
                            cs::arrayFailure()};
  const EvaluationResult reference =
      evaluate(*request.design, request.scenario);

  std::uint64_t hits = 0;
  std::uint64_t computed = 0;
  for (const BatchResult& result :
       evaluateConcurrently(engine, request, kThreads)) {
    ASSERT_TRUE(result.allOk());
    expectBitIdentical(result.results[0].value(), reference);
    hits += result.stats.cacheHits;
    computed += result.stats.evaluations;
  }
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(hits, kThreads - 1u);
  const EvalCache::Stats stats = engine.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1u);
}

TEST(SingleFlight, LostInsertsHandTheClaimOnAndEveryRequestSucceeds) {
  // Every insert fails after a delay, so no claimant leaves an entry: each
  // waiter claims in turn and computes, and no request fails.
  constexpr int kThreads = 6;
  Engine engine(EngineOptions{.threads = 1});
  FaultPlan plan;
  plan.sites = faultSiteBit(FaultSite::kCacheInsert);
  plan.probability = 1.0;
  plan.latency = std::chrono::milliseconds(10);
  engine.setFaultInjector(std::make_shared<FaultInjector>(plan));
  const EvalRequest request{std::make_shared<const StorageDesign>(cs::baseline()),
                            cs::siteDisaster()};
  const EvaluationResult reference =
      evaluate(*request.design, request.scenario);

  for (const BatchResult& result :
       evaluateConcurrently(engine, request, kThreads)) {
    ASSERT_TRUE(result.allOk());
    expectBitIdentical(result.results[0].value(), reference);
    EXPECT_EQ(result.stats.evaluations, 1u);
  }
  const EvalCache::Stats stats = engine.cache().stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.insertFailures, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.entries, 0u);
}

TEST(SingleFlight, WaiterAnswersItsDeadlineWhileAnotherThreadComputes) {
  Engine engine(EngineOptions{.threads = 1});
  const auto design = std::make_shared<const StorageDesign>(cs::baseline());
  const FailureScenario scenario = cs::arrayFailure();
  // The test holds the pair's claim, as a slow evaluation would.
  EvalCache::Probe held =
      engine.cache().probe(fingerprintEvaluation(*design, scenario));
  ASSERT_FALSE(held.hit.has_value());

  BatchOptions options;
  options.deadline = std::chrono::milliseconds(20);
  const auto start = std::chrono::steady_clock::now();
  const BatchResult waited =
      engine.evaluateBatch({EvalRequest{design, scenario}}, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(waited.results[0].ok());
  EXPECT_EQ(waited.results[0].error().code, EvalErrorCode::kDeadlineExceeded);
  EXPECT_EQ(waited.stats.cancelled, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(1));

  // Released unfulfilled, the claim passes to the next caller.
  { const EvalCache::Probe released = std::move(held); }
  const BatchResult after = engine.evaluateBatch({EvalRequest{design, scenario}});
  ASSERT_TRUE(after.allOk());
  EXPECT_EQ(after.stats.evaluations, 1u);
}

TEST(SingleFlight, WarmBatchStatsIgnoreConcurrentColdMisses) {
  // A batch reports the hits and computations of its own pairs, whatever
  // other callers of the same cache miss meanwhile.
  Engine engine(EngineOptions{.threads = 2, .cacheCapacity = 1 << 16});
  std::vector<EvalRequest> warm;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    auto shared = std::make_shared<const StorageDesign>(design);
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      warm.push_back(EvalRequest{shared, scenario});
    }
  }
  ASSERT_TRUE(engine.evaluateBatch(warm).allOk());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> coldMisses{0};
  std::thread cold([&] {
    // Each recovery-target age is a pair the cache has never seen; the cap
    // keeps every shard below capacity, so no warm pair is evicted.
    const StorageDesign design = cs::baseline();
    FailureScenario scenario = cs::objectFailure();
    for (int age = 1; !stop.load() && age <= 20'000; ++age) {
      scenario.recoveryTargetAge = seconds(age);
      (void)engine.tryEvaluate(design, scenario);
      coldMisses.fetch_add(1);
    }
  });
  // The warm rounds must overlap the cold misses: start them only once the
  // cold thread has counted its first.
  while (coldMisses.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 300; ++round) {
    const BatchResult result = engine.evaluateBatch(warm);
    ASSERT_TRUE(result.allOk());
    EXPECT_EQ(result.stats.cacheHits, warm.size()) << "round " << round;
    EXPECT_EQ(result.stats.evaluations, 0u) << "round " << round;
  }
  stop.store(true);
  cold.join();
  EXPECT_GT(coldMisses.load(), 0u);
}

}  // namespace
}  // namespace stordep::engine
