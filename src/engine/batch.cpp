#include "engine/batch.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace stordep::engine {

namespace {
int resolveThreads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}
}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      threads_(resolveThreads(options.threads)),
      cache_(options.cacheCapacity, options.cacheShards) {
  if (threads_ > 1) {
    // The calling thread participates in parallelFor, so threads_ - 1
    // workers give exactly threads_ concurrent executors.
    pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  }
}

void Engine::setFaultInjector(std::shared_ptr<FaultInjector> injector) {
  injector_ = injector;
  cache_.setFaultInjector(std::move(injector));
}

EvalOutcome Engine::tryEvaluate(const StorageDesign& design,
                                const FailureScenario& scenario,
                                const BatchOptions& options) {
  try {
    return tryEvaluateKeyed(design, scenario,
                            fingerprintEvaluation(design, scenario), options);
  } catch (...) {
    // Fingerprinting itself rejected the design (unserializable).
    return errorFromCurrentException();
  }
}

EvaluationResult Engine::evaluateKeyed(const StorageDesign& design,
                                       const FailureScenario& scenario,
                                       const Fingerprint& pairKey,
                                       const CancellationToken& token,
                                       bool* hitOut) {
  if (hitOut != nullptr) *hitOut = false;
  const auto compute = [&] {
    if (injector_) injector_->maybeInject(FaultSite::kEvaluate, pairKey);
    return stordep::evaluate(design, scenario);
  };
  if (!options_.useCache) return compute();

  // May throw an injected kCacheLookup fault (a lookup that cannot be
  // trusted must not silently serve a result), or the token's error while
  // another thread computes this pair.
  EvalCache::Probe probe = cache_.probe(pairKey, token);
  if (probe.hit) {
    if (hitOut != nullptr) *hitOut = true;
    return std::move(*probe.hit);
  }
  // A throw from here on drops the claim, so a waiter computes instead.
  EvaluationResult result = compute();
  try {
    probe.claim.fulfil(result);
  } catch (...) {
    // Losing a cache write (injected kCacheInsert fault, allocation
    // failure) never fails a request that already has its result.
  }
  return result;
}

EvalOutcome Engine::tryEvaluateKeyed(const StorageDesign& design,
                                     const FailureScenario& scenario,
                                     const Fingerprint& pairKey,
                                     const BatchOptions& options,
                                     bool* hitOut) {
  try {
    return EvalOutcome(
        evaluateKeyed(design, scenario, pairKey, options.token, hitOut));
  } catch (...) {
    EvalError error = errorFromCurrentException();
    error.attempts = 1;  // also for a token's error, which carries 0
    return error;
  }
}

BatchResult Engine::evaluateBatch(const std::vector<EvalRequest>& requests,
                                  const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  BatchResult out;
  // Default-constructed slots read "not evaluated"; every request below
  // overwrites its own slot exactly once.
  out.results.resize(requests.size());
  out.stats.threadsUsed = threads_;
  out.stats.requests = requests.size();

  // Every slot polls the caller's token tightened by the batch deadline,
  // also while it waits for another thread computing the same pair.
  BatchOptions slotOptions = options;
  if (options.deadline.count() > 0) {
    slotOptions.token = options.token.withDeadline(options.deadline);
  }
  const CancellationToken& token = slotOptions.token;
  const bool cancellable = token.cancellable();

  // Fingerprint each distinct design once (batches typically pair a few
  // designs with many scenarios). A design that cannot be fingerprinted is
  // itself invalid; the error is attached to each of its requests rather
  // than aborting the batch.
  struct DesignEntry {
    Fingerprint fp;
    std::optional<EvalError> error;
  };
  std::unordered_map<const StorageDesign*, DesignEntry> designFps;
  for (const EvalRequest& request : requests) {
    if (request.design != nullptr) {
      designFps.emplace(request.design.get(), DesignEntry{});
    }
  }
  std::vector<const StorageDesign*> uniqueDesigns;
  uniqueDesigns.reserve(designFps.size());
  for (const auto& [design, entry] : designFps) {
    uniqueDesigns.push_back(design);
  }
  parallelFor(uniqueDesigns.size(), [&](std::size_t i) {
    DesignEntry& entry = designFps[uniqueDesigns[i]];
    try {
      entry.fp = fingerprintDesign(*uniqueDesigns[i]);
    } catch (...) {
      entry.error = errorFromCurrentException();
    }
  });

  // Scenario fingerprints hoisted out of the per-slot loop: each is computed
  // once per batch rather than once per (design, scenario) pair. Batches are
  // typically grouped by scenario, so adjacent duplicates collapse to one
  // hash each.
  std::vector<Fingerprint> scenarioFps(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0 && requests[i].scenario == requests[i - 1].scenario) {
      scenarioFps[i] = scenarioFps[i - 1];
    } else {
      scenarioFps[i] = fingerprintScenario(requests[i].scenario);
    }
  }

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> computed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};

  auto evaluateOne = [&](std::size_t i) -> EvalOutcome {
    const EvalRequest& request = requests[i];
    if (request.design == nullptr) {
      return EvalError{EvalErrorCode::kInvalidDesign,
                       "request " + std::to_string(i) + " has a null design",
                       /*transient=*/false, /*attempts=*/0};
    }
    const DesignEntry& entry = designFps.at(request.design.get());
    if (entry.error) return *entry.error;
    // Cancellation/deadline is polled before a request starts, never mid-
    // evaluation: finished work stays valid, un-started work is skipped.
    if (cancellable && token.cancelled()) return token.toError();

    const Fingerprint key = combine(entry.fp, scenarioFps[i]);
    // The pool site stands in for dispatch-layer faults.
    if (injector_) injector_->maybeInject(FaultSite::kPool, key);

    bool hit = false;
    EvalOutcome outcome = tryEvaluateKeyed(*request.design, request.scenario,
                                           key, slotOptions, &hit);
    if (outcome.ok()) {
      (hit ? hits : computed).fetch_add(1, std::memory_order_relaxed);
    }
    return outcome;
  };

  parallelFor(requests.size(), [&](std::size_t i) {
    EvalOutcome outcome;
    try {
      outcome = evaluateOne(i);
    } catch (...) {
      outcome = errorFromCurrentException();
    }
    if (const EvalError* error = outcome.errorIf()) {
      if (error->code == EvalErrorCode::kCancelled ||
          error->code == EvalErrorCode::kDeadlineExceeded) {
        cancelled.fetch_add(1, std::memory_order_relaxed);
      } else {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    out.results[i] = std::move(outcome);
  });

  out.stats.cacheHits = hits.load();
  out.stats.evaluations = computed.load();
  out.stats.failed = failed.load();
  out.stats.cancelled = cancelled.load();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  out.stats.wallSeconds = elapsed.count();
  out.stats.evalsPerSec =
      out.stats.wallSeconds > 0.0
          ? static_cast<double>(out.stats.requests) / out.stats.wallSeconds
          : 0.0;
  return out;
}

BumpArena& Engine::threadArena() {
  static thread_local BumpArena arena;
  return arena;
}

std::vector<EvaluationMetrics> Engine::evaluatePlanMatrix(
    const std::vector<std::shared_ptr<const StorageDesign>>& designs,
    const std::vector<FailureScenario>& scenarios,
    PlanBatchStats* statsOut) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t designCount = designs.size();
  const std::size_t scenarioCount = scenarios.size();
  std::vector<EvaluationMetrics> out(designCount * scenarioCount);

  // Phase 1: one plan compile per design (parallel across designs).
  std::vector<std::shared_ptr<const EvalPlan>> plans(designCount);
  std::atomic<std::uint64_t> compiled{0};
  parallelFor(designCount, [&](std::size_t d) {
    if (designs[d] == nullptr) return;
    plans[d] = EvalPlan::compile(*designs[d]);
    compiled.fetch_add(1, std::memory_order_relaxed);
  });

  // Phase 2: every (design, scenario) pair, allocation-free via the
  // per-thread arenas. Design-major order keeps a design's plan hot in
  // cache across its scenario row.
  parallelFor(designCount * scenarioCount, [&](std::size_t k) {
    const std::size_t d = k / scenarioCount;
    if (plans[d] == nullptr) return;
    out[k] = plans[d]->evaluate(scenarios[k % scenarioCount], threadArena());
  });

  if (statsOut != nullptr) {
    statsOut->threadsUsed = threads_;
    statsOut->pairs = designCount * scenarioCount;
    statsOut->planCompiles = compiled.load();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    statsOut->wallSeconds = elapsed.count();
    statsOut->pairsPerSec =
        statsOut->wallSeconds > 0.0
            ? static_cast<double>(statsOut->pairs) / statsOut->wallSeconds
            : 0.0;
  }
  return out;
}

void Engine::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)>& body) {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  pool_->parallelFor(count, body);
}

bool Engine::parallelForCancellable(
    std::size_t count, const std::function<void(std::size_t)>& body,
    const CancellationToken& token) {
  if (pool_ == nullptr) {
    const bool cancellable = token.cancellable();
    for (std::size_t i = 0; i < count; ++i) {
      if (cancellable && token.cancelled()) return false;
      body(i);
    }
    return true;
  }
  return pool_->parallelForCancellable(count, body, token);
}

Engine& Engine::shared() {
  static Engine engine;
  return engine;
}

}  // namespace stordep::engine
