// metrics.hpp — the service's observable surface (/metrics).
//
// Every counter here is a relaxed atomic updated on the hot path and read
// by the scraper: recording a latency is two atomic adds and one bucketed
// increment, cheap enough to run per request. Latency histograms use
// log2-spaced buckets from 1 µs to ~1 hour; quantiles are estimated by
// linear interpolation inside the bucket that crosses the rank, which is
// exact enough for p50/p99 dashboards without storing samples.
//
// The /metrics document has two time bases:
//   * lifetime  — monotone totals since process start;
//   * interval  — what happened since the *previous* scrape, computed from
//     snapshot diffs (EvalCache::Stats::delta) and read-and-reset counters
//     (engine::fingerprintCountersReset), so a periodic scraper sees rates
//     without doing its own bookkeeping.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "config/json.hpp"
#include "engine/batch.hpp"

namespace stordep::service {

class LatencyHistogram {
 public:
  /// Bucket b covers [2^b, 2^(b+1)) microseconds; the last bucket is
  /// open-ended. 32 buckets reach ~71 minutes.
  static constexpr int kBuckets = 32;

  void record(std::chrono::nanoseconds latency) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;
  [[nodiscard]] config::Json toJson() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumNanos_{0};
  std::atomic<std::uint64_t> maxNanos_{0};
};

/// Per-endpoint request accounting.
struct EndpointMetrics {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};  ///< responses with status >= 400
  LatencyHistogram latency;

  void record(int status, std::chrono::nanoseconds latency) noexcept {
    requests.fetch_add(1, std::memory_order_relaxed);
    if (status >= 400) errors.fetch_add(1, std::memory_order_relaxed);
    this->latency.record(latency);
  }
  [[nodiscard]] config::Json toJson() const;
};

class ServiceMetrics {
 public:
  ServiceMetrics() : start_(std::chrono::steady_clock::now()) {}

  // Endpoints with their own latency series.
  EndpointMetrics evaluate;
  EndpointMetrics search;
  EndpointMetrics metricsEndpoint;
  EndpointMetrics healthz;
  EndpointMetrics other;  ///< 404s, parse errors, admission rejections

  // Connection gauges/counters.
  std::atomic<std::int64_t> activeConnections{0};
  std::atomic<std::uint64_t> connectionsAccepted{0};
  std::atomic<std::uint64_t> connectionsRejected{0};  ///< over the cap

  // Admission control.
  std::atomic<std::int64_t> inFlightSlots{0};  ///< admitted, not yet answered
  std::atomic<std::int64_t> activeSearches{0};
  std::atomic<std::uint64_t> rejectedQueueFull{0};  ///< 429s
  std::atomic<std::uint64_t> rejectedDraining{0};   ///< 503s while draining
  /// Requests whose deadline passed before their evaluation started (504s).
  std::atomic<std::uint64_t> deadlineExpired{0};
  std::atomic<std::uint64_t> parseErrors{0};  ///< HTTP-level 4xx

  // Resilience / degradation. brownoutTier is a gauge (0 = normal, 1 = shed
  // stochastic envelopes, 2 = cache-hits-only, 3 = full drain); the rest are
  // monotone counters so transitions and shed load are observable from
  // /metrics.
  std::atomic<std::int64_t> brownoutTier{0};
  std::atomic<std::uint64_t> brownoutTransitions{0};
  std::atomic<std::uint64_t> shedStochastic{0};  ///< envelopes stripped
  std::atomic<std::uint64_t> shedCold{0};        ///< cold requests 503'd
  std::atomic<std::uint64_t> searchPeerDisconnects{0};
  /// Evaluate requests with >= 1 failed slot (a brown-out input).
  std::atomic<std::uint64_t> evaluateFailures{0};

  // Monte-Carlo load: runs/trials served and the wall time spent inside
  // runTrials, split by whether the compiled TrialPlan path was taken.
  // snapshot() derives interval trials/sec from the deltas.
  std::atomic<std::uint64_t> stochasticRuns{0};
  std::atomic<std::uint64_t> stochasticPlanRuns{0};
  std::atomic<std::uint64_t> stochasticTrials{0};
  std::atomic<std::uint64_t> stochasticWallNanos{0};

  void recordStochastic(int trials, double wallSeconds,
                        bool usedPlan) noexcept {
    stochasticRuns.fetch_add(1, std::memory_order_relaxed);
    if (usedPlan) stochasticPlanRuns.fetch_add(1, std::memory_order_relaxed);
    stochasticTrials.fetch_add(static_cast<std::uint64_t>(trials),
                               std::memory_order_relaxed);
    stochasticWallNanos.fetch_add(
        static_cast<std::uint64_t>(wallSeconds * 1e9),
        std::memory_order_relaxed);
  }

  /// The full /metrics document. Takes the engine to snapshot its caches;
  /// thread-safe (interval bookkeeping is mutex-guarded, everything else is
  /// atomics).
  [[nodiscard]] config::Json snapshot(engine::Engine& engine);

 private:
  std::chrono::steady_clock::time_point start_;
  std::mutex intervalMu_;
  std::chrono::steady_clock::time_point lastScrape_{};
  engine::EvalCache::Stats lastCacheStats_{};
  std::uint64_t lastStochasticRuns_ = 0;
  std::uint64_t lastStochasticPlanRuns_ = 0;
  std::uint64_t lastStochasticTrials_ = 0;
  std::uint64_t lastStochasticWallNanos_ = 0;
  bool scraped_ = false;
};

}  // namespace stordep::service
