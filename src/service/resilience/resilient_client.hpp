// resilient_client.hpp — retrying, hedging, circuit-breaking HTTP client.
//
// Wraps the minimal blocking service::Client with the policies a client of
// an unreliable network actually needs, and converts transport failures
// into the engine's structured error taxonomy instead of exceptions:
// request() returns engine::Expected<HttpClientResponse>, where the error
// arm is an EvalError with code kUnavailable (transient, attempts filled
// in) — so callers handle a dead server exactly like any other engine
// failure value.
//
// Policies, in the order they apply:
//
//   * Circuit breaker (per request path): transport failures and 5xx
//     responses count against a sliding window; an open breaker fails
//     fast with kUnavailable "circuit breaker open" without touching the
//     network. 429s count as successes — a busy server is alive.
//
//   * Retry with decorrelated-jitter backoff: transport errors retry only
//     when TransportError::safeToRetry(idempotent) says the attempt
//     cannot have been applied server-side. 429/503 *responses* always
//     retry (the server explicitly did not apply the request), honoring
//     Retry-After when present (capped).
//
//   * Hedging (opt-in, idempotent requests only): when the primary
//     attempt is slower than an adaptive threshold — max(hedgeFloor, the
//     observed p95 of recent winner latencies) — a second identical
//     request races it on a fresh connection; first completion wins and
//     stragglers are abandoned.
//
//   * Streaming resume: postStreaming() tracks how many NDJSON lines were
//     delivered to the caller; a mid-stream transport failure re-issues
//     the (deterministic) search and skips the lines already delivered —
//     a client-side checkpoint, so the caller sees a gapless,
//     duplicate-free stream instead of a blind replay.
//
// Randomness (jitter) comes from a seeded sim::Rng, so a fixed-seed chaos
// run replays the same retry schedule.
//
// Thread-safety: one ResilientClient per thread, like the base Client.
// (The hedging worker threads are internal and self-contained.)
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/errors.hpp"
#include "service/client.hpp"
#include "service/resilience/retry.hpp"
#include "sim/rng.hpp"

namespace stordep::service::resilience {

struct ResilientClientOptions {
  RetryPolicy retry;
  CircuitBreakerOptions breaker;
  bool hedging = false;
  /// Hedge launch threshold: max(hedgeFloor, observed winner-latency
  /// quantile). The floor keeps cold starts from hedging everything.
  std::chrono::milliseconds hedgeFloor{20};
  double hedgeQuantile = 0.95;
  /// Socket-level send/recv timeout per attempt.
  std::chrono::milliseconds timeout{30'000};
  std::uint64_t seed = 1;
};

class ResilientClient {
 public:
  using Result = engine::Expected<HttpClientResponse>;

  ResilientClient(std::string host, std::uint16_t port,
                  ResilientClientOptions options = {});

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// A full policy-managed exchange. Never throws on transport failure;
  /// returns kUnavailable (transient) instead. Non-transport HTTP error
  /// responses (4xx/5xx) are returned as values — status classification
  /// is the caller's business.
  Result request(const std::string& method, const std::string& target,
                 const std::string& body = "", const HttpHeaders& headers = {},
                 bool idempotent = true);

  Result get(const std::string& target) { return request("GET", target); }
  Result post(const std::string& target, const std::string& body,
              bool idempotent = true) {
    return request("POST", target, body, {}, idempotent);
  }

  /// Streaming POST with gapless resume (see file comment). `onLine` sees
  /// each NDJSON line exactly once even across mid-stream retries.
  Result postStreaming(
      const std::string& target, const std::string& body,
      const std::function<void(std::string_view line)>& onLine);

  struct Stats {
    std::uint64_t attempts = 0;  ///< network round trips started
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t breakerShortCircuits = 0;
    std::uint64_t retryAfterHonored = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Breaker state for a target path (kClosed if never used).
  [[nodiscard]] CircuitBreaker::State breakerState(const std::string& target);

 private:
  CircuitBreaker& breakerFor(const std::string& target);
  HttpClientResponse oneAttempt(const std::string& method,
                                const std::string& target,
                                const std::string& body,
                                const HttpHeaders& headers, bool idempotent);
  HttpClientResponse hedgedAttempt(const std::string& method,
                                   const std::string& target,
                                   const std::string& body,
                                   const HttpHeaders& headers,
                                   bool idempotent);
  [[nodiscard]] std::chrono::milliseconds hedgeDelay() const;
  void recordWinnerLatency(std::chrono::milliseconds latency);
  Client& connection();

  std::string host_;
  std::uint16_t port_ = 0;
  ResilientClientOptions options_;
  sim::Rng rng_;
  std::optional<Client> client_;  // lazy: ctor must not require the server
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<std::int64_t> winnerLatenciesMs_;  // ring, newest overwrites
  std::size_t winnerHead_ = 0;
  Stats stats_;
};

}  // namespace stordep::service::resilience
