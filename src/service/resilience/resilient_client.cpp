#include "service/resilience/resilient_client.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

namespace stordep::service::resilience {

namespace {

/// Target path without the query string — the breaker granularity.
[[nodiscard]] std::string pathOf(const std::string& target) {
  const std::size_t query = target.find('?');
  return query == std::string::npos ? target : target.substr(0, query);
}

/// Retry-After in milliseconds, when present and a plain delta-seconds
/// value (the only form our server emits). nullopt otherwise.
[[nodiscard]] std::optional<std::chrono::milliseconds> retryAfterOf(
    const HttpClientResponse& response) {
  const std::string* value = response.header("Retry-After");
  if (value == nullptr || value->empty()) return std::nullopt;
  char* end = nullptr;
  const long seconds = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || seconds < 0) return std::nullopt;
  return std::chrono::milliseconds{seconds * 1000};
}

/// Statuses where the server explicitly did NOT apply the request, so a
/// retry can never double-submit regardless of idempotency.
[[nodiscard]] bool statusIsRetryable(int status) noexcept {
  return status == 429 || status == 503;
}

/// Statuses the circuit breaker counts as server failure (a busy-but-alive
/// 429 is not one).
[[nodiscard]] bool statusIsServerFailure(int status) noexcept {
  return status == 500 || status == 502 || status == 503 || status == 504;
}

}  // namespace

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 ResilientClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      rng_(sim::Rng::substreamSeed(options.seed, 0x7e71)),
      winnerLatenciesMs_(128, -1) {}

CircuitBreaker& ResilientClient::breakerFor(const std::string& target) {
  auto& slot = breakers_[pathOf(target)];
  if (!slot) slot = std::make_unique<CircuitBreaker>(options_.breaker);
  return *slot;
}

CircuitBreaker::State ResilientClient::breakerState(
    const std::string& target) {
  return breakerFor(target).state();
}

Client& ResilientClient::connection() {
  if (!client_) {
    client_.emplace(host_, port_, options_.timeout);
  }
  return *client_;
}

std::chrono::milliseconds ResilientClient::hedgeDelay() const {
  std::vector<std::int64_t> samples;
  samples.reserve(winnerLatenciesMs_.size());
  for (const std::int64_t v : winnerLatenciesMs_) {
    if (v >= 0) samples.push_back(v);
  }
  if (samples.empty()) return options_.hedgeFloor;
  std::sort(samples.begin(), samples.end());
  const double rank =
      options_.hedgeQuantile * static_cast<double>(samples.size() - 1);
  const std::int64_t quantile =
      samples[static_cast<std::size_t>(rank + 0.5)];
  return std::max(options_.hedgeFloor, std::chrono::milliseconds{quantile});
}

void ResilientClient::recordWinnerLatency(std::chrono::milliseconds latency) {
  winnerLatenciesMs_[winnerHead_] = latency.count();
  winnerHead_ = (winnerHead_ + 1) % winnerLatenciesMs_.size();
}

HttpClientResponse ResilientClient::hedgedAttempt(const std::string& method,
                                                  const std::string& target,
                                                  const std::string& body,
                                                  const HttpHeaders& headers,
                                                  bool idempotent) {
  // Both runners use their own connection: a straggler may outlive this
  // call, so it must not share the member keep-alive client. The shared
  // state is reference-counted for the same reason.
  struct Race {
    std::mutex mu;
    std::condition_variable cv;
    bool won = false;
    bool winnerIsHedge = false;
    int launched = 1;
    int finished = 0;
    HttpClientResponse response;
    std::exception_ptr firstError;
  };
  auto race = std::make_shared<Race>();
  const std::string host = host_;
  const std::uint16_t port = port_;
  const std::chrono::milliseconds timeout = options_.timeout;
  const auto runner = [race, host, port, timeout, method, target, body,
                       headers, idempotent](bool isHedge) {
    try {
      Client client(host, port, timeout);
      HttpClientResponse response =
          client.request(method, target, body, headers, idempotent);
      std::lock_guard<std::mutex> lock(race->mu);
      if (!race->won) {
        race->won = true;
        race->winnerIsHedge = isHedge;
        race->response = std::move(response);
      }
      ++race->finished;
      race->cv.notify_all();
    } catch (...) {
      std::lock_guard<std::mutex> lock(race->mu);
      if (!race->firstError) race->firstError = std::current_exception();
      ++race->finished;
      race->cv.notify_all();
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::thread(runner, /*isHedge=*/false).detach();

  std::unique_lock<std::mutex> lock(race->mu);
  const auto primarySettled = [&race] {
    return race->won || race->finished >= race->launched;
  };
  if (!race->cv.wait_for(lock, hedgeDelay(), primarySettled)) {
    race->launched = 2;
    ++stats_.hedges;
    std::thread(runner, /*isHedge=*/true).detach();
  }
  race->cv.wait(lock, [&race] {
    return race->won || race->finished >= race->launched;
  });
  if (race->won) {
    if (race->winnerIsHedge) ++stats_.hedgeWins;
    recordWinnerLatency(std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start));
    return std::move(race->response);
  }
  std::rethrow_exception(race->firstError);
}

HttpClientResponse ResilientClient::oneAttempt(const std::string& method,
                                               const std::string& target,
                                               const std::string& body,
                                               const HttpHeaders& headers,
                                               bool idempotent) {
  if (options_.hedging && idempotent) {
    return hedgedAttempt(method, target, body, headers, idempotent);
  }
  return connection().request(method, target, body, headers, idempotent);
}

ResilientClient::Result ResilientClient::request(const std::string& method,
                                                 const std::string& target,
                                                 const std::string& body,
                                                 const HttpHeaders& headers,
                                                 bool idempotent) {
  CircuitBreaker& breaker = breakerFor(target);
  const int maxAttempts = std::max(1, options_.retry.maxAttempts);
  std::chrono::milliseconds backoff = options_.retry.baseBackoff;
  std::string lastError;
  int attempt = 0;
  while (attempt < maxAttempts) {
    if (!breaker.allow()) {
      ++stats_.breakerShortCircuits;
      return engine::EvalError{
          engine::EvalErrorCode::kUnavailable,
          "circuit breaker open for " + pathOf(target),
          /*transient=*/true, /*attempts=*/attempt};
    }
    ++attempt;
    ++stats_.attempts;
    try {
      HttpClientResponse response =
          oneAttempt(method, target, body, headers, idempotent);
      breaker.record(!statusIsServerFailure(response.status));
      if (statusIsRetryable(response.status) && attempt < maxAttempts) {
        backoff = nextBackoff(options_.retry, backoff, rng_);
        std::chrono::milliseconds wait = backoff;
        if (options_.retry.honorRetryAfter) {
          if (const auto retryAfter = retryAfterOf(response)) {
            wait = std::min(*retryAfter, options_.retry.maxRetryAfter);
            ++stats_.retryAfterHonored;
          }
        }
        ++stats_.retries;
        std::this_thread::sleep_for(wait);
        continue;
      }
      return response;
    } catch (const TransportError& error) {
      breaker.record(false);
      lastError = std::string(error.stageName()) + ": " + error.what();
      if (attempt >= maxAttempts || !error.safeToRetry(idempotent)) {
        return engine::EvalError{engine::EvalErrorCode::kUnavailable,
                                 lastError, /*transient=*/true,
                                 /*attempts=*/attempt};
      }
      ++stats_.retries;
      backoff = nextBackoff(options_.retry, backoff, rng_);
      std::this_thread::sleep_for(backoff);
    }
  }
  return engine::EvalError{
      engine::EvalErrorCode::kUnavailable,
      lastError.empty() ? "retry budget exhausted" : lastError,
      /*transient=*/true, /*attempts=*/attempt};
}

ResilientClient::Result ResilientClient::postStreaming(
    const std::string& target, const std::string& body,
    const std::function<void(std::string_view line)>& onLine) {
  CircuitBreaker& breaker = breakerFor(target);
  const int maxAttempts = std::max(1, options_.retry.maxAttempts);
  std::chrono::milliseconds backoff = options_.retry.baseBackoff;
  std::string lastError;
  int attempt = 0;
  // Client-side checkpoint: lines already handed to the caller. A retry
  // re-runs the (deterministic) search and skips this prefix, so the
  // caller's stream is gapless and duplicate-free.
  std::size_t delivered = 0;
  while (attempt < maxAttempts) {
    if (!breaker.allow()) {
      ++stats_.breakerShortCircuits;
      return engine::EvalError{
          engine::EvalErrorCode::kUnavailable,
          "circuit breaker open for " + pathOf(target),
          /*transient=*/true, /*attempts=*/attempt};
    }
    ++attempt;
    ++stats_.attempts;
    std::size_t seen = 0;
    try {
      HttpClientResponse response = connection().postStreaming(
          target, body, [&](std::string_view line) {
            if (++seen > delivered) {
              onLine(line);
              delivered = seen;
            }
          });
      breaker.record(!statusIsServerFailure(response.status));
      if (statusIsRetryable(response.status) && attempt < maxAttempts) {
        backoff = nextBackoff(options_.retry, backoff, rng_);
        std::chrono::milliseconds wait = backoff;
        if (options_.retry.honorRetryAfter) {
          if (const auto retryAfter = retryAfterOf(response)) {
            wait = std::min(*retryAfter, options_.retry.maxRetryAfter);
            ++stats_.retryAfterHonored;
          }
        }
        ++stats_.retries;
        std::this_thread::sleep_for(wait);
        continue;
      }
      return response;
    } catch (const TransportError& error) {
      breaker.record(false);
      lastError = std::string(error.stageName()) + ": " + error.what();
      // The search is pure, so replay-and-skip is always safe — except
      // when the server spoke garbage, which no retry will fix.
      if (attempt >= maxAttempts ||
          error.stage() == TransportError::Stage::kMalformed) {
        return engine::EvalError{engine::EvalErrorCode::kUnavailable,
                                 lastError, /*transient=*/true,
                                 /*attempts=*/attempt};
      }
      ++stats_.retries;
      backoff = nextBackoff(options_.retry, backoff, rng_);
      std::this_thread::sleep_for(backoff);
    }
  }
  return engine::EvalError{
      engine::EvalErrorCode::kUnavailable,
      lastError.empty() ? "retry budget exhausted" : lastError,
      /*transient=*/true, /*attempts=*/attempt};
}

}  // namespace stordep::service::resilience
