// brownout.hpp — tiered load-shedding state machine for the server.
//
// Under sustained overload or repeated evaluation failures the server should
// degrade in steps rather than fall over: each tier sheds the most
// expensive remaining work first, and recovery walks back down with
// hysteresis so the server does not flap at the boundary.
//
//   tier 0 — normal operation.
//   tier 1 — shed stochastic envelopes: /v1/evaluate still answers, but
//            Monte-Carlo "stochastic" sections are replaced with a
//            structured unavailable error (they dominate per-request cost).
//   tier 2 — cache-hits-only: cold /v1/evaluate requests and all
//            /v1/search requests get 503 + Retry-After; warm requests are
//            served from the EvalCache.
//   tier 3 — full drain: every API request gets 503 + Retry-After.
//
// The controller is pure logic driven by the server's event-loop tick: it
// sees a pressure sample in [0, 1] (admitted evaluate slots over their
// bound) and the number of evaluate requests with failed slots since the
// last tick, and escalates after `ticksToEscalate` consecutive hot ticks
// (or a burst of failed requests), de-escalates one tier after
// `ticksToRecover` consecutive cool ticks. No clock, no threads —
// trivially unit-testable; the caller provides the cadence.
#pragma once

#include <cstdint>

namespace stordep::service::resilience {

struct BrownoutOptions {
  /// Pressure at or above this counts as a hot tick.
  double enterPressure = 0.75;
  /// Pressure at or below this counts as a cool tick; in between resets
  /// both streaks (hysteresis band).
  double exitPressure = 0.25;
  int ticksToEscalate = 3;
  int ticksToRecover = 5;
  /// Evaluate requests with >= 1 failed slot within one tick that count as
  /// an immediate hot tick (engine trouble escalates even when admission
  /// looks shallow).
  std::uint64_t failedWavesToEscalate = 3;
  int maxTier = 3;
};

class BrownoutController {
 public:
  explicit BrownoutController(BrownoutOptions options = {})
      : options_(options) {}

  /// One observation; returns the (possibly new) tier. `queuePressure` is
  /// the admitted evaluate slots over their bound, in [0, 1];
  /// `failedRequestsDelta` the evaluate requests with >= 1 failed slot
  /// since the previous tick.
  int tick(double queuePressure, std::uint64_t failedRequestsDelta);

  [[nodiscard]] int tier() const noexcept {
    return forcedTier_ >= 0 ? forcedTier_ : tier_;
  }
  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

  /// Pins the tier (tests, operator override); -1 releases the pin. A pin
  /// change counts as a transition so it is observable in /metrics.
  void force(int tier) noexcept;

 private:
  BrownoutOptions options_;
  int tier_ = 0;
  int forcedTier_ = -1;
  int hotStreak_ = 0;
  int coolStreak_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace stordep::service::resilience
