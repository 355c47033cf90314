#include "service/resilience/brownout.hpp"

#include <algorithm>

namespace stordep::service::resilience {

int BrownoutController::tick(double queuePressure,
                             std::uint64_t failedRequestsDelta) {
  const bool hot = queuePressure >= options_.enterPressure ||
                   failedRequestsDelta >= options_.failedWavesToEscalate;
  const bool cool =
      queuePressure <= options_.exitPressure && failedRequestsDelta == 0;

  if (hot) {
    ++hotStreak_;
    coolStreak_ = 0;
    if (hotStreak_ >= options_.ticksToEscalate && tier_ < options_.maxTier) {
      ++tier_;
      ++transitions_;
      hotStreak_ = 0;
    }
  } else if (cool) {
    ++coolStreak_;
    hotStreak_ = 0;
    if (coolStreak_ >= options_.ticksToRecover && tier_ > 0) {
      --tier_;
      ++transitions_;
      coolStreak_ = 0;
    }
  } else {
    // Inside the hysteresis band: hold the tier, restart both streaks.
    hotStreak_ = 0;
    coolStreak_ = 0;
  }
  return tier();
}

void BrownoutController::force(int tier) noexcept {
  const int clamped =
      tier < 0 ? -1 : std::min(tier, options_.maxTier);
  if (clamped != forcedTier_) {
    forcedTier_ = clamped;
    ++transitions_;
    hotStreak_ = 0;
    coolStreak_ = 0;
  }
}

}  // namespace stordep::service::resilience
