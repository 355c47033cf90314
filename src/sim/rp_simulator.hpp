// rp_simulator.hpp — simulation of the RP lifecycle.
//
// The analytic models of src/core compute *worst-case* data loss from window
// arithmetic. This simulator walks the actual creation / propagation /
// retention / eviction schedule of every level in time order, so that
// failure injection (failure_injector.hpp) can measure the *achieved* data
// loss at arbitrary failure instants and check it against the analytic
// bound — the validation the paper lists as future work.
//
// Scheduling semantics: level i creates an RP every accumulation window by
// capturing the newest RP *visible* at level i-1 (level 1 captures the live
// primary). The RP becomes visible at level i after holdW + propW and is
// evicted retCnt cycles after arrival. With creation grids phase-aligned to
// the upstream arrival instants (the paper's implicit assumption, satisfied
// by its convention accW_i >= cyclePer_{i-1}), the worst observed loss
// converges exactly to the analytic bound; with adversarial phases it can
// exceed it — an effect the ablation bench demonstrates.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/data_loss.hpp"
#include "core/hierarchy.hpp"

namespace stordep::sim {

using SimTime = double;  ///< seconds since simulation start

class SimulationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One simulated retrieval point at one level.
struct SimRp {
  SimTime dataTime = 0;     ///< timestamp of the data state it captures
  SimTime createTime = 0;   ///< when the level started creating it
  SimTime arrivalTime = 0;  ///< when it became visible (restorable)
  SimTime evictTime = 0;    ///< when it was retired
  bool isFull = true;       ///< full vs incremental representation
};

struct RpSimOptions {
  /// Simulated horizon. Must cover several cycles of the slowest level to
  /// reach steady state.
  Duration horizon = days(120);
  /// Align each level's creation grid with the upstream arrival instants
  /// (the paper's assumption). When false, `phases` supplies explicit
  /// per-level offsets (missing entries default to zero; run() refuses a
  /// negative one).
  bool alignSchedules = true;
  std::vector<Duration> phases;
  /// Safety valve against runaway schedules (tiny accW, long horizon).
  /// Events are RP creations plus each level's cycle starts after its
  /// first; run() throws when a creation finds more than this many before
  /// it.
  std::uint64_t maxEvents = 20'000'000;
};

class RpLifecycleSimulator {
 public:
  RpLifecycleSimulator(StorageDesign design, RpSimOptions options);

  /// Runs the schedule over [0, horizon]. Idempotent (reruns reset state).
  void run();

  /// Newest RP visible at `level` at `failTime` capturing data no newer
  /// than `targetTime`. Continuous levels (accW == 0, sync/async mirrors)
  /// are evaluated analytically.
  [[nodiscard]] std::optional<SimRp> bestVisibleRp(int level, SimTime failTime,
                                                   SimTime targetTime) const;

  /// Achieved recent data loss for `scenario` if the failure strikes at
  /// `failTime`: the gap between the requested restoration point and the
  /// best surviving RP. Infinite when nothing can serve the target.
  [[nodiscard]] Duration observedDataLoss(const FailureScenario& scenario,
                                          SimTime failTime) const;

  /// Time by which every level has reached steady-state retention; failure
  /// injection should sample at or after this point.
  [[nodiscard]] SimTime warmupTime() const;

  [[nodiscard]] const std::vector<SimRp>& timeline(int level) const;
  [[nodiscard]] const StorageDesign& design() const noexcept {
    return design_;
  }
  [[nodiscard]] SimTime horizon() const noexcept {
    return options_.horizon.secs();
  }
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept {
    return totalEvents_;
  }

 private:
  void createRp(int level, SimTime now, bool isFull,
                const WindowSpec& windows);
  [[nodiscard]] Duration levelPhase(int level) const;
  [[nodiscard]] bool isContinuous(int level) const;

  // Stored by value: callers routinely pass freshly built temporaries, and
  // the simulator outlives the call site's expression.
  StorageDesign design_;
  RpSimOptions options_;
  /// Per level (index 0 unused), in arrival order per creation order.
  std::vector<std::vector<SimRp>> timelines_;
  std::uint64_t totalEvents_ = 0;
  bool ran_ = false;
};

}  // namespace stordep::sim
