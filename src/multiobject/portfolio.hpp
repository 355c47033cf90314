// portfolio.hpp — multi-object storage designs (the extension the paper
// sketches in Sec 3.1.1: "explicitly tracking each object's workload
// demands, the set of techniques and underlying storage devices used to
// protect the object, and inter-object dependencies during recovery").
//
// A Portfolio composes several per-object StorageDesigns that may *share*
// hardware (the same array instance holding two databases, one tape library
// backing up everything). It provides:
//
//  * aggregate utilization — demands from every object summed per shared
//    device, with overload detection the single-object models can't see;
//  * aggregate outlays — shared fixed costs charged once, not per object;
//  * dependency-aware recovery — objects declare recovery dependencies
//    ("the app restores only after its database"); restores sharing a
//    source device serialize on it, independent restores proceed in
//    parallel, and the portfolio recovery time is the last completion.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/evaluator.hpp"
#include "engine/batch.hpp"

namespace stordep::multiobject {

class PortfolioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One protected data object: its design plus recovery dependencies.
struct ObjectSpec {
  std::string name;
  StorageDesign design;
  /// Names of objects that must complete recovery before this one starts
  /// (e.g., restore the database before the application server state).
  std::vector<std::string> dependsOn;
};

/// One object's recovery outcome within the portfolio schedule.
struct ObjectRecovery {
  std::string object;
  bool recoverable = false;
  Duration dataLoss = Duration::infinite();
  /// When this object's restore began (after dependencies and device
  /// queueing) and when it completed, on the portfolio clock.
  Duration startTime = Duration::infinite();
  Duration completionTime = Duration::infinite();
  /// The standalone recovery duration (no queueing).
  Duration ownDuration = Duration::infinite();
  std::string sourceDevice;  ///< device the restore reads from
};

struct PortfolioRecoveryResult {
  std::vector<ObjectRecovery> objects;
  bool allRecoverable = false;
  /// Completion of the last object: the business is down until then.
  Duration totalRecoveryTime = Duration::infinite();
  /// The worst per-object data loss.
  Duration worstDataLoss = Duration::infinite();
};

class Portfolio {
 public:
  /// Validates names (unique), dependencies (known, acyclic).
  explicit Portfolio(std::vector<ObjectSpec> objects);

  [[nodiscard]] const std::vector<ObjectSpec>& objects() const noexcept {
    return objects_;
  }
  [[nodiscard]] const ObjectSpec& object(const std::string& name) const;

  /// Demands from every object, per shared device (devices are shared when
  /// the same DeviceModel instance appears in several designs).
  [[nodiscard]] UtilizationResult aggregateUtilization() const;

  /// Aggregate annual outlays: each device's fixed cost charged once (to
  /// the first primary technique using it), incremental costs per demand,
  /// spares on the device's total usage.
  [[nodiscard]] Money aggregateOutlays() const;

  /// Dependency-aware recovery under `scenario`:
  ///  1. objects restore in topological order of their dependencies;
  ///  2. an object's restore starts once its dependencies completed AND its
  ///     recovery-source device is free (restores sharing a source device
  ///     serialize; distinct devices run in parallel);
  ///  3. the portfolio is recovered when the last object is.
  [[nodiscard]] PortfolioRecoveryResult recover(
      const FailureScenario& scenario) const;

  /// recover() for a whole scenario set at once: scenarios fan out across
  /// the engine's thread pool (each scenario's schedule is independent) and
  /// per-object recovery results come from the engine's memoizing cache
  /// (null = Engine::shared()), so repeated what-if sweeps over the same
  /// portfolio are mostly cache hits. results[i] answers scenarios[i] and
  /// is identical to recover(scenarios[i]).
  [[nodiscard]] std::vector<PortfolioRecoveryResult> recoverBatch(
      const std::vector<FailureScenario>& scenarios,
      engine::Engine* eng = nullptr) const;

  /// recoverBatch with the engine's structured-error contract: one
  /// scenario whose recovery model fails (or is fault-injected) yields an
  /// engine::EvalError in its own slot instead of aborting the sweep, and
  /// `token` cancels the remaining scenarios (their slots come back
  /// kCancelled / kDeadlineExceeded). Successful slots are bit-identical
  /// to recoverBatch's.
  [[nodiscard]] std::vector<engine::Expected<PortfolioRecoveryResult>>
  recoverBatchOutcomes(const std::vector<FailureScenario>& scenarios,
                       const engine::CancellationToken& token = {},
                       engine::Engine* eng = nullptr) const;

  /// Objects in a valid dependency order (computed at construction).
  [[nodiscard]] const std::vector<size_t>& topologicalOrder() const noexcept {
    return topoOrder_;
  }

 private:
  /// The dependency/device-queueing schedule, parameterized over how one
  /// object's own recovery is obtained (directly, or through the engine).
  [[nodiscard]] PortfolioRecoveryResult recoverImpl(
      const FailureScenario& scenario,
      const std::function<RecoveryResult(const StorageDesign&,
                                         const FailureScenario&)>& recoveryOf)
      const;

  std::vector<ObjectSpec> objects_;
  std::vector<size_t> topoOrder_;
};

/// Every object's demand rows, in object then level order, merged for the
/// aggregate models. Each row's owner indexes `names`, which qualify the
/// technique with its object so cost attribution stays legible
/// ("db/foreground workload" vs "app/foreground workload").
struct MergedDemands {
  std::vector<DemandRow> rows;
  std::vector<std::string> names;
};

[[nodiscard]] MergedDemands mergedDemands(
    const std::vector<ObjectSpec>& objects);

}  // namespace stordep::multiobject
