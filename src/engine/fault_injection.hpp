// fault_injection.hpp — deterministic fault injection for the engine.
//
// The fault-tolerance paths (per-request isolation, transient-error
// reporting, cancellation, deadline expiry) are only trustworthy if they are
// testable, and they are only testable if failures can be provoked on
// demand, deterministically, at each layer they guard. A FaultInjector is
// installed on an Engine (Engine::setFaultInjector) and consulted at four
// sites:
//
//   kEvaluate    — before the model computation for a request;
//   kCacheLookup — before the result-cache probe;
//   kCacheInsert — before the result-cache insert (the engine swallows
//                  injected insert faults: losing a cache write must never
//                  fail a request that already has its result);
//   kPool        — at batch dispatch, standing in for scheduler faults.
//
// Determinism under parallelism: a probability-targeted decision is a pure
// function of (seed, site, request fingerprint) — a seeded sim::Rng stream
// keyed by that triple — so the *same requests* fail no matter how the
// batch is chunked across threads or in what order chunks run. Fingerprint
// targets fail a specific request; `failuresPerTarget` bounds how many
// times each target fires (N transient faults, then success). Injected
// latency slows matching sites without failing them, which is how deadline
// expiry is exercised.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/errors.hpp"
#include "engine/fingerprint.hpp"

namespace stordep::engine {

enum class FaultSite : unsigned {
  kEvaluate = 0,
  kCacheLookup = 1,
  kCacheInsert = 2,
  kPool = 3,
};

[[nodiscard]] const char* toString(FaultSite site) noexcept;

[[nodiscard]] constexpr unsigned faultSiteBit(FaultSite site) noexcept {
  return 1u << static_cast<unsigned>(site);
}

/// The exception an armed site throws; classified as kInjected by
/// errorFromCurrentException(), transient per the plan.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, bool transient, const std::string& what)
      : std::runtime_error(what), site_(site), transient_(transient) {}
  [[nodiscard]] FaultSite site() const noexcept { return site_; }
  [[nodiscard]] bool transient() const noexcept { return transient_; }

 private:
  FaultSite site_;
  bool transient_;
};

struct FaultPlan {
  /// Seed for the per-request hash stream (probability decisions).
  std::uint64_t seed = 0x5EEDu;
  /// Which sites are armed (OR of faultSiteBit()).
  unsigned sites = faultSiteBit(FaultSite::kEvaluate);
  /// Probability that an armed site fails a given request. The decision is
  /// a pure function of (seed, site, fingerprint): deterministic across
  /// thread counts and repeated attempts (a probability-hit request fails
  /// every attempt — use targets + failuresPerTarget for faults that clear).
  double probability = 0.0;
  /// Request fingerprints that always fail at armed sites...
  std::vector<Fingerprint> targets;
  /// ...at most this many times each (< 0 = unlimited): with N, attempt
  /// N + 1 at a target succeeds.
  int failuresPerTarget = -1;
  /// Injected failures are reported transient (worth another attempt) when
  /// true.
  bool transient = false;
  /// Extra latency applied on every visit to an armed site (whether or not
  /// the visit ends in a fault). Used to provoke deadline expiry
  /// deterministically.
  std::chrono::microseconds latency{0};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Consults the plan for (site, key): applies injected latency, then
  /// throws InjectedFault if the site should fail this request. No-op for
  /// unarmed sites.
  void maybeInject(FaultSite site, const Fingerprint& key);

  /// Would (site, key) fail right now? Does not consume a per-target
  /// budget and does not sleep.
  [[nodiscard]] bool wouldFail(FaultSite site, const Fingerprint& key) const;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Faults fired so far (across threads).
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }
  /// Site visits observed so far (armed sites only).
  [[nodiscard]] std::uint64_t visits() const noexcept {
    return visits_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool probabilityHit(FaultSite site,
                                    const Fingerprint& key) const;

  FaultPlan plan_;
  std::atomic<std::uint64_t> visits_{0};
  std::atomic<std::uint64_t> injected_{0};
  mutable std::mutex mu_;  // guards budgets_
  std::unordered_map<Fingerprint, int, FingerprintHash> budgets_;
};

}  // namespace stordep::engine
