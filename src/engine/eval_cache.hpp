// eval_cache.hpp — sharded, LRU-bounded memoization of evaluation results.
//
// evaluate() is a pure function, so its results can be memoized by the
// canonical fingerprint of (design, scenario). Design-space search, local
// refinement and portfolio sweeps re-evaluate the same pairs constantly
// (refinement revisits the grid winner's neighborhood; repeated what-if
// sweeps re-ask identical questions), so a bounded cache turns those
// re-evaluations into lookups.
//
// Concurrency: the table is striped into N shards (N rounded up to a power
// of two), each an independent mutex + LRU list + hash index, selected by
// fingerprint bits. Worker threads evaluating different pairs contend only
// when they land on the same shard. Statistics (hits/misses/inserts/
// evictions) are aggregated across shards on demand.
//
// Fault injection: an installed FaultInjector is consulted at the top of
// lookup() (site kCacheLookup) and insert() (site kCacheInsert), outside
// the shard lock, so cache-layer failures are exercised exactly where a
// real storage-backed cache would fail. A throwing probe leaves the shard
// untouched.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/fault_injection.hpp"
#include "engine/fingerprint.hpp"

namespace stordep::engine {

class EvalCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t probes = 0;  ///< hits + misses (lookup traffic)
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /// insert() calls that threw before reaching the table (injected
    /// kCacheInsert faults, allocation failures). The engine swallows these
    /// — losing a cache write never fails a request that already has its
    /// result — so this counter is the only audit trail an injected-fault
    /// run leaves.
    std::uint64_t insertFailures = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;

    [[nodiscard]] double hitRate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }

    /// Snapshot diff: the traffic counters accumulated since `since` was
    /// taken (monotone counters subtract; a counter that somehow went
    /// backwards — e.g. `since` from before a clear() — clamps to 0 rather
    /// than wrapping). `entries`/`capacity` stay at this snapshot's values:
    /// they are gauges, not counters. This is what lets a periodic scraper
    /// (/metrics) report per-interval hit rates instead of lifetime totals.
    [[nodiscard]] Stats delta(const Stats& since) const noexcept {
      const auto sub = [](std::uint64_t now, std::uint64_t then) {
        return now >= then ? now - then : std::uint64_t{0};
      };
      Stats out;
      out.hits = sub(hits, since.hits);
      out.misses = sub(misses, since.misses);
      out.probes = sub(probes, since.probes);
      out.inserts = sub(inserts, since.inserts);
      out.evictions = sub(evictions, since.evictions);
      out.insertFailures = sub(insertFailures, since.insertFailures);
      out.entries = entries;
      out.capacity = capacity;
      return out;
    }
  };

  /// `capacity` bounds the total entry count (split evenly across shards,
  /// at least one entry per shard); `shards` is rounded up to a power of
  /// two.
  explicit EvalCache(std::size_t capacity = kDefaultCapacity,
                     std::size_t shards = kDefaultShards);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Returns the cached result and refreshes its LRU position, or nullopt.
  [[nodiscard]] std::optional<EvaluationResult> lookup(const Fingerprint& key);

  /// Inserts (or refreshes) `result` under `key`, evicting the shard's
  /// least-recently-used entry when full.
  void insert(const Fingerprint& key, const EvaluationResult& result);

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// lookup()/insert(). Not thread-safe against in-flight operations: set
  /// it while the cache is quiescent (the Engine does this for its own
  /// cache before a batch starts).
  void setFaultInjector(std::shared_ptr<FaultInjector> injector) noexcept {
    injector_ = std::move(injector);
  }
  [[nodiscard]] const std::shared_ptr<FaultInjector>& faultInjector()
      const noexcept {
    return injector_;
  }

  void clear();
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept {
    return perShardCapacity_ * shards_.size();
  }
  [[nodiscard]] std::size_t shardCount() const noexcept {
    return shards_.size();
  }

  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  static constexpr std::size_t kDefaultShards = 16;

 private:
  struct Entry {
    Fingerprint key;
    EvaluationResult result;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Fingerprint, std::list<Entry>::iterator,
                       FingerprintHash>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shardFor(const Fingerprint& key) {
    return *shards_[key.hi & (shards_.size() - 1)];
  }

  std::size_t perShardCapacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<FaultInjector> injector_;  // null = no injection
  std::atomic<std::uint64_t> insertFailures_{0};
};

}  // namespace stordep::engine
