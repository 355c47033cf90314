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
// Single flight: probe() is the evaluating caller's lookup. It reports
// whether it hit, and a miss claims its key under the shard lock, so one
// miss is counted (and one evaluation runs) per key however many threads
// ask for it at once. A concurrent probe of a claimed key waits on the
// shard until the claim ends, polling its cancellation token, then reads
// the claimant's entry as a hit. A claim that ends without an insert (the
// evaluation failed or was cancelled, or the insert threw) frees the key,
// and a waiter probes again and may claim it.
//
// Fault injection: an installed FaultInjector is consulted at the top of
// probe() and lookup() (site kCacheLookup) and insert() (site
// kCacheInsert, also reached through Claim::fulfil()), outside
// the shard lock, so cache-layer failures are exercised exactly where a
// real storage-backed cache would fail. A throwing probe leaves the shard
// untouched.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/cancellation.hpp"
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

  /// A miss's exclusive right to compute its key. fulfil() inserts the
  /// result and ends the claim; a claim destroyed unfulfilled (the
  /// computation threw or was cancelled, or fulfil's insert threw) ends
  /// without an entry, and a waiting probe may then claim the key.
  class Claim {
   public:
    Claim() = default;
    Claim(Claim&& other) noexcept
        : cache_(std::exchange(other.cache_, nullptr)), key_(other.key_) {}
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    Claim& operator=(Claim&&) = delete;
    ~Claim() {
      if (cache_ != nullptr) cache_->release(key_);
    }

    /// Inserts `result` under the claimed key, as insert() does, and ends
    /// the claim. Call at most once.
    void fulfil(const EvaluationResult& result);

   private:
    friend class EvalCache;
    Claim(EvalCache* cache, const Fingerprint& key) : cache_(cache), key_(key) {}

    EvalCache* cache_ = nullptr;  ///< null once fulfilled, or never claimed
    Fingerprint key_;
  };

  /// What probe() found: the cached result on a hit, else the claim.
  struct Probe {
    std::optional<EvaluationResult> hit;
    Claim claim;
  };

  /// The evaluating caller's lookup (see "Single flight" above). A hit
  /// returns the entry and refreshes its LRU position; a miss counts one
  /// miss and returns the key's claim. While another thread holds the
  /// claim, waits for it to end, then probes again; once `token` fires
  /// during the wait, throws EvalException with the token's error. The
  /// kCacheLookup fault site is consulted once, before the shard lock.
  [[nodiscard]] Probe probe(const Fingerprint& key,
                            const CancellationToken& token = {});

  /// Returns the cached result and refreshes its LRU position, or nullopt.
  /// Never claims and never waits: a claimed key without an entry misses.
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
    /// Keys claimed by an in-flight miss: at most one per evaluating
    /// thread, so a scan beats a hash set.
    std::vector<Fingerprint> claimed;
    std::condition_variable claimEnded;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shardFor(const Fingerprint& key) {
    return *shards_[key.hi & (shards_.size() - 1)];
  }
  /// The entry under `key` moved to the LRU front, or null. Lock held.
  [[nodiscard]] static const EvaluationResult* findLocked(
      Shard& shard, const Fingerprint& key);
  /// Ends the key's claim and wakes the shard's waiting probes.
  void release(const Fingerprint& key) noexcept;

  std::size_t perShardCapacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<FaultInjector> injector_;  // null = no injection
  std::atomic<std::uint64_t> insertFailures_{0};
};

}  // namespace stordep::engine
