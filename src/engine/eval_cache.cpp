#include "engine/eval_cache.hpp"

#include <algorithm>
#include <chrono>

namespace stordep::engine {

namespace {
std::size_t roundUpPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

EvalCache::EvalCache(std::size_t capacity, std::size_t shards) {
  const std::size_t shardCount =
      roundUpPowerOfTwo(std::max<std::size_t>(1, shards));
  perShardCapacity_ =
      std::max<std::size_t>(1, (std::max<std::size_t>(1, capacity) +
                                shardCount - 1) /
                                   shardCount);
  shards_.reserve(shardCount);
  for (std::size_t i = 0; i < shardCount; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

const EvaluationResult* EvalCache::findLocked(Shard& shard,
                                              const Fingerprint& key) {
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return &it->second->result;
}

EvalCache::Probe EvalCache::probe(const Fingerprint& key,
                                  const CancellationToken& token) {
  // Between polls of a cancellable token, a waiter sleeps at most this long.
  constexpr std::chrono::milliseconds kTokenPoll{1};
  if (injector_) injector_->maybeInject(FaultSite::kCacheLookup, key);
  Shard& shard = shardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  const auto unclaimed = [&] {
    return std::find(shard.claimed.begin(), shard.claimed.end(), key) ==
           shard.claimed.end();
  };
  while (true) {
    if (const EvaluationResult* entry = findLocked(shard, key)) {
      ++shard.hits;
      return Probe{*entry, Claim{}};
    }
    if (unclaimed()) {
      ++shard.misses;
      shard.claimed.push_back(key);
      return Probe{std::nullopt, Claim{this, key}};
    }
    if (!token.cancellable()) {
      shard.claimEnded.wait(lock, unclaimed);
    } else if (!shard.claimEnded.wait_for(lock, kTokenPoll, unclaimed) &&
               token.cancelled()) {
      throw EvalException(token.toError());
    }
  }
}

std::optional<EvaluationResult> EvalCache::lookup(const Fingerprint& key) {
  if (injector_) injector_->maybeInject(FaultSite::kCacheLookup, key);
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (const EvaluationResult* entry = findLocked(shard, key)) {
    ++shard.hits;
    return *entry;
  }
  ++shard.misses;
  return std::nullopt;
}

void EvalCache::insert(const Fingerprint& key,
                       const EvaluationResult& result) {
  if (injector_) {
    try {
      injector_->maybeInject(FaultSite::kCacheInsert, key);
    } catch (...) {
      insertFailures_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh: another thread may have inserted the same pure result first.
    it->second->result = result;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= perShardCapacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, result});
  shard.index.emplace(key, shard.lru.begin());
  ++shard.inserts;
}

void EvalCache::Claim::fulfil(const EvaluationResult& result) {
  cache_->insert(key_, result);  // a throw leaves the release to ~Claim
  std::exchange(cache_, nullptr)->release(key_);
}

void EvalCache::release(const Fingerprint& key) noexcept {
  Shard& shard = shardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it =
        std::find(shard.claimed.begin(), shard.claimed.end(), key);
    if (it != shard.claimed.end()) shard.claimed.erase(it);
  }
  shard.claimEnded.notify_all();
}

void EvalCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

EvalCache::Stats EvalCache::stats() const {
  Stats out;
  out.capacity = capacity();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.inserts += shard->inserts;
    out.evictions += shard->evictions;
    out.entries += shard->lru.size();
  }
  out.probes = out.hits + out.misses;
  out.insertFailures = insertFailures_.load(std::memory_order_relaxed);
  return out;
}

std::size_t EvalCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace stordep::engine
