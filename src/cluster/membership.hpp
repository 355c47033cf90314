// membership.hpp — seed-list gossip membership with failure suspicion.
//
// Pure bookkeeping, no threads, no sockets, no clock reads: every mutator
// takes the current steady_clock time as a parameter, exactly like the
// resilience layer's CircuitBreaker, so unit tests drive suspicion and
// eviction with an injected clock instead of sleeps. The owning ClusterNode
// supplies the I/O around it: a heartbeat thread POSTs /v1/cluster/ping to
// seeds and known peers and upserts whatever the responses report; the
// server's loop thread upserts whoever pings it.
//
// State machine per peer:
//
//   (heard from) ──▶ Alive ──suspectAfter silence──▶ Suspect
//                      ▲                                │
//                      └──────── heard again ◀──────────┤
//                                                       │ evictAfter silence
//                                                     evicted (forgotten)
//
// A Suspect stays a member until it is evicted, but distributed sweeps
// leave it out of their partitions: only Alive members are handed a grid
// range.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace stordep::cluster {

enum class MemberState { kAlive, kSuspect };

struct MemberInfo {
  std::string id;
  std::string host;
  int port = 0;
  MemberState state = MemberState::kAlive;
  std::chrono::steady_clock::time_point lastHeard{};
};

struct MembershipOptions {
  /// Heartbeat cadence (used by the node's gossip thread, recorded here so
  /// the whole timing contract lives in one struct).
  std::chrono::milliseconds heartbeatInterval{500};
  /// Silence before an Alive peer turns Suspect (left out of sweeps).
  std::chrono::milliseconds suspectAfter{2'000};
  /// Silence before a Suspect peer is evicted (forgotten).
  std::chrono::milliseconds evictAfter{6'000};
};

class Membership {
 public:
  Membership(std::string selfId, std::string selfHost, int selfPort,
             MembershipOptions options,
             std::chrono::steady_clock::time_point now);

  /// Records a peer as heard-from at `now` (join or refresh). The self entry
  /// cannot be overwritten. A re-joining evicted peer is simply a new join.
  void heardFrom(const std::string& id, const std::string& host, int port,
                 std::chrono::steady_clock::time_point now);

  /// Insert-only variant for members learned transitively (another node's
  /// ping response listed them). A new member joins as Alive at `now`; an
  /// already-known member is left untouched — in particular its lastHeard is
  /// NOT refreshed, because second-hand gossip is not evidence the peer is
  /// reachable and refreshing on it would delay death detection.
  void introduce(const std::string& id, const std::string& host, int port,
                 std::chrono::steady_clock::time_point now);

  /// Applies suspicion/eviction timeouts at `now`. Self is exempt.
  void tick(std::chrono::steady_clock::time_point now);

  /// Every current member (self included), sorted by id.
  [[nodiscard]] std::vector<MemberInfo> snapshot() const;

  [[nodiscard]] std::optional<MemberInfo> find(const std::string& id) const;
  [[nodiscard]] bool isAlive(const std::string& id) const;

  [[nodiscard]] std::size_t aliveCount() const;
  [[nodiscard]] std::size_t suspectCount() const;

  [[nodiscard]] const std::string& selfId() const noexcept { return selfId_; }
  [[nodiscard]] const MembershipOptions& options() const noexcept {
    return options_;
  }

 private:
  std::string selfId_;
  MembershipOptions options_;
  std::vector<MemberInfo> members_;  // sorted by id, self always present
};

}  // namespace stordep::cluster
