#include "cluster/membership.hpp"

#include <algorithm>

namespace stordep::cluster {

namespace {

// members_ stays sorted by id; lookups are binary searches.
auto lowerBound(std::vector<MemberInfo>& members, const std::string& id) {
  return std::lower_bound(
      members.begin(), members.end(), id,
      [](const MemberInfo& m, const std::string& key) { return m.id < key; });
}

auto lowerBound(const std::vector<MemberInfo>& members, const std::string& id) {
  return std::lower_bound(
      members.begin(), members.end(), id,
      [](const MemberInfo& m, const std::string& key) { return m.id < key; });
}

}  // namespace

Membership::Membership(std::string selfId, std::string selfHost, int selfPort,
                       MembershipOptions options,
                       std::chrono::steady_clock::time_point now)
    : selfId_(std::move(selfId)), options_(options) {
  members_.push_back(MemberInfo{selfId_, std::move(selfHost), selfPort,
                                MemberState::kAlive, now});
}

void Membership::heardFrom(const std::string& id, const std::string& host,
                           int port,
                           std::chrono::steady_clock::time_point now) {
  if (id.empty() || id == selfId_) return;
  auto it = lowerBound(members_, id);
  if (it == members_.end() || it->id != id) {
    members_.insert(it, MemberInfo{id, host, port, MemberState::kAlive, now});
    return;
  }
  it->host = host;
  it->port = port;
  it->lastHeard = now;
  it->state = MemberState::kAlive;
}

void Membership::introduce(const std::string& id, const std::string& host,
                           int port,
                           std::chrono::steady_clock::time_point now) {
  if (id.empty() || id == selfId_) return;
  auto it = lowerBound(members_, id);
  if (it != members_.end() && it->id == id) return;
  members_.insert(it, MemberInfo{id, host, port, MemberState::kAlive, now});
}

void Membership::tick(std::chrono::steady_clock::time_point now) {
  for (auto it = members_.begin(); it != members_.end();) {
    if (it->id == selfId_) {
      it->lastHeard = now;
      ++it;
      continue;
    }
    const auto silence = now - it->lastHeard;
    if (silence >= options_.evictAfter) {
      it = members_.erase(it);
      continue;
    }
    if (silence >= options_.suspectAfter) it->state = MemberState::kSuspect;
    ++it;
  }
}

std::vector<MemberInfo> Membership::snapshot() const { return members_; }

std::optional<MemberInfo> Membership::find(const std::string& id) const {
  const auto it = lowerBound(members_, id);
  if (it == members_.end() || it->id != id) return std::nullopt;
  return *it;
}

bool Membership::isAlive(const std::string& id) const {
  const auto info = find(id);
  return info.has_value() && info->state == MemberState::kAlive;
}

std::size_t Membership::aliveCount() const {
  return static_cast<std::size_t>(
      std::count_if(members_.begin(), members_.end(), [](const MemberInfo& m) {
        return m.state == MemberState::kAlive;
      }));
}

std::size_t Membership::suspectCount() const {
  return members_.size() - aliveCount();
}

}  // namespace stordep::cluster
