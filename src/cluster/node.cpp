#include "cluster/node.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <utility>

#include "cluster/sweep.hpp"
#include "config/json.hpp"
#include "service/client.hpp"

namespace stordep::cluster {

using config::Json;
using config::JsonArray;
using config::JsonObject;

namespace {

const char* stateName(MemberState state) {
  return state == MemberState::kAlive ? "alive" : "suspect";
}

}  // namespace

ClusterNode::ClusterNode(service::Server& server, ClusterNodeOptions options)
    : server_(server),
      options_(std::move(options)),
      membership_(options_.nodeId, options_.advertiseHost,
                  options_.advertisePort, options_.membership,
                  std::chrono::steady_clock::now()) {}

ClusterNode::~ClusterNode() { stop(); }

void ClusterNode::start() {
  if (options_.nodeId.empty()) {
    throw std::runtime_error("cluster node requires a non-empty node id");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
    // Ephemeral-port servers only know their address after start(); the
    // membership self entry is rebuilt with the resolved advertisement.
    if (options_.advertisePort == 0) {
      options_.advertisePort = static_cast<int>(server_.port());
    }
    membership_ =
        Membership(options_.nodeId, options_.advertiseHost,
                   options_.advertisePort, options_.membership,
                   std::chrono::steady_clock::now());
  }
  server_.attachCluster(this);
  if (options_.enableHeartbeat) {
    heartbeatThread_ = std::thread([this] { heartbeatLoop(); });
  }
}

void ClusterNode::stop() {
  if (stopping_.exchange(true)) {
    server_.shutdown();  // idempotent re-entry: just make sure it is down
    return;
  }
  heartbeatCv_.notify_all();
  // The server's loop thread reads the hooks pointer per request, so the
  // server must be fully down before this node tears anything else apart.
  server_.shutdown();
  if (heartbeatThread_.joinable()) heartbeatThread_.join();
  server_.attachCluster(nullptr);
}

void ClusterNode::heartbeatLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    gossipOnce();
    std::unique_lock<std::mutex> lock(heartbeatMu_);
    heartbeatCv_.wait_for(lock, options_.membership.heartbeatInterval, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
  }
}

void ClusterNode::gossipOnce() {
  // Snapshot dial targets under the lock, dial without it.
  std::set<std::pair<std::string, int>> targets;
  std::string selfHost;
  int selfPort = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    selfHost = options_.advertiseHost;
    selfPort = options_.advertisePort;
    for (const auto& seed : options_.seeds) targets.insert(seed);
    for (const MemberInfo& m : membership_.snapshot()) {
      if (m.id == options_.nodeId) continue;
      targets.insert({m.host, m.port});
    }
  }
  targets.erase({selfHost, selfPort});

  Json ping{JsonObject{}};
  ping.set("id", Json(options_.nodeId));
  ping.set("host", Json(selfHost));
  ping.set("port", Json(selfPort));
  const std::string pingBody = ping.dump();

  for (const auto& [host, port] : targets) {
    if (stopping_.load(std::memory_order_acquire)) break;
    if (host.empty() || port <= 0) continue;
    try {
      service::Client client(
          host, static_cast<std::uint16_t>(port),
          service::ClientOptions{std::chrono::milliseconds{2'000},
                                 std::chrono::milliseconds{500}});
      const service::HttpClientResponse response =
          client.post("/v1/cluster/ping", pingBody,
                      {{"Content-Type", "application/json"}});
      if (response.status != 200) continue;
      const Json doc = Json::parse(response.body);
      const Json* responderId = doc.find("id");
      const Json* members = doc.find("members");
      if (responderId == nullptr) continue;

      const auto now = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      // The responder itself answered on (host, port): direct evidence.
      membership_.heardFrom(responderId->asString(), host, port, now);
      if (members != nullptr && members->isArray()) {
        for (const Json& entry : members->asArray()) {
          const Json* id = entry.find("id");
          const Json* mhost = entry.find("host");
          const Json* mport = entry.find("port");
          if (id == nullptr || mhost == nullptr || mport == nullptr) continue;
          if (id->asString() == responderId->asString()) {
            // Prefer the responder's advertised address over the dialed one
            // (a seed entry may be stale).
            membership_.heardFrom(id->asString(), mhost->asString(),
                                  static_cast<int>(mport->asNumber()), now);
          } else {
            // Transitive: learn the member exists, but second-hand gossip
            // never refreshes liveness (membership.hpp::introduce).
            membership_.introduce(id->asString(), mhost->asString(),
                                  static_cast<int>(mport->asNumber()), now);
          }
        }
      }
    } catch (const service::TransportError&) {
      // Unreachable peer: silence is the signal; tick() below handles it.
    } catch (const std::exception&) {
      // Malformed response: ignore this round.
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  membership_.tick(std::chrono::steady_clock::now());
}

config::Json ClusterNode::handlePing(const config::Json& body) {
  const Json* id = body.find("id");
  const Json* host = body.find("host");
  const Json* port = body.find("port");

  std::lock_guard<std::mutex> lock(mu_);
  if (id != nullptr && host != nullptr && port != nullptr) {
    membership_.heardFrom(id->asString(), host->asString(),
                          static_cast<int>(port->asNumber()),
                          std::chrono::steady_clock::now());
  }
  Json response{JsonObject{}};
  response.set("id", Json(options_.nodeId));
  response.set("members", membersJsonLocked());
  return response;
}

config::Json ClusterNode::membersJsonLocked() const {
  JsonArray members;
  for (const MemberInfo& m : membership_.snapshot()) {
    Json entry{JsonObject{}};
    entry.set("id", Json(m.id));
    entry.set("host", Json(m.host));
    entry.set("port", Json(m.port));
    entry.set("state", Json(stateName(m.state)));
    members.push_back(std::move(entry));
  }
  return Json(std::move(members));
}

config::Json ClusterNode::membersJson() {
  std::lock_guard<std::mutex> lock(mu_);
  Json doc{JsonObject{}};
  doc.set("node", Json(options_.nodeId));
  doc.set("members", membersJsonLocked());
  return doc;
}

config::Json ClusterNode::healthJson() {
  std::lock_guard<std::mutex> lock(mu_);
  Json doc{JsonObject{}};
  doc.set("nodeId", Json(options_.nodeId));
  doc.set("membersAlive",
          Json(static_cast<double>(membership_.aliveCount())));
  doc.set("membersSuspect",
          Json(static_cast<double>(membership_.suspectCount())));
  return doc;
}

optimizer::SearchResult ClusterNode::clusterSearch(
    const service::ClusterSearchParams& params,
    const std::function<void(std::size_t done)>& onProgress,
    engine::CancellationToken token) {
  std::vector<MemberInfo> members;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MemberInfo& m : membership_.snapshot()) {
      if (m.state == MemberState::kAlive) members.push_back(m);
    }
  }
  return runClusterSweep(options_.nodeId, std::move(members), params,
                         onProgress, token);
}

}  // namespace stordep::cluster
