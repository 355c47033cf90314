// node.hpp — one member of a multi-node evaluation cluster.
//
// A ClusterNode wires the pure pieces of this directory (Membership,
// runClusterSweep) onto a running service::Server by implementing its
// ClusterHooks seam:
//
//   * No placement: a member answers every /v1/evaluate it receives with
//     its own engine, exactly as a plain server does. Evaluation is a pure
//     function, so any member's answer is byte-identical to a single
//     node's, and computing it costs less than the HTTP hop that forwarding
//     it to another member would add (DESIGN.md "Cluster layer").
//   * Membership: a heartbeat thread POSTs /v1/cluster/ping to seeds and
//     known peers on the configured cadence, learns members transitively
//     from ping responses, and applies the suspicion/eviction state machine
//     (membership.hpp).
//   * Sweeps: cluster-mode /v1/search calls clusterSearch(), which
//     partitions the design grid over the Alive members (sweep.hpp).
//
// Lifecycle: construct with a started (or about-to-start) Server, then
// start() after server.start() — it reads the bound port for
// advertisement, attaches the hooks and launches the heartbeat. stop()
// shuts the SERVER down first (the loop thread reads the hooks pointer, so
// the node must outlive the loop), then the heartbeat; the destructor
// calls it. Declare the Server before the ClusterNode so destruction order
// is node-then-server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "service/cluster_hooks.hpp"
#include "service/server.hpp"

namespace stordep::cluster {

struct ClusterNodeOptions {
  /// Unique member id (required); sweeps assign grid ranges in id order.
  std::string nodeId;

  /// Address peers should dial. Port 0 = resolve from the server's bound
  /// port at start() (the common ephemeral-port case).
  std::string advertiseHost = "127.0.0.1";
  int advertisePort = 0;

  /// Bootstrap contacts, dialed every heartbeat alongside known peers.
  std::vector<std::pair<std::string, int>> seeds;

  MembershipOptions membership;

  /// Tests that drive membership with injected time disable the real
  /// heartbeat thread.
  bool enableHeartbeat = true;
};

class ClusterNode final : public service::ClusterHooks {
 public:
  ClusterNode(service::Server& server, ClusterNodeOptions options);
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Attaches to the server and starts the heartbeat. Call after
  /// server.start(); throws std::runtime_error if nodeId is empty.
  void start();

  /// Server shutdown first, then the heartbeat. Idempotent.
  void stop();

  [[nodiscard]] const std::string& nodeId() const noexcept {
    return options_.nodeId;
  }

  /// Forces one synchronous gossip round (dial seeds + peers, tick). The
  /// heartbeat thread does exactly this on its cadence; tests and benches
  /// call it directly.
  void gossipOnce();

  // -- ClusterHooks --------------------------------------------------------
  config::Json handlePing(const config::Json& body) override;
  config::Json membersJson() override;
  config::Json healthJson() override;
  optimizer::SearchResult clusterSearch(
      const service::ClusterSearchParams& params,
      const std::function<void(std::size_t done)>& onProgress,
      engine::CancellationToken token) override;

 private:
  void heartbeatLoop();
  [[nodiscard]] config::Json membersJsonLocked() const;

  service::Server& server_;
  ClusterNodeOptions options_;

  /// Guards membership_ and advertisePort_. Loop-thread hooks only take it
  /// for short map lookups — never across I/O.
  mutable std::mutex mu_;
  Membership membership_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::mutex heartbeatMu_;
  std::condition_variable heartbeatCv_;
  std::thread heartbeatThread_;
};

}  // namespace stordep::cluster
