// cluster_hooks.hpp — the seam between the server and the cluster layer.
//
// Layering: stordep_cluster links stordep_service (it reuses Client /
// ResilientClient and runs beside a Server), so the server cannot link the
// cluster back. Instead the server holds a ClusterHooks* — implemented by
// cluster::ClusterNode — and consults it for everything cluster-shaped:
// gossip endpoints, distributed sweeps, and the observability sections of
// /healthz and /metrics. /v1/evaluate never consults it: every member
// answers the evaluate requests it receives with its own engine, exactly
// as a server with no hooks attached does.
//
// Threading contract: handlePing / membersJson / healthJson are called on
// the server's event-loop thread and must not block. clusterSearch runs on
// a detached per-request worker thread and may block for the whole sweep.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "config/json.hpp"
#include "engine/batch.hpp"
#include "optimizer/search.hpp"

namespace stordep::service {

/// Parameters of a cluster-mode /v1/search, parsed by the server.
struct ClusterSearchParams {
  optimizer::SearchOptions search;  ///< chunk size, deadline, objective, ...
  /// The request's effective RTO/RPO overrides, already applied.
  BusinessRequirements business;
  /// Directory for per-range checkpoint journals ("" = no checkpointing).
  std::string checkpointDir;
  /// Extra knobs forwarded verbatim to worker nodes so their evaluation
  /// request is byte-identical to the coordinator's own (empty = absent).
  std::string rtoHoursLiteral;
  std::string rpoHoursLiteral;
};

class ClusterHooks {
 public:
  virtual ~ClusterHooks() = default;

  /// Gossip receive path: records the pinging peer and returns this node's
  /// member list (the /v1/cluster/ping response document).
  virtual config::Json handlePing(const config::Json& body) = 0;

  /// The /v1/cluster/members document.
  virtual config::Json membersJson() = 0;

  /// The node-identity section merged into both /healthz and /metrics.
  virtual config::Json healthJson() = 0;

  /// Runs one distributed sweep (partition ranges, drive remote workers,
  /// merge, reassign dead ranges). Blocks until done; `onProgress` receives
  /// cumulative finished-candidate counts from every range.
  virtual optimizer::SearchResult clusterSearch(
      const ClusterSearchParams& params,
      const std::function<void(std::size_t done)>& onProgress,
      engine::CancellationToken token) = 0;
};

}  // namespace stordep::service
