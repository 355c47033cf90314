// bench_cluster — aggregate warm-cache throughput of a 3-node loopback
// cluster versus a single node, at equal offered load.
//
// Both phases drive the same kClientThreads closed-loop client threads,
// spread round-robin over the members: thread t holds one keep-alive
// connection to member t % members and cycles through the case-study
// what-if designs crossed with the three failure scenarios. The clients
// know nothing of placement; every member answers what it receives with
// its own engine, so the cluster phase measures what a round-robin load
// balancer in front of the members would see.
//
// Phase 1 starts one member, warms its cache and keeps its responses as the
// byte oracle. Phase 2 starts three members on loopback ephemeral ports,
// converges membership with explicit gossip rounds, and warms every member
// by posting every payload to it.
//
// Hard gates (machine-independent, fail on any hardware):
//   * every warm-pass response of every member is 200 and byte-identical to
//     the solo node's response for the same payload;
//   * zero non-200 responses in both measured phases.
// The scaling gate is hardware-relative: the 3-node aggregate must sustain
// >= 1.8x the solo RPS only when the host has a hardware thread for every
// member's engine threads (3 x kEngineThreadsPerNode). On smaller hosts the
// ratio is reported in BENCH_cluster.json with speedupGated false, because
// the members' engine threads time-slice the same cores instead of scaling.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "casestudy/casestudy.hpp"
#include "cluster/node.hpp"
#include "config/design_io.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

namespace cs = stordep::casestudy;
namespace svc = stordep::service;
namespace cl = stordep::cluster;
using stordep::FailureScenario;
using stordep::config::Json;
using stordep::config::JsonObject;

constexpr int kNodes = 3;
constexpr int kEngineThreadsPerNode = 2;
constexpr int kClientThreads = 12;
constexpr double kMeasureSeconds = 3.0;
constexpr double kMinSpeedup = 1.8;
constexpr unsigned kSpeedupGateCores = kNodes * kEngineThreadsPerNode;

std::vector<std::string> makePayloads() {
  std::vector<std::string> payloads;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      Json body{JsonObject{}};
      body.set("design", stordep::config::designToJson(design));
      body.set("scenario", stordep::config::scenarioToJson(scenario));
      payloads.push_back(body.dump());
    }
  }
  return payloads;
}

struct LoadResult {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  double wallSeconds = 0.0;
  double rps = 0.0;
};

/// Closed-loop load: kClientThreads threads cycle through the payloads,
/// thread t over one keep-alive connection to ports[t % ports.size()].
LoadResult measure(const std::vector<std::string>& payloads,
                   const std::vector<int>& ports) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::uint64_t> counts(kClientThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);

  const auto begin = std::chrono::steady_clock::now();
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const int port = ports[static_cast<std::size_t>(t) % ports.size()];
      std::unique_ptr<svc::Client> client;
      std::uint64_t done = 0;
      std::size_t next = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& payload = payloads[next % payloads.size()];
        next += 1;
        if (!client) client = std::make_unique<svc::Client>("127.0.0.1", port);
        try {
          const svc::HttpClientResponse response =
              client->post("/v1/evaluate", payload);
          if (response.status == 200) {
            done += 1;
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const svc::TransportError&) {
          errors.fetch_add(1, std::memory_order_relaxed);
          client.reset();
        }
      }
      counts[static_cast<std::size_t>(t)] = done;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kMeasureSeconds));
  stop.store(true);
  for (std::thread& thread : clients) thread.join();

  LoadResult result;
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  for (const std::uint64_t count : counts) result.requests += count;
  result.errors = errors.load();
  result.rps = static_cast<double>(result.requests) / result.wallSeconds;
  return result;
}

svc::ServerOptions nodeServerOptions() {
  svc::ServerOptions options;
  options.engineThreads = kEngineThreadsPerNode;
  return options;
}

}  // namespace

int main() {
  const std::vector<std::string> payloads = makePayloads();
  bool ok = true;

  // -- Phase 1: solo member. Its warm-pass responses are the byte oracle
  // for everything the cluster serves later.
  std::vector<std::string> oracle;
  oracle.reserve(payloads.size());
  LoadResult solo;
  {
    svc::Server server(nodeServerOptions());
    cl::ClusterNodeOptions nodeOptions;
    nodeOptions.nodeId = "solo";
    nodeOptions.enableHeartbeat = false;
    cl::ClusterNode node(server, nodeOptions);
    server.start();
    node.start();

    svc::Client client("127.0.0.1", server.port());
    for (const std::string& payload : payloads) {
      const svc::HttpClientResponse response =
          client.post("/v1/evaluate", payload);
      if (response.status != 200) {
        std::cerr << "FAIL: solo warmup got HTTP " << response.status << ": "
                  << response.body << "\n";
        node.stop();
        return 1;
      }
      oracle.push_back(response.body);
    }

    solo = measure(payloads, {static_cast<int>(server.port())});
    node.stop();
  }

  // -- Phase 2: three members, explicit gossip convergence, the same
  // clients spread over all three.
  LoadResult cluster;
  std::uint64_t checkedResponses = 0;
  std::uint64_t byteMismatches = 0;
  {
    svc::Server serverA(nodeServerOptions());
    svc::Server serverB(nodeServerOptions());
    svc::Server serverC(nodeServerOptions());
    serverA.start();
    serverB.start();
    serverC.start();

    auto makeNode = [&](svc::Server& server, const std::string& id,
                        int seedPort) {
      cl::ClusterNodeOptions nodeOptions;
      nodeOptions.nodeId = id;
      nodeOptions.enableHeartbeat = false;
      if (seedPort != 0) nodeOptions.seeds.push_back({"127.0.0.1", seedPort});
      return std::make_unique<cl::ClusterNode>(server, nodeOptions);
    };
    std::unique_ptr<cl::ClusterNode> nodeA =
        makeNode(serverA, "bench-a", 0);
    std::unique_ptr<cl::ClusterNode> nodeB =
        makeNode(serverB, "bench-b", static_cast<int>(serverA.port()));
    std::unique_ptr<cl::ClusterNode> nodeC =
        makeNode(serverC, "bench-c", static_cast<int>(serverA.port()));
    nodeA->start();
    nodeB->start();
    nodeC->start();
    for (int round = 0; round < 3; ++round) {
      nodeA->gossipOnce();
      nodeB->gossipOnce();
      nodeC->gossipOnce();
    }

    const std::vector<int> ports{static_cast<int>(serverA.port()),
                                 static_cast<int>(serverB.port()),
                                 static_cast<int>(serverC.port())};

    // Warm pass doubling as the byte-identity gate: every payload goes to
    // every member, and each response must match the solo oracle exactly.
    for (const int port : ports) {
      svc::Client client("127.0.0.1", port);
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        const svc::HttpClientResponse response =
            client.post("/v1/evaluate", payloads[i]);
        checkedResponses += 1;
        if (response.status != 200) {
          std::cerr << "FAIL: cluster warmup on port " << port << " got HTTP "
                    << response.status << "\n";
          byteMismatches += 1;
        } else if (response.body != oracle[i]) {
          byteMismatches += 1;
        }
      }
    }
    if (byteMismatches != 0) {
      std::cerr << "FAIL: " << byteMismatches << " of " << checkedResponses
                << " clustered responses differ from the solo node\n";
      ok = false;
    }

    cluster = measure(payloads, ports);
    nodeC->stop();
    nodeB->stop();
    nodeA->stop();
  }

  const double speedup = solo.rps > 0.0 ? cluster.rps / solo.rps : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  const bool speedupGated = cores >= kSpeedupGateCores;

  if (solo.errors != 0 || cluster.errors != 0) {
    std::cerr << "FAIL: non-200 responses (solo " << solo.errors
              << ", cluster " << cluster.errors << ")\n";
    ok = false;
  }
  if (speedupGated && speedup < kMinSpeedup) {
    std::cerr << "FAIL: 3-node aggregate " << cluster.rps << " RPS is only "
              << speedup << "x the solo " << solo.rps << " RPS (floor "
              << kMinSpeedup << "x)\n";
    ok = false;
  }

  Json doc{JsonObject{}};
  doc.set("bench", Json("cluster"));
  doc.set("compiler", Json(stordep::bench::kCompiler));
  doc.set("host", Json(stordep::bench::hostDescription()));
  doc.set("nodes", Json(static_cast<std::int64_t>(kNodes)));
  doc.set("engineThreadsPerNode",
          Json(static_cast<std::int64_t>(kEngineThreadsPerNode)));
  doc.set("hardwareThreads", Json(static_cast<std::int64_t>(cores)));
  doc.set("distinctPayloads",
          Json(static_cast<std::int64_t>(payloads.size())));
  doc.set("soloClientThreads", Json(static_cast<std::int64_t>(kClientThreads)));
  doc.set("soloRequests", Json(static_cast<std::int64_t>(solo.requests)));
  doc.set("soloRps", Json(solo.rps));
  doc.set("clusterClientThreads",
          Json(static_cast<std::int64_t>(kClientThreads)));
  doc.set("clusterRequests",
          Json(static_cast<std::int64_t>(cluster.requests)));
  doc.set("clusterRps", Json(cluster.rps));
  doc.set("speedup", Json(speedup));
  doc.set("speedupFloor", Json(kMinSpeedup));
  doc.set("speedupGated", Json(speedupGated));
  doc.set("checkedResponses",
          Json(static_cast<std::int64_t>(checkedResponses)));
  doc.set("byteMismatches",
          Json(static_cast<std::int64_t>(byteMismatches)));
  doc.set("errors", Json(static_cast<std::int64_t>(solo.errors +
                                                   cluster.errors)));
  doc.set("ok", Json(ok));

  const std::string out = doc.pretty();
  std::cout << out << "\n";
  std::ofstream file("BENCH_cluster.json");
  file << out << "\n";
  return ok ? 0 : 1;
}
