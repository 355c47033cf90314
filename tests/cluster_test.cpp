// Cluster-layer tests: the injected-clock membership state machine
// (suspicion, eviction, rejoin, insert-only introduction), the grid
// partitioner's exact-concatenation property, and loopback integration:
//   * a 2-node cluster answers /v1/evaluate byte-identically to a plain
//     single-node server whichever node the client dials, and each member
//     answers exactly the requests dialled to it;
//   * a 3-node distributed sweep whose worker is killed mid-range resumes
//     from the worker's checkpoint journal on the coordinator and produces
//     the exact single-node final ranking.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "cluster/membership.hpp"
#include "cluster/node.hpp"
#include "cluster/sweep.hpp"
#include "config/design_io.hpp"
#include "engine/batch.hpp"
#include "optimizer/search.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace stordep::cluster {
namespace {

namespace cs = stordep::casestudy;
using config::Json;
using config::JsonObject;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---- Membership (injected clock) -------------------------------------------

std::vector<std::string> memberIds(const Membership& membership) {
  std::vector<std::string> ids;
  for (const MemberInfo& m : membership.snapshot()) ids.push_back(m.id);
  return ids;
}

TEST(Membership, SuspicionEvictionAndRejoin) {
  const auto t0 = steady_clock::now();
  MembershipOptions options;  // suspect 2 s, evict 6 s
  Membership membership("self", "127.0.0.1", 1000, options, t0);

  membership.heardFrom("peer", "127.0.0.1", 1001, t0);
  EXPECT_TRUE(membership.isAlive("peer"));
  EXPECT_EQ(membership.aliveCount(), 2u);

  // Just under the suspicion bound: nothing changes.
  membership.tick(t0 + milliseconds{1999});
  EXPECT_TRUE(membership.isAlive("peer"));

  // Past it: Suspect, but STILL a member until eviction.
  membership.tick(t0 + milliseconds{2001});
  EXPECT_FALSE(membership.isAlive("peer"));
  EXPECT_EQ(membership.suspectCount(), 1u);
  ASSERT_EQ(memberIds(membership),
            (std::vector<std::string>{"peer", "self"}));

  // Heard again: back to Alive.
  membership.heardFrom("peer", "127.0.0.1", 1001, t0 + milliseconds{2500});
  EXPECT_TRUE(membership.isAlive("peer"));

  // Silence all the way through eviction: gone from the member set.
  membership.tick(t0 + milliseconds{2500} + options.evictAfter);
  EXPECT_FALSE(membership.find("peer").has_value());
  EXPECT_EQ(memberIds(membership), std::vector<std::string>{"self"});

  // Rejoin is an ordinary join.
  membership.heardFrom("peer", "127.0.0.1", 1001, t0 + milliseconds{20'000});
  EXPECT_TRUE(membership.isAlive("peer"));
}

TEST(Membership, IntroduceIsInsertOnly) {
  const auto t0 = steady_clock::now();
  Membership membership("self", "127.0.0.1", 1000, MembershipOptions{}, t0);

  membership.introduce("peer", "127.0.0.1", 1001, t0);
  EXPECT_TRUE(membership.isAlive("peer"));

  // Second-hand gossip must NOT refresh liveness: the peer still goes
  // Suspect on the schedule set by its last *direct* contact.
  membership.introduce("peer", "127.0.0.1", 1001, t0 + milliseconds{1900});
  membership.tick(t0 + milliseconds{2001});
  EXPECT_FALSE(membership.isAlive("peer"));

  // ... and introduce() never resurrects a Suspect either.
  membership.introduce("peer", "127.0.0.1", 1001, t0 + milliseconds{2002});
  EXPECT_FALSE(membership.isAlive("peer"));
}

TEST(Membership, SelfIsExemptFromTimeouts) {
  const auto t0 = steady_clock::now();
  Membership membership("self", "127.0.0.1", 1000, MembershipOptions{}, t0);
  membership.tick(t0 + std::chrono::hours{1});
  EXPECT_TRUE(membership.isAlive("self"));
  EXPECT_EQ(memberIds(membership), std::vector<std::string>{"self"});
}

// ---- Grid partitioner ------------------------------------------------------

TEST(PartitionGrid, ContiguousCompleteAndBalanced) {
  for (const auto& [total, parts] :
       std::vector<std::pair<std::uint64_t, std::size_t>>{
           {0, 3}, {1, 3}, {7, 3}, {216, 3}, {216, 5}, {1000, 7}, {5, 8}}) {
    const auto ranges = partitionGrid(total, parts);
    ASSERT_EQ(ranges.size(), parts);
    std::uint64_t expectedBegin = 0;
    std::uint64_t minSize = UINT64_MAX;
    std::uint64_t maxSize = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, expectedBegin);
      EXPECT_GE(end, begin);
      minSize = std::min(minSize, end - begin);
      maxSize = std::max(maxSize, end - begin);
      expectedBegin = end;
    }
    EXPECT_EQ(expectedBegin, total);
    EXPECT_LE(maxSize - minSize, 1u);
  }
}

TEST(PartitionGrid, RestrictedCursorsConcatenateToFullEnumeration) {
  const optimizer::DesignSpaceOptions options;  // the default ~200-point grid
  const std::uint64_t total = optimizer::gridCardinality(options);

  std::vector<std::string> full;
  {
    optimizer::DesignSpaceCursor cursor(options);
    optimizer::CandidateSpec spec;
    while (cursor.next(spec)) full.push_back(spec.label());
  }

  std::vector<std::string> stitched;
  for (const auto& [begin, end] : partitionGrid(total, 3)) {
    optimizer::DesignSpaceCursor cursor(options);
    cursor.restrictTo(begin, end);
    optimizer::CandidateSpec spec;
    while (cursor.next(spec)) stitched.push_back(spec.label());
  }
  EXPECT_EQ(stitched, full);
}

TEST(PartitionGrid, MergedPartitionRankingIsBitIdentical) {
  const optimizer::DesignSpaceOptions gridOptions;
  const std::uint64_t total = optimizer::gridCardinality(gridOptions);
  const auto workload = cs::celloWorkload();
  const auto business = cs::requirements();
  const auto scenarios = optimizer::caseStudyScenarios();

  optimizer::SearchOptions searchOptions;
  optimizer::DesignSpaceCursor fullCursor(gridOptions);
  const optimizer::SearchResult reference =
      optimizer::searchDesignSpaceStreaming(fullCursor, workload, business,
                                            scenarios, searchOptions);

  std::vector<optimizer::EvaluatedCandidate> all;
  for (const auto& [begin, end] : partitionGrid(total, 3)) {
    optimizer::DesignSpaceCursor cursor(gridOptions);
    cursor.restrictTo(begin, end);
    const optimizer::SearchResult part = optimizer::searchDesignSpaceStreaming(
        cursor, workload, business, scenarios, searchOptions);
    for (const auto& c : part.ranked) all.push_back(c);
    for (const auto& c : part.rejected) all.push_back(c);
  }
  const optimizer::SearchResult merged =
      optimizer::rankEvaluated(std::move(all));

  ASSERT_EQ(merged.ranked.size(), reference.ranked.size());
  ASSERT_EQ(merged.rejected.size(), reference.rejected.size());
  EXPECT_EQ(merged.evaluated, reference.evaluated);
  for (std::size_t i = 0; i < merged.ranked.size(); ++i) {
    EXPECT_EQ(merged.ranked[i].label, reference.ranked[i].label);
    EXPECT_EQ(merged.ranked[i].totalCost.usd(),
              reference.ranked[i].totalCost.usd());  // bit-exact
  }
}

// ---- Loopback: 2-node byte-identity ----------------------------------------

TEST(ClusterLoopback, TwoNodeClusterAnswersByteIdenticallyToSingleNode) {
  service::ServerOptions serverOptions;
  serverOptions.engineThreads = 2;

  service::Server plain(serverOptions);
  plain.start();

  service::Server serverA(serverOptions);
  service::Server serverB(serverOptions);
  serverA.start();
  serverB.start();

  ClusterNodeOptions optionsA;
  optionsA.nodeId = "node-a";
  optionsA.enableHeartbeat = false;  // gossip driven explicitly below
  ClusterNodeOptions optionsB;
  optionsB.nodeId = "node-b";
  optionsB.enableHeartbeat = false;
  optionsB.seeds.emplace_back("127.0.0.1", static_cast<int>(serverA.port()));
  ClusterNode nodeA(serverA, optionsA);
  ClusterNode nodeB(serverB, optionsB);
  nodeA.start();
  nodeB.start();
  nodeB.gossipOnce();  // B pings A: both now know both members
  nodeA.gossipOnce();  // A pings B back: direct contact both ways

  service::Client clientPlain("127.0.0.1", plain.port());
  service::Client clientA("127.0.0.1", serverA.port());
  service::Client clientB("127.0.0.1", serverB.port());

  int dialled = 0;  // payloads posted to each member
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      Json payload{JsonObject{}};
      payload.set("design", config::designToJson(design));
      payload.set("scenario", config::scenarioToJson(scenario));
      const std::string body = payload.dump();
      ++dialled;

      const service::HttpClientResponse expected = clientPlain.post(
          "/v1/evaluate", body, {{"Content-Type", "application/json"}});
      const service::HttpClientResponse viaA = clientA.post(
          "/v1/evaluate", body, {{"Content-Type", "application/json"}});
      const service::HttpClientResponse viaB = clientB.post(
          "/v1/evaluate", body, {{"Content-Type", "application/json"}});

      EXPECT_EQ(viaA.status, expected.status) << label;
      EXPECT_EQ(viaA.body, expected.body) << label;
      EXPECT_EQ(viaB.status, expected.status) << label;
      EXPECT_EQ(viaB.body, expected.body) << label;
    }
  }

  // No request crosses between members: each one answered exactly the
  // payloads dialled to it, none on behalf of its peer.
  for (service::Client* client : {&clientA, &clientB}) {
    const Json metrics = Json::parse(client->get("/metrics").body);
    ASSERT_NE(metrics.find("cluster"), nullptr);
    EXPECT_EQ(metrics.at("endpoints").at("evaluate").at("requests").asNumber(),
              static_cast<double>(dialled));
  }

  nodeB.stop();
  nodeA.stop();
  plain.shutdown();
}

TEST(ClusterLoopback, HealthzAndMembersReportNodeIdentity) {
  service::Server server(service::ServerOptions{});
  server.start();
  ClusterNodeOptions options;
  options.nodeId = "solo";
  options.enableHeartbeat = false;
  ClusterNode node(server, options);
  node.start();

  service::Client client("127.0.0.1", server.port());
  const Json health = Json::parse(client.get("/healthz").body);
  const Json* section = health.find("cluster");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->at("nodeId").asString(), "solo");
  EXPECT_EQ(static_cast<int>(section->at("membersAlive").asNumber()), 1);

  const Json members = Json::parse(client.get("/v1/cluster/members").body);
  EXPECT_EQ(members.at("node").asString(), "solo");
  ASSERT_TRUE(members.at("members").isArray());
  ASSERT_EQ(members.at("members").asArray().size(), 1u);
  EXPECT_EQ(members.at("members").asArray()[0].at("state").asString(),
            "alive");

  node.stop();
}

// ---- Loopback: 3-node sweep, worker killed mid-range -----------------------

/// Runs a /v1/search and returns (finalResultLine, status). Lines before the
/// final one are progress/candidate chatter.
std::pair<Json, int> runSearchCollectResult(std::uint16_t port,
                                            const std::string& body) {
  service::Client client("127.0.0.1", port);
  Json result;
  const auto onLine = [&](std::string_view line) {
    if (line.empty()) return;
    const Json parsed = Json::parse(std::string(line));
    if (const Json* r = parsed.find("result")) result = *r;
  };
  const service::HttpClientResponse response =
      client.postStreaming("/v1/search", body, onLine);
  return {result, response.status};
}

/// Strips the run-varying timing fields so rankings compare exactly.
Json normalizeResult(Json result) {
  result.set("wallSeconds", Json(0.0));
  result.set("candidatesPerSec", Json(0.0));
  return result;
}

std::size_t journalLineCount(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  return lines;
}

TEST(ClusterLoopback, SweepSurvivesWorkerDeathAndResumesFromJournal) {
  const std::string checkpointDir =
      ::testing::TempDir() + "cluster_sweep_journals";
  std::filesystem::remove_all(checkpointDir);
  std::filesystem::create_directories(checkpointDir);

  service::ServerOptions serverOptions;
  serverOptions.engineThreads = 2;

  // Single-node reference ranking first.
  service::Server plain(serverOptions);
  plain.start();
  const auto [reference, referenceStatus] =
      runSearchCollectResult(plain.port(), R"({"top": 50})");
  plain.shutdown();
  ASSERT_EQ(referenceStatus, 200);
  ASSERT_TRUE(reference.isObject());

  // Three nodes, explicit gossip (no heartbeat: the coordinator must
  // believe the victim is alive when the sweep starts).
  service::Server serverA(serverOptions);
  service::Server serverB(serverOptions);
  service::Server serverC(serverOptions);
  serverA.start();
  serverB.start();
  serverC.start();

  const auto makeNode = [&](service::Server& server, const std::string& id,
                            int seedPort) {
    ClusterNodeOptions options;
    options.nodeId = id;
    options.enableHeartbeat = false;
    if (seedPort > 0) options.seeds.emplace_back("127.0.0.1", seedPort);
    return std::make_unique<ClusterNode>(server, options);
  };
  auto nodeA = makeNode(serverA, "node-a", 0);
  auto nodeB = makeNode(serverB, "node-b", static_cast<int>(serverA.port()));
  auto nodeC = makeNode(serverC, "node-c", static_cast<int>(serverA.port()));
  nodeA->start();
  nodeB->start();
  nodeC->start();
  // Two rounds: everyone hears about everyone, then everyone has had
  // direct contact with everyone they will dial.
  nodeB->gossipOnce();
  nodeC->gossipOnce();
  nodeA->gossipOnce();
  nodeB->gossipOnce();
  nodeC->gossipOnce();

  // node-c's share of the grid under the coordinator's partition (members
  // sorted by id: a, b, c).
  const std::uint64_t total =
      optimizer::gridCardinality(optimizer::DesignSpaceOptions{});
  const auto ranges = partitionGrid(total, 3);
  const auto [cBegin, cEnd] = ranges[2];
  const std::string cJournal = rangeCheckpointPath(checkpointDir, cBegin,
                                                   cEnd);

  // Start node-c on its own range as a paced worker-mode sweep, journaling
  // to the coordinator's per-range path, then kill it mid-range. The drain
  // cancels the sweep at a wave boundary, leaving a PARTIAL journal.
  std::atomic<int> candidateLines{0};
  std::thread victim([&] {
    try {
      service::Client client("127.0.0.1", serverC.port());
      Json body{JsonObject{}};
      Json range{JsonObject{}};
      range.set("begin", Json(static_cast<double>(cBegin)));
      range.set("end", Json(static_cast<double>(cEnd)));
      body.set("range", range);
      body.set("checkpointPath", Json(cJournal));
      body.set("streamChunk", Json(4));
      body.set("waveDelayMs", Json(100));
      (void)client.postStreaming(
          "/v1/search", body.dump(), [&](std::string_view line) {
            if (line.find("\"candidate\"") != std::string_view::npos ||
                line.find("\"progress\"") != std::string_view::npos) {
              candidateLines.fetch_add(1);
            }
          });
    } catch (const service::TransportError&) {
      // The kill below tears the stream mid-flight; expected.
    }
  });
  while (candidateLines.load() < 2) {
    std::this_thread::sleep_for(milliseconds{5});
  }
  nodeC->stop();  // kills server C with the sweep in flight
  victim.join();
  ASSERT_TRUE(std::filesystem::exists(cJournal))
      << "the killed worker should have journaled completed waves";
  const std::size_t partialRecords = journalLineCount(cJournal);
  ASSERT_GT(partialRecords, 0u);

  // Cluster sweep from node-a: C's range fails over to the coordinator,
  // which resumes from C's journal. The merged ranking must match the
  // single-node reference exactly.
  Json sweepBody{JsonObject{}};
  sweepBody.set("cluster", Json(true));
  sweepBody.set("checkpointDir", Json(checkpointDir));
  sweepBody.set("top", Json(50));
  const auto [clustered, clusteredStatus] =
      runSearchCollectResult(serverA.port(), sweepBody.dump());
  ASSERT_EQ(clusteredStatus, 200);
  ASSERT_TRUE(clustered.isObject());

  EXPECT_EQ(normalizeResult(clustered).dump(),
            normalizeResult(reference).dump());
  // The resumed range really did reuse the journal: the coordinator
  // appended the REST of node-c's range to the same file instead of
  // starting over (a restart from scratch would re-journal the restored
  // records too).
  const std::size_t resumedRecords = journalLineCount(cJournal);
  EXPECT_GT(resumedRecords, partialRecords);

  nodeC->stop();
  nodeB->stop();
  nodeA->stop();
  std::filesystem::remove_all(checkpointDir);
}

}  // namespace
}  // namespace stordep::cluster
