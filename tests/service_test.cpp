// Loopback integration tests for the networked evaluation service, plus the
// per-interval metrics primitives it scrapes:
//   * a 64-connection burst over the shared cache answers bit-identically
//     to serial in-process evaluation;
//   * an expired per-request deadline returns a structured 504 carrying the
//     engine's own taxonomy code while concurrent requests complete, and a
//     deadline that cuts a Monte-Carlo run short answers the same way;
//   * a plain request is not queued behind another connection's
//     Monte-Carlo run;
//   * shutdown() drains in-flight work before the server stops;
//   * admission control (oversized jobs and slots still in flight → 429,
//     draining → 503; a shed request that asked to close gets its 503 and
//     then EOF), routing errors, /healthz and /metrics;
//   * array responses report only their own engine stats;
//   * a verify/gen-seeded fuzz pass round-tripping random evaluate payloads
//     through the server against the in-process engine, byte for byte;
//   * the task that sends its own response: a client that hangs up while its
//     task is in flight never has its answer land on the next connection,
//     a response larger than the socket takes is finished by the loop
//     before a pipelined follow-up is answered, and a pipelined request read
//     while the task before it runs is answered as soon as that task is done;
//   * /v1/search never writes a file path sent in its request body.
//
// Work is held in flight by injected evaluation latency (a FaultInjector
// that slows kEvaluate and never fails it), not by timing races.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "engine/batch.hpp"
#include "engine/eval_cache.hpp"
#include "engine/fault_injection.hpp"
#include "engine/fingerprint.hpp"
#include "service/client.hpp"
#include "service/json_api.hpp"
#include "service/server.hpp"
#include "verify/gen.hpp"

namespace stordep::service {
namespace {

namespace cs = stordep::casestudy;
using config::Json;
using config::JsonObject;

// ---- Per-interval metrics primitives (engine satellites) -------------------

TEST(FingerprintCountersReset, ReturnsPriorValuesAndZeroes) {
  (void)engine::fingerprintCountersReset();  // discard earlier activity
  (void)engine::fingerprintDesign(cs::baseline());
  (void)engine::fingerprintScenario(cs::arrayFailure());

  const engine::FingerprintCounters first =
      engine::fingerprintCountersReset();
  EXPECT_GE(first.designFingerprints, 1u);
  EXPECT_GE(first.scenarioFingerprints, 1u);
  EXPECT_GT(first.bytesHashed, 0u);

  // The read zeroed the counters: an immediate second read sees nothing.
  const engine::FingerprintCounters second =
      engine::fingerprintCountersReset();
  EXPECT_EQ(second.designFingerprints, 0u);
  EXPECT_EQ(second.scenarioFingerprints, 0u);
  EXPECT_EQ(second.bytesHashed, 0u);
}

TEST(EvalCacheStatsDelta, SubtractsCountersKeepsGauges) {
  engine::EvalCache::Stats then;
  then.hits = 10;
  then.misses = 4;
  then.probes = 14;
  then.inserts = 4;
  then.evictions = 1;
  then.entries = 3;
  then.capacity = 64;

  engine::EvalCache::Stats now = then;
  now.hits = 25;
  now.misses = 9;
  now.probes = 34;
  now.inserts = 9;
  now.evictions = 2;
  now.entries = 7;

  const engine::EvalCache::Stats interval = now.delta(then);
  EXPECT_EQ(interval.hits, 15u);
  EXPECT_EQ(interval.misses, 5u);
  EXPECT_EQ(interval.probes, 20u);
  EXPECT_EQ(interval.inserts, 5u);
  EXPECT_EQ(interval.evictions, 1u);
  // Gauges report the current snapshot, not a difference.
  EXPECT_EQ(interval.entries, 7u);
  EXPECT_EQ(interval.capacity, 64u);
  EXPECT_NEAR(interval.hitRate(), 15.0 / 20.0, 1e-12);
}

TEST(EvalCacheStatsDelta, ClampsBackwardCountersToZero) {
  engine::EvalCache::Stats then;
  then.hits = 50;
  engine::EvalCache::Stats now;  // e.g. taken after a clear()
  now.hits = 10;
  EXPECT_EQ(now.delta(then).hits, 0u);
}

// ---- Loopback fixtures -----------------------------------------------------

struct Pair {
  std::shared_ptr<const StorageDesign> design;
  FailureScenario scenario;
  std::string payload;       ///< request body
  std::string expectedBody;  ///< response the server must produce
};

/// The case-study what-if designs crossed with the three scenarios, each
/// with its expected single-evaluate envelope computed by a serial
/// in-process engine over the *round-tripped* design (the exact document
/// the server parses).
std::vector<Pair> makePairs() {
  engine::Engine serial(engine::EngineOptions{.threads = 1});
  std::vector<Pair> pairs;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      Pair pair;
      const Json designJson = config::designToJson(design);
      pair.design = std::make_shared<const StorageDesign>(
          config::designFromJson(designJson));
      pair.scenario = scenario;
      Json payload{JsonObject{}};
      payload.set("design", designJson);
      payload.set("scenario", config::scenarioToJson(scenario));
      pair.payload = payload.dump();
      const engine::EvalOutcome outcome =
          serial.tryEvaluate(*pair.design, scenario);
      pair.expectedBody =
          outcome.ok()
              ? evaluationToJson(*pair.design, scenario, outcome.value())
                    .dump()
              : evalErrorToJson(outcome.error()).dump();
      pairs.push_back(std::move(pair));
    }
  }
  return pairs;
}

/// Slows every evaluation by `latency` and fails none: holds requests in
/// flight for as long as a test needs.
std::shared_ptr<engine::FaultInjector> evaluateLatency(
    std::chrono::milliseconds latency) {
  engine::FaultPlan plan;
  plan.sites = engine::faultSiteBit(engine::FaultSite::kEvaluate);
  plan.probability = 0.0;
  plan.latency = latency;
  return std::make_shared<engine::FaultInjector>(plan);
}

/// A request at the 65,536-trial cap on the 1-link async-batch mirror
/// design of Table 7. On a 4-vCPU host its Monte-Carlo run takes ~100 ms;
/// the plain evaluation of the same pair takes well under a millisecond.
std::string monteCarloPayload() {
  Json payload{JsonObject{}};
  payload.set("design", config::designToJson(cs::asyncBatchMirror(1)));
  payload.set("scenario", config::scenarioToJson(cs::arrayFailure()));
  Json stochastic{JsonObject{}};
  stochastic.set("trials", Json(65'536));
  payload.set("stochastic", stochastic);
  return payload.dump();
}

std::string arrayOf(const std::vector<Pair>& pairs, std::size_t count) {
  std::string array = "[";
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) array += ",";
    array += pairs[i % pairs.size()].payload;
  }
  return array + "]";
}

/// A blocking TCP socket for tests that drive a connection below the
/// Client (hang up mid-request, pipeline, read late). Reads time out after
/// 30 s, so a server that never answers fails the test instead of hanging
/// it; `rcvbuf` > 0 shrinks the receive buffer.
int rawSocket(int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  return fd;
}

void connectLoopback(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
}

void sendRaw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string readToEof(int fd) {
  std::string bytes;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return bytes;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
}

std::string evaluateRequest(const std::string& body, bool close) {
  return std::string("POST /v1/evaluate HTTP/1.1\r\nHost: test\r\n") +
         (close ? "Connection: close\r\n" : "") +
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Splits a byte stream into the HTTP responses it holds; a trailing
/// partial or malformed response fails the test.
std::vector<HttpClientResponse> parseResponses(std::string_view bytes) {
  std::vector<HttpClientResponse> responses;
  HttpResponseParser parser;
  while (!bytes.empty()) {
    bytes.remove_prefix(parser.feed(bytes));
    if (parser.status() != ParseStatus::kComplete) {
      ADD_FAILURE() << "trailing bytes are not a whole response";
      break;
    }
    responses.push_back(std::move(parser.response()));
    parser.reset();
  }
  return responses;
}

// ---- Burst: 64 connections, bit-identical to serial ------------------------

TEST(ServiceLoopback, BurstOf64ConnectionsBitIdenticalToSerial) {
  const std::vector<Pair> pairs = makePairs();

  ServerOptions options;
  options.engineThreads = 4;
  Server server(options);
  server.start();

  constexpr int kConnections = 64;
  std::vector<std::string> bodies(kConnections);
  std::vector<int> statuses(kConnections, 0);
  std::vector<std::thread> clients;
  clients.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    clients.emplace_back([&, i] {
      Client client("127.0.0.1", server.port());
      const Pair& pair = pairs[static_cast<std::size_t>(i) % pairs.size()];
      const HttpClientResponse response = client.post(
          "/v1/evaluate", pair.payload,
          {{"Content-Type", "application/json"}});
      statuses[i] = response.status;
      bodies[i] = response.body;
    });
  }
  for (std::thread& thread : clients) thread.join();

  for (int i = 0; i < kConnections; ++i) {
    const Pair& pair = pairs[static_cast<std::size_t>(i) % pairs.size()];
    EXPECT_EQ(statuses[i], 200) << "connection " << i;
    EXPECT_EQ(bodies[i], pair.expectedBody) << "connection " << i;
  }

  // The shared cache did its job: 64 requests over 21 distinct pairs means
  // most answers came from memo, not recomputation.
  const engine::EvalCache::Stats stats = server.engine().cache().stats();
  EXPECT_LE(stats.misses, pairs.size());
  EXPECT_GE(stats.hits + stats.misses, static_cast<std::uint64_t>(64));

  server.shutdown();
  EXPECT_FALSE(server.running());
}

// ---- Deadlines -------------------------------------------------------------

TEST(ServiceLoopback, ExpiredDeadlineReturns504WhileOthersComplete) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  // Live requests stay in flight while the expired one is answered.
  server.engine().setFaultInjector(
      evaluateLatency(std::chrono::milliseconds(20)));
  server.start();

  std::atomic<int> okCount{0};
  std::thread expired([&] {
    Client client("127.0.0.1", server.port());
    const HttpClientResponse response =
        client.post("/v1/evaluate", pairs[0].payload,
                    {{"X-Deadline-Ms", "0"}});
    EXPECT_EQ(response.status, 504);
    const Json body = Json::parse(response.body);
    EXPECT_EQ(body.at("error").at("code").asString(),
              engine::toString(engine::EvalErrorCode::kDeadlineExceeded));
  });
  std::vector<std::thread> live;
  for (int i = 1; i <= 4; ++i) {
    live.emplace_back([&, i] {
      Client client("127.0.0.1", server.port());
      const Pair& pair = pairs[static_cast<std::size_t>(i)];
      const HttpClientResponse response =
          client.post("/v1/evaluate", pair.payload);
      EXPECT_EQ(response.status, 200);
      EXPECT_EQ(response.body, pair.expectedBody);
      okCount.fetch_add(1);
    });
  }
  expired.join();
  for (std::thread& thread : live) thread.join();
  EXPECT_EQ(okCount.load(), 4);
  EXPECT_GE(server.metrics().deadlineExpired.load(), 1u);
  server.shutdown();
}

TEST(ServiceLoopback, DeadlineCutsMonteCarloRunWith504) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  server.start();
  Client client("127.0.0.1", server.port());
  // 20 ms: far above the plain evaluation, far below the Monte-Carlo run.
  const HttpHeaders deadline{{"X-Deadline-Ms", "20"}};
  const std::string deadlineCode =
      engine::toString(engine::EvalErrorCode::kDeadlineExceeded);

  const HttpClientResponse single =
      client.post("/v1/evaluate", monteCarloPayload(), deadline);
  EXPECT_EQ(single.status, 504);
  const Json error = Json::parse(single.body).at("error");
  EXPECT_EQ(error.at("code").asString(), deadlineCode);
  // Cut inside the Monte-Carlo layer, not before the evaluation started.
  EXPECT_NE(error.at("message").asString().find("stochastic run cancelled"),
            std::string::npos)
      << single.body;

  // In an array the cut entry carries the error; its neighbour is served.
  const HttpClientResponse array = client.post(
      "/v1/evaluate", "[" + monteCarloPayload() + "," + pairs[0].payload + "]",
      deadline);
  EXPECT_EQ(array.status, 200);
  const Json results = Json::parse(array.body).at("results");
  ASSERT_EQ(results.asArray().size(), 2u);
  EXPECT_EQ(results.asArray()[0].at("error").at("code").asString(),
            deadlineCode);
  EXPECT_EQ(results.asArray()[1].dump(), pairs[0].expectedBody);

  EXPECT_EQ(server.metrics().deadlineExpired.load(), 0u);
  server.shutdown();
}

// ---- Head-of-line blocking -------------------------------------------------

TEST(ServiceLoopback, PlainRequestAnsweredBeforeConcurrentMonteCarloRun) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  server.start();

  std::atomic<bool> monteCarloAnswered{false};
  std::thread monteCarlo([&] {
    Client client("127.0.0.1", server.port());
    const HttpClientResponse response =
        client.post("/v1/evaluate", monteCarloPayload());
    monteCarloAnswered.store(true);
    EXPECT_EQ(response.status, 200);
    const Json body = Json::parse(response.body);
    EXPECT_EQ(body.at("stochastic").find("error"), nullptr) << response.body;
  });

  // The Monte-Carlo request is admitted and unanswered...
  Client observer("127.0.0.1", server.port());
  bool inFlight = false;
  while (!inFlight && !monteCarloAnswered.load()) {
    const Json metrics = Json::parse(observer.get("/metrics").body);
    inFlight = metrics.at("admission").at("inFlightSlots").asNumber() >= 1.0;
  }
  EXPECT_TRUE(inFlight);

  // ...when a plain request arrives on another connection: it must not
  // wait for the run.
  Client plain("127.0.0.1", server.port());
  const HttpClientResponse response =
      plain.post("/v1/evaluate", pairs[0].payload);
  const bool monteCarloFirst = monteCarloAnswered.load();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, pairs[0].expectedBody);
  EXPECT_FALSE(monteCarloFirst)
      << "the plain request was answered after the Monte-Carlo run";

  monteCarlo.join();
  server.shutdown();
}

// ---- Graceful drain --------------------------------------------------------

TEST(ServiceLoopback, ShutdownDrainsInFlightRequests) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  // Injected latency holds admitted requests long enough for shutdown() to
  // begin while they are genuinely in flight.
  server.engine().setFaultInjector(
      evaluateLatency(std::chrono::milliseconds(50)));
  server.start();

  constexpr int kInFlight = 8;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kInFlight; ++i) {
    clients.emplace_back([&, i] {
      Client client("127.0.0.1", server.port());
      const Pair& pair = pairs[static_cast<std::size_t>(i) % pairs.size()];
      const HttpClientResponse response =
          client.post("/v1/evaluate", pair.payload);
      EXPECT_EQ(response.status, 200);
      EXPECT_EQ(response.body, pair.expectedBody);
      answered.fetch_add(1);
    });
  }
  // Give the clients a moment to get their requests submitted, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.shutdown();
  for (std::thread& thread : clients) thread.join();

  // Every request accepted before the drain got its real answer.
  EXPECT_EQ(answered.load(), kInFlight);
  EXPECT_FALSE(server.running());
}

// ---- Admission control and routing ----------------------------------------

TEST(ServiceLoopback, OversizedJobGets429WithRetryAfter) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 1;
  options.maxQueueSlots = 2;  // any 3-slot array request must bounce
  Server server(options);
  server.start();

  std::string array = "[";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) array += ",";
    array += pairs[static_cast<std::size_t>(i)].payload;
  }
  array += "]";

  Client client("127.0.0.1", server.port());
  const HttpClientResponse response = client.post("/v1/evaluate", array);
  EXPECT_EQ(response.status, 429);
  ASSERT_NE(response.header("Retry-After"), nullptr);
  EXPECT_EQ(*response.header("Retry-After"), "1");
  EXPECT_EQ(Json::parse(response.body).at("error").at("code").asString(),
            "queue-full");

  // The connection survives an admission rejection: a within-budget
  // request on the same connection succeeds.
  const HttpClientResponse retry =
      client.post("/v1/evaluate", pairs[0].payload);
  EXPECT_EQ(retry.status, 200);
  EXPECT_GE(server.metrics().rejectedQueueFull.load(), 1u);
  server.shutdown();
}

TEST(ServiceLoopback, AdmissionCountsInFlightSlots) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 1;
  options.maxQueueSlots = 2;
  Server server(options);
  server.engine().setFaultInjector(
      evaluateLatency(std::chrono::milliseconds(100)));
  server.start();

  // A 2-slot array fills the budget for as long as it is in flight.
  std::thread holder([&] {
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.post("/v1/evaluate", arrayOf(pairs, 2)).status, 200);
  });
  while (server.metrics().inFlightSlots.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Client client("127.0.0.1", server.port());
  const HttpClientResponse refused =
      client.post("/v1/evaluate", pairs[2].payload);
  EXPECT_EQ(refused.status, 429);
  EXPECT_NE(refused.header("Retry-After"), nullptr);
  EXPECT_EQ(Json::parse(refused.body).at("error").at("code").asString(),
            "queue-full");

  // Once the array is answered its slots are free again.
  holder.join();
  const HttpClientResponse retry =
      client.post("/v1/evaluate", pairs[2].payload);
  EXPECT_EQ(retry.status, 200);
  EXPECT_EQ(retry.body, pairs[2].expectedBody);
  server.shutdown();
}

TEST(ServiceLoopback, ShedRequestAskingToCloseIsAnsweredThenClosed) {
  const std::vector<Pair> pairs = makePairs();
  Server server;
  server.start();
  server.forceBrownoutTier(3);
  while (server.brownoutTier() != 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const int fd = rawSocket();
  connectLoopback(fd, server.port());
  sendRaw(fd, evaluateRequest(pairs[0].payload, /*close=*/true));
  std::string stream;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    stream.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // A read that ends in -1 ran into the receive timeout: the server kept
  // the connection the request asked it to close.
  EXPECT_EQ(n, 0) << "no EOF after the answer";
  const std::vector<HttpClientResponse> responses = parseResponses(stream);
  ASSERT_EQ(responses.size(), 1u) << stream;
  EXPECT_EQ(responses[0].status, 503);
  EXPECT_EQ(Json::parse(responses[0].body).at("error").at("code").asString(),
            "browned-out");
  server.shutdown();
}

TEST(ServiceLoopback, RoutingErrors) {
  Server server;
  server.start();
  Client client("127.0.0.1", server.port());

  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.get("/v1/evaluate").status, 405);
  EXPECT_EQ(client.post("/v1/evaluate", "{\"not\": \"valid\"}").status, 400);
  EXPECT_EQ(client.post("/v1/evaluate", "this is not json").status, 400);

  const HttpClientResponse health = client.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(Json::parse(health.body).at("status").asString(), "ok");
  server.shutdown();
}

TEST(ServiceLoopback, BatchArrayRequestAndMetricsIntervals) {
  const std::vector<Pair> pairs = makePairs();
  Server server;
  server.start();
  Client client("127.0.0.1", server.port());

  std::string array =
      "[" + pairs[0].payload + "," + pairs[1].payload + "]";
  const HttpClientResponse response = client.post("/v1/evaluate", array);
  EXPECT_EQ(response.status, 200);
  const Json body = Json::parse(response.body);
  ASSERT_EQ(body.at("results").asArray().size(), 2u);
  EXPECT_EQ(body.at("results").asArray()[0].dump(),
            Json::parse(pairs[0].expectedBody).dump());
  EXPECT_EQ(body.at("stats").at("requests").asNumber(), 2.0);

  // Two consecutive scrapes: the second's interval section covers only
  // traffic since the first (none), while lifetime totals persist.
  const Json first = Json::parse(client.get("/metrics").body);
  EXPECT_GE(first.at("endpoints").at("evaluate").at("requests").asNumber(),
            1.0);
  const Json second = Json::parse(client.get("/metrics").body);
  EXPECT_EQ(second.at("evalCache").at("interval").at("probes").asNumber(),
            0.0);
  EXPECT_GE(second.at("evalCache").at("lifetime").at("probes").asNumber(),
            2.0);
  server.shutdown();
}

TEST(ServiceLoopback, ConcurrentArraysReportOnlyTheirOwnStats) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  server.start();

  constexpr std::size_t kLengths[] = {2, 5};
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ready{0};
    std::vector<std::thread> senders;
    for (const std::size_t length : kLengths) {
      senders.emplace_back([&, length] {
        Client client("127.0.0.1", server.port());
        const std::string body = arrayOf(pairs, length);
        // Both arrays leave at the same moment.
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        const HttpClientResponse response = client.post("/v1/evaluate", body);
        EXPECT_EQ(response.status, 200);
        const Json parsed = Json::parse(response.body);
        EXPECT_EQ(parsed.at("results").asArray().size(), length);
        EXPECT_EQ(parsed.at("stats").at("requests").asNumber(),
                  static_cast<double>(length))
            << "round " << round;
      });
    }
    for (std::thread& sender : senders) sender.join();
  }
  server.shutdown();
}

TEST(ServiceLoopback, SearchStreamsProgressThenResult) {
  Server server;
  server.start();
  Client client("127.0.0.1", server.port());

  std::vector<std::string> lines;
  const HttpClientResponse response = client.postStreaming(
      "/v1/search", "{\"top\": 3, \"streamChunk\": 128}",
      [&](std::string_view line) { lines.emplace_back(line); });
  EXPECT_EQ(response.status, 200);
  ASSERT_GE(lines.size(), 2u);  // at least one progress line + the result
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const Json progress = Json::parse(lines[i]);
    EXPECT_NE(progress.find("progress"), nullptr) << lines[i];
  }
  const Json last = Json::parse(lines.back());
  ASSERT_NE(last.find("result"), nullptr);
  EXPECT_GT(last.at("result").at("evaluated").asNumber(), 0.0);
  EXPECT_LE(last.at("result").at("top").asArray().size(), 3u);
  server.shutdown();
}

TEST(ServiceLoopback, SearchNeverWritesAPathFromTheRequestBody) {
  // A client must not choose a file for the server to overwrite: a
  // "checkpointPath" in a /v1/search body is ignored, so a file at that path
  // keeps its bytes (a journal would have replaced them).
  const std::string path =
      ::testing::TempDir() + "stordep_search_body_checkpoint.txt";
  const std::string original = "not a journal\nsecond line\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << original;
  }

  Server server;
  server.start();
  Client client("127.0.0.1", server.port());
  Json body{JsonObject{}};
  body.set("top", Json(1));
  body.set("checkpointPath", Json(path));
  std::vector<std::string> lines;
  const HttpClientResponse response = client.postStreaming(
      "/v1/search", body.dump(),
      [&](std::string_view line) { lines.emplace_back(line); });
  server.shutdown();
  EXPECT_EQ(response.status, 200);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(Json::parse(lines.back()).find("result"), nullptr);

  std::ifstream in(path, std::ios::binary);
  const std::string after{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(after, original);
  std::filesystem::remove(path);
}

// ---- Gen-seeded loopback fuzz ----------------------------------------------

TEST(ServiceLoopback, GenSeededPayloadsRoundTripByteExact) {
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  server.start();
  engine::Engine reference(engine::EngineOptions{.threads = 1});
  Client client("127.0.0.1", server.port());

  constexpr std::uint64_t kSeed = 20260806;
  for (std::uint64_t index = 0; index < 12; ++index) {
    const verify::CaseSpec spec = verify::caseForSeed(kSeed, index);
    const StorageDesign design = verify::makeDesign(spec);
    const FailureScenario scenario = verify::makeScenario(spec);

    Json payload{JsonObject{}};
    payload.set("design", config::designToJson(design));
    payload.set("scenario", config::scenarioToJson(scenario));
    const HttpClientResponse response =
        client.post("/v1/evaluate", payload.dump());

    const StorageDesign parsed =
        config::designFromJson(config::designToJson(design));
    const engine::EvalOutcome outcome =
        reference.tryEvaluate(parsed, scenario);
    if (outcome.ok()) {
      EXPECT_EQ(response.status, 200) << "case " << index;
      EXPECT_EQ(response.body,
                evaluationToJson(parsed, scenario, outcome.value()).dump())
          << "case " << index;
    } else {
      EXPECT_EQ(response.status, httpStatusFor(outcome.error().code))
          << "case " << index;
      EXPECT_EQ(response.body, evalErrorToJson(outcome.error()).dump())
          << "case " << index;
    }
  }
  server.shutdown();
}

// ---- Responses sent by the evaluate task ----------------------------------

TEST(ServiceLoopback, HungUpClientsAnswerNeverReachesTheNextConnection) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  // Holds A's task in flight across A's hang-up and B's connect.
  server.engine().setFaultInjector(
      evaluateLatency(std::chrono::milliseconds(300)));
  server.start();

  const int a = rawSocket();
  connectLoopback(a, server.port());
  sendRaw(a, evaluateRequest(pairs[0].payload, /*close=*/false));
  while (server.metrics().inFlightSlots.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // B's socket exists before A hangs up, and A's stays allocated (shut
  // down, not closed): the next fd number this process hands out is the
  // one the server accepted A on, if the server has closed it.
  const int b = rawSocket();
  ::shutdown(a, SHUT_RDWR);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  connectLoopback(b, server.port());
  sendRaw(b, evaluateRequest(pairs[1].payload, /*close=*/true));
  const std::string stream = readToEof(b);
  ::close(a);
  ::close(b);

  const std::vector<HttpClientResponse> responses = parseResponses(stream);
  ASSERT_EQ(responses.size(), 1u) << stream;
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, pairs[1].expectedBody);
  EXPECT_EQ(stream.find(pairs[0].expectedBody), std::string::npos);
  server.shutdown();
}

TEST(ServiceLoopback, ResponseLargerThanTheSocketThenPipelinedFollowUp) {
  const std::vector<Pair> pairs = makePairs();
  // Loopback grows a socket's send buffer up to net.ipv4.tcp_wmem's maximum
  // (4 MiB by default), so a response past 6 MiB stops the task's send
  // short (EAGAIN) and the loop writes the rest once the client reads.
  constexpr std::size_t kResponseBytes = 6 * 1024 * 1024;
  std::size_t count = 0;
  std::size_t expectedBytes = 0;
  while (expectedBytes < kResponseBytes) {
    expectedBytes += pairs[count % pairs.size()].expectedBody.size();
    ++count;
  }
  ServerOptions options;
  options.engineThreads = 2;
  options.maxQueueSlots = count;
  options.limits.maxBodyBytes = 32 * 1024 * 1024;
  // The array fills every slot for as long as it is in flight, which a
  // slow (sanitizer) build makes long enough to brown out the follow-up.
  options.brownoutEnabled = false;
  Server server(options);
  server.start();

  const int fd = rawSocket(/*rcvbuf=*/16 * 1024);
  connectLoopback(fd, server.port());
  sendRaw(fd, evaluateRequest(arrayOf(pairs, count), /*close=*/false) +
                  evaluateRequest(pairs[2].payload, /*close=*/true));
  // Read only once the array is answered and the server has filled the
  // socket.
  while (server.metrics().evaluate.requests.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string stream = readToEof(fd);
  ::close(fd);

  const std::vector<HttpClientResponse> responses = parseResponses(stream);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_GE(responses[0].body.size(), kResponseBytes);
  const Json body = Json::parse(responses[0].body);
  const config::JsonArray& results = body.at("results").asArray();
  ASSERT_EQ(results.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(results[i].dump(), pairs[i % pairs.size()].expectedBody)
        << "result " << i;
  }
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[1].body, pairs[2].expectedBody);
  server.shutdown();
}

TEST(ServiceLoopback, PipelinedRequestIsNotHeldBehindAWholeSentAnswer) {
  const std::vector<Pair> pairs = makePairs();
  ServerOptions options;
  options.engineThreads = 2;
  Server server(options);
  // Every first evaluation of a pair takes kLatency, so the second request
  // of each pipelined two is read while the first's task holds the
  // connection, and that task sends its whole answer itself.
  constexpr auto kLatency = std::chrono::milliseconds(20);
  server.engine().setFaultInjector(evaluateLatency(kLatency));
  server.start();

  const int fd = rawSocket();
  connectLoopback(fd, server.port());
  std::string buffered;
  const auto nextResponse = [&] {
    HttpResponseParser parser;
    for (;;) {
      buffered.erase(0, parser.feed(buffered));
      if (parser.status() != ParseStatus::kNeedMore) break;
      char buf[64 * 1024];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(parser.status(), ParseStatus::kComplete);
    return std::move(parser.response());
  };
  // The gap between the two answers is the second's own evaluation. A loop
  // that slept through the first's completion would add up to its 100 ms
  // epoll timeout to every gap.
  std::vector<double> gapsMs;
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
    sendRaw(fd, evaluateRequest(pairs[i].payload, /*close=*/false) +
                    evaluateRequest(pairs[i + 1].payload, /*close=*/false));
    const HttpClientResponse first = nextResponse();
    const auto firstAt = std::chrono::steady_clock::now();
    const HttpClientResponse second = nextResponse();
    gapsMs.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - firstAt)
                         .count());
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.body, pairs[i].expectedBody);
    EXPECT_EQ(second.status, 200);
    EXPECT_EQ(second.body, pairs[i + 1].expectedBody);
  }
  ::close(fd);
  std::sort(gapsMs.begin(), gapsMs.end());
  EXPECT_LT(gapsMs[gapsMs.size() / 2], 3.0 * kLatency.count());
  server.shutdown();
}

}  // namespace
}  // namespace stordep::service
