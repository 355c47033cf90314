#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "engine/fingerprint.hpp"
#include "optimizer/search.hpp"
#include "service/json_api.hpp"

namespace stordep::service {

using config::Json;
using config::JsonArray;
using config::JsonObject;

namespace {

void setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void setBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
}

/// Blocking full write with SIGPIPE suppressed; false when the peer is
/// gone. Used by search workers (detached, blocking sockets) only.
bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

[[nodiscard]] Json serviceErrorBody(const std::string& code,
                                    const std::string& message) {
  Json detail{JsonObject{}};
  detail.set("code", Json(code));
  detail.set("message", Json(message));
  Json out{JsonObject{}};
  out.set("error", detail);
  return out;
}

/// The final NDJSON line of a /v1/search stream (wallSeconds /
/// candidatesPerSec are the only run-varying fields).
[[nodiscard]] Json searchResultLine(const optimizer::SearchResult& result,
                                    std::size_t top) {
  JsonArray ranked;
  const std::size_t count = std::min(top, result.ranked.size());
  for (std::size_t i = 0; i < count; ++i) {
    const optimizer::EvaluatedCandidate& candidate = result.ranked[i];
    Json entry{JsonObject{}};
    entry.set("label", Json(candidate.label));
    entry.set("outlaysUsd", Json(candidate.outlays.usd()));
    entry.set("totalCostUsd", Json(candidate.totalCost.usd()));
    entry.set("worstRecoveryTimeSeconds",
              Json(candidate.worstRecoveryTime.secs()));
    entry.set("worstDataLossSeconds", Json(candidate.worstDataLoss.secs()));
    ranked.push_back(entry);
  }
  Json summary{JsonObject{}};
  summary.set("evaluated", Json(result.evaluated));
  summary.set("rankedCount", Json(static_cast<double>(result.ranked.size())));
  summary.set("rejectedCount",
              Json(static_cast<double>(result.rejected.size())));
  summary.set("failed", Json(result.failed));
  summary.set("cancelled", Json(result.cancelled));
  summary.set("wallSeconds", Json(result.wallSeconds));
  summary.set("candidatesPerSec", Json(result.candidatesPerSec));
  summary.set("top", Json(std::move(ranked)));
  Json line{JsonObject{}};
  line.set("result", summary);
  return line;
}

}  // namespace

/// Per-connection state; owned and touched by the loop thread only.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  HttpRequestParser parser;
  std::string inBuf;
  std::size_t parsed = 0;  ///< bytes of inBuf already consumed
  std::string outBuf;
  std::size_t written = 0;
  /// Evaluate task in flight; pause reading. The task may send on `fd`
  /// until its completion lands, so the fd stays open until then.
  bool waiting = false;
  /// Close once outBuf drains; while `waiting`, the peer is gone and the
  /// close waits for the task's completion.
  bool closing = false;
  bool held = false;      ///< counted in heldConns_ (see holdForCompletion)
  bool epollOut = false;  ///< EPOLLOUT currently armed

  explicit Connection(HttpLimits limits) : parser(limits) {}
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  brownout_ = resilience::BrownoutController(options_.brownout);
  if (options_.eng != nullptr) {
    engine_ = options_.eng;
  } else {
    ownedEngine_ = std::make_unique<engine::Engine>(
        engine::EngineOptions{.threads = options_.engineThreads});
    engine_ = ownedEngine_.get();
  }
}

Server::~Server() { shutdown(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;

  listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("bad listen address: " + options_.host);
  }
  if (bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listenFd_, 128) < 0) {
    const std::string reason = std::strerror(errno);
    close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("bind/listen on " + options_.host + ":" +
                             std::to_string(options_.port) +
                             " failed: " + reason);
  }
  sockaddr_in bound{};
  socklen_t boundLen = sizeof(bound);
  getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
  boundPort_ = ntohs(bound.sin_port);
  setNonBlocking(listenFd_);

  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  int wakePipe[2];
  if (epollFd_ < 0 || pipe2(wakePipe, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("epoll/pipe setup failed");
  }
  wakeFd_ = wakePipe[0];
  wakeWriteFd_ = wakePipe[1];

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listenFd_;
  epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
  ev.data.fd = wakeFd_;
  epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

  pool_ = std::make_unique<engine::ThreadPool>(engine_->threads());

  running_.store(true, std::memory_order_release);
  loopThread_ = std::thread([this] { loop(); });
}

void Server::requestShutdown() noexcept {
  shutdownRequested_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() noexcept {
  if (wakeWriteFd_ >= 0) {
    const char byte = 1;
    // write() is async-signal-safe; a full pipe already guarantees a wake.
    [[maybe_unused]] const ssize_t n = write(wakeWriteFd_, &byte, 1);
  }
}

void Server::wait() {
  if (loopThread_.joinable()) loopThread_.join();
  shutdown();
}

void Server::shutdown() {
  requestShutdown();
  if (loopThread_.joinable()) loopThread_.join();
  std::call_once(shutdownOnce_, [this] {
    // Admission now answers kStopped; the pool's destructor runs every
    // admitted request to completion before joining its workers.
    std::unique_ptr<engine::ThreadPool> pool;
    {
      std::lock_guard<std::mutex> lock(poolMu_);
      pool = std::move(pool_);
    }
    pool.reset();
    {
      std::lock_guard<std::mutex> lock(searchThreadsMu_);
      for (std::thread& thread : searchThreads_) {
        if (thread.joinable()) thread.join();
      }
      searchThreads_.clear();
    }
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) close(conn->fd);
    }
    conns_.clear();
    fdToConn_.clear();
    if (listenFd_ >= 0) close(listenFd_);
    if (epollFd_ >= 0) close(epollFd_);
    if (wakeFd_ >= 0) close(wakeFd_);
    if (wakeWriteFd_ >= 0) close(wakeWriteFd_);
    listenFd_ = epollFd_ = wakeFd_ = wakeWriteFd_ = -1;
  });
}

// ---- Event loop ------------------------------------------------------------

void Server::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (true) {
    if (shutdownRequested_.load(std::memory_order_acquire) && !draining_) {
      beginDrain();
    }
    if (draining_ && drainComplete()) break;
    if (draining_ &&
        std::chrono::steady_clock::now() >= drainDeadline_) {
      break;  // grace period exhausted; remaining connections are dropped
    }
    brownoutTick();

    const int n = epoll_wait(epollFd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeFd_) {
        char buf[256];
        while (read(wakeFd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fd == listenFd_) {
        acceptConnections();
        continue;
      }
      const auto it = fdToConn_.find(fd);
      if (it == fdToConn_.end()) continue;
      Connection* conn = conns_.at(it->second).get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        closeConnection(conn->id);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handleReadable(*conn);
      // The connection may have been closed by the read path.
      if (fdToConn_.count(fd) == 0) continue;
      if ((events[i].events & EPOLLOUT) != 0) handleWritable(*conn);
    }
    drainCompletions();
  }
  drainCompletions();
  running_.store(false, std::memory_order_release);
}

void Server::forceBrownoutTier(int tier) noexcept {
  pendingForcedTier_.store(tier < 0 ? -1 : tier, std::memory_order_release);
  wake();
}

void Server::brownoutTick() {
  if (!options_.brownoutEnabled) return;
  const int pinned =
      pendingForcedTier_.exchange(-2, std::memory_order_acq_rel);
  if (pinned != -2) brownout_.force(pinned);

  const auto now = std::chrono::steady_clock::now();
  const bool due =
      lastBrownoutTick_.time_since_epoch().count() == 0 ||
      now - lastBrownoutTick_ >= options_.brownoutTickInterval;
  if (due) {
    lastBrownoutTick_ = now;
    const double capacity = static_cast<double>(
        std::max<std::size_t>(1, options_.maxQueueSlots));
    const double admitted = static_cast<double>(std::max<std::int64_t>(
        0, metrics_.inFlightSlots.load(std::memory_order_relaxed)));
    const double pressure = std::min(1.0, admitted / capacity);
    const std::uint64_t failures =
        metrics_.evaluateFailures.load(std::memory_order_relaxed);
    const std::uint64_t delta = failures - lastEvaluateFailures_;
    lastEvaluateFailures_ = failures;
    brownout_.tick(pressure, delta);
  }
  metrics_.brownoutTier.store(brownout_.tier(), std::memory_order_relaxed);
  metrics_.brownoutTransitions.store(brownout_.transitions(),
                                     std::memory_order_relaxed);
}

bool Server::drainComplete() const {
  return conns_.empty() &&
         metrics_.inFlightSlots.load(std::memory_order_relaxed) == 0 &&
         metrics_.activeSearches.load(std::memory_order_relaxed) == 0;
}

void Server::beginDrain() {
  draining_ = true;
  drainDeadline_ = std::chrono::steady_clock::now() + options_.drainTimeout;
  stopSource_.cancel();  // in-flight searches finish their current wave
  if (listenFd_ >= 0) {
    epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    close(listenFd_);
    listenFd_ = -1;
  }
  // Completions queued without a wake release their connections first.
  drainCompletions();
  // Idle keep-alive connections have nothing in flight: close them now.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : conns_) {
    if (!conn->waiting && conn->outBuf.size() == conn->written &&
        conn->parser.idle()) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) closeConnection(id);
}

void Server::acceptConnections() {
  while (true) {
    const int fd = accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (conns_.size() >= options_.maxConnections) {
      // Over the cap: best-effort 503 straight into the fresh socket.
      HttpResponse response;
      response.status = 503;
      response.headers.emplace_back("Content-Type", "application/json");
      response.headers.emplace_back(
          "Retry-After", std::to_string(options_.retryAfterSeconds));
      response.body =
          serviceErrorBody("overloaded", "connection limit reached").dump();
      const std::string bytes = serializeResponse(response, false);
      [[maybe_unused]] const ssize_t n =
          send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      close(fd);
      metrics_.connectionsRejected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    conn->id = nextConnId_++;
    fdToConn_[fd] = conn->id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    metrics_.connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    metrics_.activeConnections.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::closeConnection(std::uint64_t connId) {
  const auto it = conns_.find(connId);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  if (conn->waiting) {
    // Its evaluate task may still send on this fd. A closed fd number goes
    // to the next accept4, and the task would answer a stranger, so the
    // close waits for the task's completion (drainCompletions).
    fdToConn_.erase(conn->fd);
    conn->closing = true;
    holdForCompletion(*conn);
    return;
  }
  close(conn->fd);
  fdToConn_.erase(conn->fd);
  conns_.erase(it);
  metrics_.activeConnections.fetch_sub(1, std::memory_order_relaxed);
}

void Server::handleReadable(Connection& conn) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.inBuf.append(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {  // peer closed
      closeConnection(conn.id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(conn.id);
    return;
  }
  processBuffer(conn);
}

void Server::processBuffer(Connection& conn) {
  // dispatch()/sendError() may close or detach the connection, destroying
  // `conn`; after any call that can, re-check liveness by id before
  // touching it again.
  const std::uint64_t id = conn.id;
  while (!conn.waiting && !conn.closing) {
    const std::string_view pending =
        std::string_view(conn.inBuf).substr(conn.parsed);
    if (pending.empty()) break;
    conn.parsed += conn.parser.feed(pending);
    // Drop the consumed prefix now, while the connection is certainly
    // alive, so pipelined remainders do not accumulate.
    conn.inBuf.erase(0, conn.parsed);
    conn.parsed = 0;
    const ParseStatus status = conn.parser.status();
    if (status == ParseStatus::kNeedMore) break;
    if (status == ParseStatus::kError) {
      const ParseError& error = conn.parser.error();
      metrics_.parseErrors.fetch_add(1, std::memory_order_relaxed);
      metrics_.other.record(error.status, std::chrono::nanoseconds{0});
      sendError(conn, error.status, "bad-request", error.message);
      // Framing is lost; never reuse the connection.
      if (conns_.count(id) != 0) conn.closing = true;
      return;
    }
    HttpRequest request = std::move(conn.parser.request());
    conn.parser.reset();
    dispatch(conn, std::move(request));
    if (conns_.count(id) == 0) return;  // closed or detached to a search
  }
  // Pipelined input waits for the answer in flight.
  if (conn.waiting && conn.parsed < conn.inBuf.size()) holdForCompletion(conn);
}

// ---- Routing ---------------------------------------------------------------

void Server::dispatch(Connection& conn, HttpRequest request) {
  const auto start = std::chrono::steady_clock::now();
  const std::string_view path = request.path();
  const bool keepAlive = request.keepAlive() && !draining_;

  if (path == "/healthz") {
    HttpResponse response;
    const int tier = options_.brownoutEnabled ? brownout_.tier() : 0;
    Json body{JsonObject{}};
    // "degraded" still answers 200: the process is alive and serving what
    // it can; a load balancer reads the tier, not the status code, to steer
    // load away.
    body.set("status", Json(draining_ ? "draining"
                                      : (tier > 0 ? "degraded" : "ok")));
    body.set("brownoutTier", Json(static_cast<double>(tier)));
    response.status = draining_ ? 503 : 200;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = body.dump();
    sendResponse(conn, response, keepAlive);
    metrics_.healthz.record(response.status,
                            std::chrono::steady_clock::now() - start);
    return;
  }
  if (path == "/metrics") {
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = metrics_.snapshot(*engine_).pretty();
    sendResponse(conn, response, keepAlive);
    metrics_.metricsEndpoint.record(200,
                                    std::chrono::steady_clock::now() - start);
    return;
  }
  if (path == "/v1/evaluate" || path == "/v1/search") {
    if (request.method != "POST") {
      metrics_.other.record(405, std::chrono::nanoseconds{0});
      sendError(conn, 405, "method-not-allowed", "use POST");
      return;
    }
    if (draining_) {
      metrics_.rejectedDraining.fetch_add(1, std::memory_order_relaxed);
      metrics_.other.record(503, std::chrono::nanoseconds{0});
      sendError(conn, 503, "draining", "server is shutting down");
      return;
    }
    if (path == "/v1/evaluate") {
      handleEvaluate(conn, request);
    } else {
      handleSearch(conn, request);
    }
    return;
  }
  metrics_.other.record(404, std::chrono::nanoseconds{0});
  sendError(conn, 404, "not-found",
            "unknown endpoint " + std::string(path));
}

// ---- /v1/evaluate ----------------------------------------------------------

/// One admitted /v1/evaluate request: everything its pool task needs, held
/// by value. The loop keeps `fd` open until the task's completion lands.
struct Server::EvaluateJob {
  std::uint64_t connId = 0;
  int fd = -1;
  /// The connection had no unsent output at dispatch, so the task may send
  /// its response on `fd` itself; otherwise the loop writes it after the
  /// earlier bytes.
  bool sendDirect = false;
  bool keepAlive = true;
  bool arrayShape = false;
  bool shedStochastic = false;  ///< brown-out tier >= 1 when parsed
  std::vector<EvaluateItem> items;
  engine::CancellationToken token;
  std::chrono::steady_clock::time_point start;
};

namespace {

/// One item's answer: its JSON, and the status a single-body request
/// answers with.
struct ItemReply {
  int status = 200;
  Json body;
};

/// The one encoder behind both response shapes: the evaluation envelope
/// plus, when asked for, its Monte-Carlo envelope (or the brown-out shed
/// body) — or the item's error document.
[[nodiscard]] ItemReply encodeItem(const EvaluateItem& item,
                                   const engine::EvalOutcome& outcome,
                                   bool shedStochastic,
                                   const engine::CancellationToken& token,
                                   ServiceMetrics& metrics) {
  if (!outcome.ok()) {
    return {httpStatusFor(outcome.error().code),
            evalErrorToJson(outcome.error())};
  }
  Json body = evaluationToJson(*item.design, item.scenario, outcome.value());
  if (!item.stochastic) return {200, std::move(body)};
  if (shedStochastic) {
    metrics.shedStochastic.fetch_add(1, std::memory_order_relaxed);
    body.set("stochastic",
             serviceErrorBody("unavailable",
                              "stochastic envelopes shed under brown-out"));
    return {200, std::move(body)};
  }
  StochasticRunStats runStats;
  Json envelope = stochasticEnvelope(*item.design, item.scenario,
                                     *item.stochastic, &runStats, token);
  // A run the request's deadline cut short fails the whole item, as an
  // evaluation that missed it does.
  if (runStats.cancelled) {
    return {httpStatusFor(token.reason()), std::move(envelope)};
  }
  if (runStats.trials > 0) {
    metrics.recordStochastic(runStats.trials, runStats.wallSeconds,
                             runStats.usedPlan);
  }
  body.set("stochastic", std::move(envelope));
  return {200, std::move(body)};
}

}  // namespace

void Server::handleEvaluate(Connection& conn, const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();

  EvaluateRequest parsed;
  try {
    parsed = parseEvaluateRequest(Json::parse(request.body));
  } catch (const std::exception& e) {
    metrics_.evaluate.record(400, std::chrono::steady_clock::now() - start);
    sendError(conn, 400, "invalid-request", e.what());
    return;
  }

  const int tier = options_.brownoutEnabled ? brownout_.tier() : 0;

  // Body "deadlineMs" uses 0 as "unset"; an explicit X-Deadline-Ms header
  // always wins, and an explicit 0 there means "already expired" — the
  // deterministic way to exercise the 504 path.
  std::chrono::milliseconds deadline = parsed.deadline;
  bool explicitDeadline = deadline.count() > 0;
  if (const std::string* header = request.header("x-deadline-ms")) {
    char* end = nullptr;
    const long long value = std::strtoll(header->c_str(), &end, 10);
    if (end == header->c_str() || *end != '\0' || value < 0) {
      metrics_.evaluate.record(400, std::chrono::steady_clock::now() - start);
      sendError(conn, 400, "invalid-request",
                "X-Deadline-Ms must be a non-negative integer");
      return;
    }
    deadline = std::chrono::milliseconds(value);
    explicitDeadline = true;
  }
  if (!explicitDeadline) deadline = options_.defaultDeadline;
  if (deadline > options_.maxDeadline) deadline = options_.maxDeadline;

  auto job = std::make_shared<EvaluateJob>();
  job->connId = conn.id;
  job->fd = conn.fd;
  job->sendDirect = conn.outBuf.size() == conn.written;
  job->keepAlive = request.keepAlive();
  job->arrayShape = parsed.array;
  job->shedStochastic = tier >= 1;
  job->items = std::move(parsed.items);
  job->start = start;
  if (explicitDeadline || deadline.count() > 0) {
    job->token = engine::CancellationToken{}.withDeadline(deadline);
  }

  // Brown-out shedding. Tier 3 drops everything; tier 2 admits only
  // requests every item of which is already cached (the probe itself
  // refreshes the entries' LRU position); tier 1 is handled by the task,
  // which strips stochastic envelopes.
  if (tier >= 3) {
    metrics_.shedCold.fetch_add(1, std::memory_order_relaxed);
    metrics_.evaluate.record(503, std::chrono::steady_clock::now() - start);
    sendError(conn, 503, "browned-out",
              "server is in full brown-out (tier 3)", request.keepAlive());
    return;
  }
  if (tier >= 2) {
    bool allWarm = true;
    try {
      for (const EvaluateItem& item : job->items) {
        const engine::Fingerprint key =
            engine::fingerprintEvaluation(*item.design, item.scenario);
        if (!engine_->cache().lookup(key)) {
          allWarm = false;
          break;
        }
      }
    } catch (...) {
      allWarm = false;  // injected cache-lookup fault: treat as cold
    }
    if (!allWarm) {
      metrics_.shedCold.fetch_add(1, std::memory_order_relaxed);
      metrics_.evaluate.record(503,
                               std::chrono::steady_clock::now() - start);
      sendError(conn, 503, "browned-out",
                "cache-hits-only under brown-out (tier 2); request needs a "
                "cold evaluation",
                request.keepAlive());
      return;
    }
  }

  // kStopped cannot happen here: the pool stops only after the loop exits.
  if (submitEvaluate(std::move(job)) == Admission::kAccepted) {
    conn.waiting = true;  // responses stay in order: pause this connection
    return;
  }
  metrics_.rejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
  metrics_.evaluate.record(429, std::chrono::steady_clock::now() - start);
  sendError(conn, 429, "queue-full", "evaluation queue is full",
            request.keepAlive());
}

Server::Admission Server::submitEvaluate(
    std::shared_ptr<const EvaluateJob> job) {
  const auto slots = static_cast<std::int64_t>(job->items.size());
  std::lock_guard<std::mutex> lock(poolMu_);
  if (pool_ == nullptr) return Admission::kStopped;
  // Tasks only ever release slots, so checking under the lock and adding
  // after cannot overshoot the bound.
  if (metrics_.inFlightSlots.load(std::memory_order_relaxed) + slots >
      static_cast<std::int64_t>(options_.maxQueueSlots)) {
    return Admission::kQueueFull;
  }
  metrics_.inFlightSlots.fetch_add(slots, std::memory_order_relaxed);
  // The future is dropped: runEvaluate answers through queueCompletion and
  // lets nothing escape.
  (void)pool_->submit([this, job = std::move(job)] { runEvaluate(*job); });
  return Admission::kAccepted;
}

void Server::runEvaluate(const EvaluateJob& job) {
  const std::size_t slots = job.items.size();
  HttpResponse response;
  response.headers.emplace_back("Content-Type", "application/json");
  try {
    engine::BatchResult batch;
    if (job.token.cancelled()) {
      // Expired while queued: answer with the token's structured error
      // without spending engine work on it.
      metrics_.deadlineExpired.fetch_add(1, std::memory_order_relaxed);
      batch.results.assign(slots, engine::EvalOutcome(job.token.toError()));
      batch.stats.requests = slots;
      batch.stats.cancelled = slots;
    } else {
      std::vector<engine::EvalRequest> requests;
      requests.reserve(slots);
      for (const EvaluateItem& item : job.items) {
        requests.push_back(toEngineRequest(item));
      }
      engine::BatchOptions batchOptions;
      batchOptions.token = job.token;
      batch = engine_->evaluateBatch(requests, batchOptions);
      if (batch.stats.failed > 0) {
        // Feeds the brown-out controller: a streak of failing requests
        // escalates degradation even when admission looks shallow.
        metrics_.evaluateFailures.fetch_add(1, std::memory_order_relaxed);
      }
    }

    if (!job.arrayShape) {
      ItemReply reply = encodeItem(job.items[0], batch.results[0],
                                   job.shedStochastic, job.token, metrics_);
      response.status = reply.status;
      response.body = reply.body.dump();
      if (response.status == 503) {
        response.headers.emplace_back(
            "Retry-After", std::to_string(options_.retryAfterSeconds));
      }
    } else {
      JsonArray results;
      results.reserve(slots);
      for (std::size_t i = 0; i < slots; ++i) {
        results.push_back(encodeItem(job.items[i], batch.results[i],
                                     job.shedStochastic, job.token, metrics_)
                              .body);
      }
      const engine::EngineStats& stats = batch.stats;
      Json statsJson{JsonObject{}};
      statsJson.set("requests", Json(static_cast<double>(stats.requests)));
      statsJson.set("cacheHits", Json(static_cast<double>(stats.cacheHits)));
      statsJson.set("evaluations",
                    Json(static_cast<double>(stats.evaluations)));
      statsJson.set("failed", Json(static_cast<double>(stats.failed)));
      statsJson.set("cancelled", Json(static_cast<double>(stats.cancelled)));
      Json body{JsonObject{}};
      body.set("results", Json(std::move(results)));
      body.set("stats", statsJson);
      response.status = 200;
      response.body = body.dump();
    }
  } catch (...) {
    // Nothing may escape into the dropped future: the connection would
    // never be answered and its slots never released.
    response.status = 500;
    response.body = evalErrorToJson(engine::errorFromCurrentException()).dump();
  }
  metrics_.evaluate.record(response.status,
                           std::chrono::steady_clock::now() - job.start);
  // Released before the answer is sent, so a client holding its answer
  // never finds its slots still counted against admission.
  metrics_.inFlightSlots.fetch_sub(static_cast<std::int64_t>(slots),
                                   std::memory_order_relaxed);
  std::string bytes = serializeResponse(response, job.keepAlive);
  if (job.sendDirect) {
    // Answer from this thread, so the loop's wake-up is off the request's
    // critical path. What the socket does not take now (EAGAIN), or cannot
    // (an error, which the loop's own write then meets), goes to the loop.
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = send(job.fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    bytes.erase(0, sent);
  }
  // The task never touches the socket after this.
  queueCompletion(job.connId, std::move(bytes), /*thenClose=*/!job.keepAlive);
}

// ---- /v1/search ------------------------------------------------------------

void Server::handleSearch(Connection& conn, const HttpRequest& request) {
  // Searches are always cold work; tier 2 already sheds them.
  if (options_.brownoutEnabled && brownout_.tier() >= 2) {
    metrics_.shedCold.fetch_add(1, std::memory_order_relaxed);
    metrics_.search.record(503, std::chrono::nanoseconds{0});
    sendError(conn, 503, "browned-out",
              "searches are shed under brown-out (tier >= 2)",
              request.keepAlive());
    return;
  }
  if (metrics_.activeSearches.load(std::memory_order_relaxed) >=
      options_.maxConcurrentSearches) {
    metrics_.search.record(503, std::chrono::nanoseconds{0});
    sendError(conn, 503, "search-limit", "too many concurrent searches",
              request.keepAlive());
    return;
  }
  metrics_.activeSearches.fetch_add(1, std::memory_order_relaxed);

  // Detach the connection from the loop: the search worker owns the socket
  // from here and writes its chunked response with blocking I/O.
  const int fd = conn.fd;
  const std::uint64_t connId = conn.id;
  std::string body = request.body;
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  fdToConn_.erase(fd);
  conns_.erase(connId);

  std::lock_guard<std::mutex> lock(searchThreadsMu_);
  searchThreads_.emplace_back([this, fd, body = std::move(body)]() mutable {
    runSearch(fd, std::move(body));
  });
}

void Server::runSearch(int fd, std::string bodyText) {
  const auto start = std::chrono::steady_clock::now();
  setBlocking(fd);

  int status = 200;
  const auto finish = [&](bool closeFd) {
    if (closeFd) close(fd);
    metrics_.search.record(status, std::chrono::steady_clock::now() - start);
    metrics_.activeSearches.fetch_sub(1, std::memory_order_relaxed);
    metrics_.activeConnections.fetch_sub(1, std::memory_order_relaxed);
    wake();  // drain accounting
  };

  // Search parameters (all optional; {} sweeps the default grid).
  BusinessRequirements business = casestudy::requirements();
  optimizer::SearchOptions searchOptions;
  std::size_t top = 10;
  std::chrono::milliseconds deadline{0};
  try {
    const Json body = bodyText.empty() ? Json{JsonObject{}}
                                       : Json::parse(bodyText);
    if (!body.isObject()) {
      throw std::runtime_error("search request must be a JSON object");
    }
    if (const Json* rto = body.find("rtoHours")) {
      business.rto = hours(rto->asNumber());
    }
    if (const Json* rpo = body.find("rpoHours")) {
      business.rpo = hours(rpo->asNumber());
    }
    if (const Json* chunk = body.find("streamChunk")) {
      searchOptions.streamChunk =
          static_cast<std::size_t>(std::max(1.0, chunk->asNumber()));
    }
    if (const Json* topN = body.find("top")) {
      top = static_cast<std::size_t>(std::max(1.0, topN->asNumber()));
    }
    if (const Json* deadlineMs = body.find("deadlineMs")) {
      deadline = std::chrono::milliseconds(
          static_cast<long long>(deadlineMs->asNumber()));
    }
    if (const Json* delayMs = body.find("waveDelayMs")) {
      // Clamped: a wave delay exists for deterministic mid-sweep kills in
      // tests, not as a general-purpose throttle.
      searchOptions.waveDelay = std::chrono::milliseconds(std::min(
          1000LL, std::max(0LL,
                           static_cast<long long>(delayMs->asNumber()))));
    }
  } catch (const std::exception& e) {
    status = 400;
    HttpResponse response;
    response.status = 400;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = serviceErrorBody("invalid-request", e.what()).dump();
    writeAll(fd, serializeResponse(response, false));
    finish(true);
    return;
  }
  if (deadline.count() > 0 && deadline > options_.maxDeadline) {
    deadline = options_.maxDeadline;
  }

  searchOptions.eng = engine_;
  // The search token is owned by this worker so a broken pipe can cancel
  // just this search; the server-wide drain flag is folded in by polling
  // it at every progress boundary below.
  engine::CancellationSource localStop;
  const engine::CancellationToken drainToken = stopSource_.token();
  if (drainToken.cancelled()) localStop.cancel();
  engine::CancellationToken token = localStop.token();
  if (deadline.count() > 0) token = token.withDeadline(deadline);
  searchOptions.token = token;

  optimizer::DesignSpaceCursor cursor;
  const std::uint64_t total =
      optimizer::gridCardinality(optimizer::DesignSpaceOptions{});

  HttpHeaders headers;
  headers.emplace_back("Content-Type", "application/x-ndjson");
  bool alive = writeAll(fd, serializeChunkedHead(200, headers));
  bool peerDisconnected = false;
  const auto onPeerGone = [&] {
    // Broken pipe: the client went away mid-stream. Cancel this search so
    // it stops at its next wave instead of burning the rest of the sweep,
    // and make the event observable in /metrics.
    if (!peerDisconnected) {
      peerDisconnected = true;
      localStop.cancel();
      metrics_.searchPeerDisconnects.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (!alive) onPeerGone();
  searchOptions.onProgress = [&](std::size_t done) {
    if (drainToken.cancelled()) localStop.cancel();
    if (!alive) return;
    Json progress{JsonObject{}};
    progress.set("done", Json(static_cast<double>(done)));
    progress.set("total", Json(static_cast<double>(total)));
    Json line{JsonObject{}};
    line.set("progress", progress);
    alive = writeAll(fd, encodeChunk(line.dump() + "\n"));
    if (!alive) onPeerGone();
  };

  const optimizer::SearchResult result = optimizer::searchDesignSpaceStreaming(
      cursor, casestudy::celloWorkload(), business,
      optimizer::caseStudyScenarios(), searchOptions);

  if (alive) {
    const Json line = searchResultLine(result, top);
    alive = writeAll(fd, encodeChunk(line.dump() + "\n"));
    if (alive) writeAll(fd, std::string(kLastChunk));
  }
  finish(true);
}

// ---- Responses -------------------------------------------------------------

void Server::sendResponse(Connection& conn, const HttpResponse& response,
                          bool keepAlive) {
  conn.outBuf += serializeResponse(response, keepAlive);
  if (!keepAlive) conn.closing = true;
  handleWritable(conn);
}

void Server::sendError(Connection& conn, int status, const std::string& code,
                       const std::string& message, bool keepAlive) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("Content-Type", "application/json");
  const bool retry = status == 429 || status == 503;
  if (retry) {
    response.headers.emplace_back("Retry-After",
                                  std::to_string(options_.retryAfterSeconds));
  }
  response.body = serviceErrorBody(code, message).dump();
  sendResponse(conn, response,
               retry && keepAlive && !draining_ && !conn.closing);
}

void Server::handleWritable(Connection& conn) {
  while (conn.written < conn.outBuf.size()) {
    const ssize_t n = send(conn.fd, conn.outBuf.data() + conn.written,
                           conn.outBuf.size() - conn.written, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.written += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(conn.id);
    return;
  }
  const bool drained = conn.written == conn.outBuf.size();
  if (drained) {
    conn.outBuf.clear();
    conn.written = 0;
    if (conn.closing) {
      closeConnection(conn.id);
      return;
    }
    // During a drain, a connection that has answered everything and has no
    // request in progress is done.
    if (draining_ && !conn.waiting && conn.parser.idle() &&
        conn.parsed == conn.inBuf.size()) {
      closeConnection(conn.id);
      return;
    }
  }
  const bool wantOut = !drained;
  if (wantOut != conn.epollOut) {
    epoll_event ev{};
    ev.events = EPOLLIN | (wantOut ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.epollOut = wantOut;
  }
}

void Server::queueCompletion(std::uint64_t connId, std::string bytes,
                             bool thenClose) {
  bool wakeLoop = false;
  {
    std::lock_guard<std::mutex> lock(completionsMu_);
    wakeLoop = wakeOnCompletion_ || thenClose || !bytes.empty();
    completions_.push_back(Completion{connId, std::move(bytes), thenClose});
  }
  if (wakeLoop) wake();
}

void Server::holdForCompletion(Connection& conn) {
  if (conn.held) return;
  conn.held = true;
  ++heldConns_;
}

void Server::drainCompletions() {
  std::vector<Completion> ready;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(completionsMu_);
      if (completions_.empty()) {
        // Set with the queue empty under the lock: a task that queues
        // after this finds whether the loop needs waking before it sleeps.
        wakeOnCompletion_ =
            heldConns_ > 0 || draining_ ||
            shutdownRequested_.load(std::memory_order_acquire);
        return;
      }
      ready.swap(completions_);
    }
    for (Completion& completion : ready) {
      const auto it = conns_.find(completion.connId);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      conn.waiting = false;
      if (conn.held) {
        conn.held = false;
        --heldConns_;
      }
      if (conn.closing) {
        // The peer went away while the task held the fd: close it now.
        closeConnection(conn.id);
        continue;
      }
      conn.outBuf += completion.bytes;
      if (completion.thenClose) conn.closing = true;
      handleWritable(conn);
      // Pipelined follow-on requests may already be buffered.
      if (conns_.count(completion.connId) != 0 && !conn.closing) {
        processBuffer(conn);
      }
    }
    ready.clear();
  }
}

}  // namespace stordep::service
