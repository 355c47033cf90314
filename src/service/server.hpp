// server.hpp — the embedded evaluation daemon (POSIX sockets + epoll).
//
// A Server turns the in-process engine into a long-running HTTP/1.1
// service:
//
//   POST /v1/evaluate  one {design, scenario} pair or an array of them,
//                      evaluated as one Engine::evaluateBatch call over the
//                      process-wide EvalCache.
//   POST /v1/search    a design-space sweep; progress streams back as
//                      chunked NDJSON, one line per streamChunk wave.
//   GET  /metrics      lifetime + per-interval counters (service/metrics).
//   GET  /healthz      {"status": "ok" | "draining"}.
//
// Architecture: one event-loop thread owns the listening socket, an epoll
// instance, and every connection's read/parse/write state. Each admitted
// evaluate request becomes one task on a thread pool the server owns
// (sized from the engine's thread count): the task evaluates that
// request's pairs, runs their Monte-Carlo envelopes and encodes the
// response. When the connection had no unsent output at dispatch, the
// task sends that response on the socket itself; the rest (often nothing)
// crosses back onto the loop through a mutex-guarded completion queue.
// It wakes the loop through a pipe unless the task sent everything and the
// loop holds nothing back for it; then the client's next request wakes
// the loop, which drains the completion in the same pass, and the answer
// costs the loop no wake-up of its own. The loop thread is the only one
// that touches connection state, and it never closes a connection whose
// task may still send: a peer that hangs up meanwhile is taken out of
// epoll, and its fd is closed when the task's completion lands (a closed
// fd number is handed to the next accept4). Search requests each get a
// short-lived worker thread that writes its chunked response directly
// (the connection is detached from the loop first).
//
// Admission control: a connection cap (excess accepts get an immediate
// 503), a bound on evaluate slots admitted and not yet answered (an array
// of N pairs holds N; 429 + Retry-After past maxQueueSlots), a search
// concurrency cap (503 + Retry-After), and per-request deadlines
// (X-Deadline-Ms header or "deadlineMs" body field, clamped to
// maxDeadline) mapped onto engine CancellationTokens — a request whose
// deadline has passed when its task starts answers 504 with the engine's
// structured deadline-exceeded error without reaching the engine, and a
// Monte-Carlo run the deadline cuts short answers the same way.
//
// Shutdown: requestShutdown() is async-signal-safe (atomic flag + pipe
// write); the loop then stops accepting, lets in-flight requests finish,
// answers anything newly parsed with 503 + Retry-After, waits for the
// admitted evaluate slots and the search workers, and exits. shutdown()
// does the same synchronously and joins every thread; the destructor
// calls it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/batch.hpp"
#include "service/http.hpp"
#include "service/metrics.hpp"
#include "service/resilience/brownout.hpp"

namespace stordep::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port())

  /// Evaluate through this engine (shared cache with the rest of the
  /// process); null = the server owns one sized by `engineThreads`.
  engine::Engine* eng = nullptr;
  int engineThreads = 0;  ///< 0 = hardware-sized (owned engine only)

  HttpLimits limits;
  std::size_t maxConnections = 512;
  /// Evaluate slots (one per pair) admitted and not yet answered; a request
  /// that would exceed it gets 429 + Retry-After.
  std::size_t maxQueueSlots = 1024;

  /// Deadline applied when a request names none (0 = none), and the cap on
  /// what a client may ask for.
  std::chrono::milliseconds defaultDeadline{0};
  std::chrono::milliseconds maxDeadline{60'000};

  int maxConcurrentSearches = 2;
  int retryAfterSeconds = 1;  ///< advertised on 429/503

  /// Tiered load shedding under sustained overload (resilience/brownout).
  /// The controller ticks on the event loop's cadence, watching admitted
  /// slots against maxQueueSlots and evaluate requests with failed slots;
  /// tiers shed stochastic envelopes, then cold requests, then everything
  /// (see BrownoutOptions).
  bool brownoutEnabled = true;
  resilience::BrownoutOptions brownout;
  std::chrono::milliseconds brownoutTickInterval{100};

  /// Grace period for in-flight work at shutdown; connections still busy
  /// after it are closed.
  std::chrono::milliseconds drainTimeout{10'000};
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop and the evaluate pool. Throws
  /// std::runtime_error on socket/bind failure.
  void start();

  /// The bound port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return boundPort_; }

  /// Async-signal-safe shutdown trigger (for SIGTERM handlers): flips a
  /// flag and wakes the loop. The loop then drains gracefully.
  void requestShutdown() noexcept;

  /// Graceful synchronous shutdown: drain in-flight requests (bounded by
  /// drainTimeout), stop every thread, close every socket. Idempotent.
  void shutdown();

  /// Blocks until the event loop exits (after requestShutdown() or a
  /// drain), then completes shutdown. The serve binary's main thread parks
  /// here.
  void wait();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] engine::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] ServiceMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Pins the brown-out tier (0–3; -1 releases the pin), applied by the
  /// event loop on its next tick. Thread-safe; for tests, benches and
  /// operator overrides.
  void forceBrownoutTier(int tier) noexcept;

  /// The currently applied brown-out tier (same value /metrics reports).
  [[nodiscard]] int brownoutTier() const noexcept {
    return static_cast<int>(
        metrics_.brownoutTier.load(std::memory_order_relaxed));
  }

 private:
  struct Connection;
  struct EvaluateJob;
  enum class Admission { kAccepted, kQueueFull, kStopped };

  void loop();
  void acceptConnections();
  void handleReadable(Connection& conn);
  void handleWritable(Connection& conn);
  void processBuffer(Connection& conn);
  void dispatch(Connection& conn, HttpRequest request);
  void handleEvaluate(Connection& conn, const HttpRequest& request);
  /// Thread-safe: admits `job` against maxQueueSlots and queues it on the
  /// evaluate pool. kStopped once shutdown() has released the pool, which
  /// happens only after the event loop exited.
  [[nodiscard]] Admission submitEvaluate(
      std::shared_ptr<const EvaluateJob> job);
  /// Pool task: evaluates, encodes and answers one admitted request.
  void runEvaluate(const EvaluateJob& job);
  void handleSearch(Connection& conn, const HttpRequest& request);
  void runSearch(int fd, std::string bodyText);
  void sendResponse(Connection& conn, const HttpResponse& response,
                    bool keepAlive);
  /// Answers `status` with a JSON error document. 429 and 503 reject
  /// admission: they carry Retry-After and keep the connection for the
  /// retry when the request asked for keep-alive (`keepAlive`) and the
  /// server is not draining. Every other error closes the connection.
  void sendError(Connection& conn, int status, const std::string& code,
                 const std::string& message, bool keepAlive = false);
  void queueCompletion(std::uint64_t connId, std::string bytes,
                       bool thenClose);
  void drainCompletions();
  /// `conn` waits on its task and now holds what only the task's completion
  /// releases (input to parse, or a close): completions must wake the loop.
  void holdForCompletion(Connection& conn);
  void closeConnection(std::uint64_t connId);
  void beginDrain();
  void wake() noexcept;
  [[nodiscard]] bool drainComplete() const;
  void brownoutTick();

  ServerOptions options_;
  std::unique_ptr<engine::Engine> ownedEngine_;
  engine::Engine* engine_ = nullptr;
  ServiceMetrics metrics_;
  /// Runs admitted evaluate requests, one task each, sized like the engine.
  /// Not the engine's own pool: that one has threads − 1 workers and counts
  /// on each caller joining its parallelFor, so request tasks queued there
  /// would take the workers their own fan-outs need. poolMu_ orders
  /// admission against shutdown() releasing the pool.
  std::mutex poolMu_;
  std::unique_ptr<engine::ThreadPool> pool_;

  int listenFd_ = -1;
  int epollFd_ = -1;
  int wakeFd_ = -1;       ///< read end of the wake pipe (in epoll)
  int wakeWriteFd_ = -1;  ///< write end (async-signal-safe wake target)
  std::uint16_t boundPort_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdownRequested_{false};
  /// Fired when drain begins: in-flight searches stop at their next wave
  /// and report their partial ranking as cancelled.
  engine::CancellationSource stopSource_;
  bool draining_ = false;  // loop-thread state
  std::chrono::steady_clock::time_point drainDeadline_{};

  // Brown-out state. The controller is loop-thread-only; tier pins arrive
  // from other threads through pendingForcedTier_ (-2 = no change pending)
  // and are applied on the next tick.
  resilience::BrownoutController brownout_{};
  std::atomic<int> pendingForcedTier_{-2};
  std::chrono::steady_clock::time_point lastBrownoutTick_{};
  std::uint64_t lastEvaluateFailures_ = 0;

  std::uint64_t nextConnId_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<int, std::uint64_t> fdToConn_;

  // Cross-thread completion queue (evaluate tasks → loop). A task queues
  // its completion after its last send on the connection's fd; the loop
  // then clears `waiting`, writes what the task left and closes a
  // connection whose peer went away meanwhile. A completion with no bytes
  // and no close wakes the loop only when `wakeOnCompletion_` is set: the
  // loop sets it, with the queue empty, before it sleeps while a waiting
  // connection holds input or a hang-up (`heldConns_`) or the server
  // drains. Otherwise the completion waits for the loop's next wake-up,
  // which the client's next request brings, so a response the task sent
  // whole costs the loop no wake-up of its own.
  std::mutex completionsMu_;
  struct Completion {
    std::uint64_t connId;
    std::string bytes;  // the response bytes the task did not send itself
    bool thenClose;
  };
  std::vector<Completion> completions_;
  bool wakeOnCompletion_ = true;  // guarded by completionsMu_
  std::size_t heldConns_ = 0;     // loop-thread state

  std::mutex searchThreadsMu_;
  std::vector<std::thread> searchThreads_;

  std::thread loopThread_;
  std::once_flag shutdownOnce_;
};

}  // namespace stordep::service
