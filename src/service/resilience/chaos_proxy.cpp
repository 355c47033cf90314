#include "service/resilience/chaos_proxy.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "sim/rng.hpp"

namespace stordep::service::resilience {

namespace {

void setRecvTimeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Close with an RST instead of an orderly FIN (SO_LINGER with zero
/// timeout discards the send queue and sends a reset).
void resetClose(int fd) {
  linger lin{};
  lin.l_onoff = 1;
  lin.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  close(fd);
}

/// Arm a reset without releasing the descriptor: discard the send queue
/// (SO_LINGER zero) and shut both directions down so the peer sees the
/// connection die immediately, while the fd NUMBER stays allocated. Pump
/// threads must never close() — the sibling pump may be between recv()
/// calls on the same number, and in a single-process harness the kernel
/// would recycle it for an unrelated client/server socket, crossing
/// responses between requests. The deferred close in reapFinished()/stop()
/// (after both pumps are joined) sends the actual RST.
void armReset(int fd) {
  linger lin{};
  lin.l_onoff = 1;
  lin.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  shutdown(fd, SHUT_RDWR);
}

bool writeAllBytes(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* toString(ChaosFault fault) noexcept {
  switch (fault) {
    case ChaosFault::kNone:
      return "none";
    case ChaosFault::kConnectReset:
      return "connect-reset";
    case ChaosFault::kAcceptStall:
      return "accept-stall";
    case ChaosFault::kTornWrite:
      return "torn-write";
    case ChaosFault::kTruncateResponse:
      return "truncate-response";
    case ChaosFault::kTrickle:
      return "trickle";
    case ChaosFault::kBlackhole:
      return "blackhole";
  }
  return "none";
}

struct ChaosProxy::Conn {
  std::uint64_t id = 0;
  int clientFd = -1;
  int upstreamFd = -1;
  ChaosDecision decision;
  std::thread requestPump;   // client -> upstream
  std::thread responsePump;  // upstream -> client
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> responseBytes{0};
};

ChaosDecision ChaosProxy::planFor(const ChaosOptions& options,
                                  std::uint64_t connId) {
  sim::Rng rng(sim::Rng::substreamSeed(options.seed, connId));
  const double u = rng.uniform();

  ChaosDecision out;
  out.connId = connId;

  // One draw walks the cumulative probabilities in a fixed order; the
  // fault parameter always comes from the SECOND draw of the substream, so
  // the schedule is stable under any re-weighting of later faults.
  double edge = 0.0;
  const auto hit = [&](double prob) {
    edge += prob;
    return u < edge;
  };
  if (hit(options.resetProb)) {
    out.fault = ChaosFault::kConnectReset;
    out.param = rng.uniformInt(
        static_cast<std::uint64_t>(options.resetAfterMaxBytes) + 1);
  } else if (hit(options.stallProb)) {
    out.fault = ChaosFault::kAcceptStall;
    out.param = static_cast<std::uint64_t>(options.stall.count());
  } else if (hit(options.tornWriteProb)) {
    out.fault = ChaosFault::kTornWrite;
    out.param = 1 + rng.uniformInt(
                        static_cast<std::uint64_t>(options.tornMaxChunk));
  } else if (hit(options.truncateProb)) {
    out.fault = ChaosFault::kTruncateResponse;
    out.param = 1 + rng.uniformInt(
                        static_cast<std::uint64_t>(options.truncateMaxBytes));
  } else if (hit(options.trickleProb)) {
    out.fault = ChaosFault::kTrickle;
    out.param = static_cast<std::uint64_t>(options.trickleBytes);
  } else if (hit(options.blackholeProb)) {
    out.fault = ChaosFault::kBlackhole;
    out.param = static_cast<std::uint64_t>(options.blackholeHold.count());
  } else {
    out.fault = ChaosFault::kNone;
  }
  out.applied = out.fault != ChaosFault::kNone;
  return out;
}

ChaosProxy::ChaosProxy(const std::string& upstreamHost,
                       std::uint16_t upstreamPort, ChaosOptions options)
    : options_(options),
      upstreamHost_(upstreamHost),
      upstreamPort_(upstreamPort) {
  listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error("chaos proxy: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listenFd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("chaos proxy: bind/listen failed: " + reason);
  }
  socklen_t len = sizeof(addr);
  getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  if (acceptThread_.joinable()) return;
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void ChaosProxy::stop() {
  if (stop_.exchange(true)) {
    if (acceptThread_.joinable()) acceptThread_.join();
    return;
  }
  // shutdown() wakes a blocked accept4() without releasing the fd; it is
  // closed only after the accept thread has joined, so that thread never
  // reads a cleared listenFd_ or accepts on a reused fd number.
  if (listenFd_ >= 0) shutdown(listenFd_, SHUT_RDWR);
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listenFd_ >= 0) {
    close(listenFd_);
    listenFd_ = -1;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    if (conn->clientFd >= 0) shutdown(conn->clientFd, SHUT_RDWR);
    if (conn->upstreamFd >= 0) shutdown(conn->upstreamFd, SHUT_RDWR);
  }
  for (const auto& conn : conns) {
    if (conn->requestPump.joinable()) conn->requestPump.join();
    if (conn->responsePump.joinable()) conn->responsePump.join();
    if (conn->clientFd >= 0) close(conn->clientFd);
    if (conn->upstreamFd >= 0) close(conn->upstreamFd);
  }
}

bool ChaosProxy::consumeBudget(ChaosFault fault) {
  if (fault == ChaosFault::kNone) return false;
  int budget = -1;
  switch (fault) {
    case ChaosFault::kConnectReset:
      budget = options_.resetBudget;
      break;
    case ChaosFault::kAcceptStall:
      budget = options_.stallBudget;
      break;
    case ChaosFault::kTornWrite:
      budget = options_.tornWriteBudget;
      break;
    case ChaosFault::kTruncateResponse:
      budget = options_.truncateBudget;
      break;
    case ChaosFault::kTrickle:
      budget = options_.trickleBudget;
      break;
    case ChaosFault::kBlackhole:
      budget = options_.blackholeBudget;
      break;
    case ChaosFault::kNone:
      break;
  }
  auto& used = budgetUsed_[static_cast<std::size_t>(fault)];
  if (budget < 0) {
    used.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Reserve one unit; roll back when over budget.
  const int prior = used.fetch_add(1, std::memory_order_relaxed);
  if (prior >= budget) {
    used.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ChaosProxy::acceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int clientFd = accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (clientFd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by stop()
    }
    const std::uint64_t connId =
        nextConnId_.fetch_add(1, std::memory_order_relaxed);
    ChaosDecision decision = planFor(options_, connId);
    if (decision.applied && !consumeBudget(decision.fault)) {
      decision.applied = false;
    }

    auto conn = std::make_unique<Conn>();
    conn->id = connId;
    conn->clientFd = clientFd;
    conn->decision = decision;

    // Connect upstream. A failure here (server draining/stopped) behaves
    // like a reset from the client's point of view.
    const int upFd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in up{};
    up.sin_family = AF_INET;
    up.sin_port = htons(upstreamPort_);
    inet_pton(AF_INET, upstreamHost_.c_str(), &up.sin_addr);
    if (upFd < 0 ||
        ::connect(upFd, reinterpret_cast<sockaddr*>(&up), sizeof(up)) != 0) {
      if (upFd >= 0) close(upFd);
      resetClose(clientFd);
      conn->clientFd = -1;
      std::lock_guard<std::mutex> lock(mu_);
      decisions_.push_back(decision);
      continue;
    }
    const int one = 1;
    setsockopt(clientFd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setsockopt(upFd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Short receive timeouts let the pump threads poll the stop flag.
    setRecvTimeout(clientFd, std::chrono::milliseconds{50});
    setRecvTimeout(upFd, std::chrono::milliseconds{50});
    conn->upstreamFd = upFd;

    {
      std::lock_guard<std::mutex> lock(mu_);
      decisions_.push_back(decision);
    }
    runConn(*conn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(std::move(conn));
    }
    reapFinished();
  }
}

void ChaosProxy::runConn(Conn& conn) {
  conn.requestPump = std::thread([this, &conn] {
    pump(conn, conn.clientFd, conn.upstreamFd, /*isResponseDirection=*/false);
  });
  conn.responsePump = std::thread([this, &conn] {
    pump(conn, conn.upstreamFd, conn.clientFd, /*isResponseDirection=*/true);
  });
}

void ChaosProxy::pump(Conn& conn, int fromFd, int toFd,
                      bool isResponseDirection) {
  const ChaosFault fault =
      conn.decision.applied ? conn.decision.fault : ChaosFault::kNone;
  const std::uint64_t param = conn.decision.param;

  if (isResponseDirection && fault == ChaosFault::kAcceptStall) {
    // Stall before any response byte is forwarded; the client's request
    // sits in kernel buffers meanwhile, so this injects pure latency.
    std::this_thread::sleep_for(options_.stall);
  }
  if (isResponseDirection && fault == ChaosFault::kConnectReset &&
      param == 0) {
    armReset(toFd);
    shutdown(fromFd, SHUT_RDWR);
    conn.done.store(true, std::memory_order_release);
    return;
  }

  std::uint64_t forwarded = 0;
  char buf[8 * 1024];
  bool peerGone = false;
  while (!stop_.load(std::memory_order_relaxed) && !peerGone &&
         !conn.done.load(std::memory_order_acquire)) {
    const ssize_t n = recv(fromFd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // poll tick
      break;
    }
    if (n == 0) {
      // Orderly EOF from the source: half-close the sink so the peer sees
      // the same framing, then let the other pump drain.
      shutdown(toFd, SHUT_WR);
      break;
    }
    const char* data = buf;
    std::size_t size = static_cast<std::size_t>(n);

    if (isResponseDirection) {
      switch (fault) {
        case ChaosFault::kBlackhole: {
          // Swallow the bytes; after the hold, kill both sides.
          forwarded += size;
          std::this_thread::sleep_for(options_.blackholeHold);
          conn.done.store(true, std::memory_order_release);
          shutdown(toFd, SHUT_RDWR);
          shutdown(fromFd, SHUT_RDWR);
          return;
        }
        case ChaosFault::kConnectReset: {
          const std::uint64_t keep =
              forwarded >= param ? 0 : param - forwarded;
          const std::size_t pass =
              static_cast<std::size_t>(std::min<std::uint64_t>(keep, size));
          if (pass > 0) writeAllBytes(toFd, data, pass);
          forwarded += pass;
          if (forwarded >= param) {
            armReset(toFd);
            shutdown(fromFd, SHUT_RDWR);
            conn.done.store(true, std::memory_order_release);
            return;
          }
          continue;
        }
        case ChaosFault::kTruncateResponse: {
          const std::uint64_t keep =
              forwarded >= param ? 0 : param - forwarded;
          const std::size_t pass =
              static_cast<std::size_t>(std::min<std::uint64_t>(keep, size));
          if (pass > 0) writeAllBytes(toFd, data, pass);
          forwarded += pass;
          if (forwarded >= param) {
            shutdown(toFd, SHUT_RDWR);  // orderly close: torn response
            shutdown(fromFd, SHUT_RDWR);
            conn.done.store(true, std::memory_order_release);
            return;
          }
          continue;
        }
        case ChaosFault::kTrickle: {
          const std::size_t step = param == 0 ? 1
                                              : static_cast<std::size_t>(param);
          std::size_t off = 0;
          while (off < size) {
            const std::size_t chunk = std::min(step, size - off);
            if (!writeAllBytes(toFd, data + off, chunk)) {
              peerGone = true;
              break;
            }
            off += chunk;
            std::this_thread::sleep_for(options_.trickleDelay);
          }
          forwarded += size;
          continue;
        }
        default:
          break;
      }
    }

    // Torn writes apply in both directions (requests exercise the server's
    // torn-read parser, responses the client's) for the first
    // tornBytesCap bytes.
    if (fault == ChaosFault::kTornWrite && forwarded < options_.tornBytesCap) {
      const std::size_t step =
          param == 0 ? 1 : static_cast<std::size_t>(param);
      std::size_t off = 0;
      while (off < size) {
        const std::size_t chunk = std::min(step, size - off);
        if (!writeAllBytes(toFd, data + off, chunk)) {
          peerGone = true;
          break;
        }
        off += chunk;
        std::this_thread::sleep_for(options_.tornDelay);
      }
      forwarded += size;
      continue;
    }

    if (!writeAllBytes(toFd, data, size)) {
      peerGone = true;
      break;
    }
    forwarded += size;
  }
  if (isResponseDirection) {
    conn.responseBytes.store(forwarded, std::memory_order_relaxed);
    conn.done.store(true, std::memory_order_release);
  }
}

void ChaosProxy::reapFinished() {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->clientFd >= 0) shutdown(conn->clientFd, SHUT_RDWR);
    if (conn->upstreamFd >= 0) shutdown(conn->upstreamFd, SHUT_RDWR);
    if (conn->requestPump.joinable()) conn->requestPump.join();
    if (conn->responsePump.joinable()) conn->responsePump.join();
    if (conn->clientFd >= 0) close(conn->clientFd);
    if (conn->upstreamFd >= 0) close(conn->upstreamFd);
  }
}

ChaosProxy::Stats ChaosProxy::stats() const {
  Stats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.connections = decisions_.size();
  for (const ChaosDecision& d : decisions_) {
    if (d.applied && d.fault != ChaosFault::kNone) {
      ++out.faultsInjected;
      ++out.byFault[static_cast<std::size_t>(d.fault)];
    }
  }
  return out;
}

std::vector<ChaosDecision> ChaosProxy::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

}  // namespace stordep::service::resilience
