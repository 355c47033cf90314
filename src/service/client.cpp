#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace stordep::service {

namespace {

void applyTimeout(int fd, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

[[nodiscard]] bool errnoIsTimeout(int err) noexcept {
  return err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT;
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port,
               std::chrono::milliseconds timeout)
    : host_(host), port_(port), timeout_(timeout) {
  connect();
}

Client::~Client() { disconnect(); }

Client::Client(Client&& other) noexcept
    : host_(std::move(other.host_)),
      port_(other.port_),
      timeout_(other.timeout_),
      fd_(other.fd_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    disconnect();
    host_ = std::move(other.host_);
    port_ = other.port_;
    timeout_ = other.timeout_;
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::disconnect() noexcept {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

void Client::connect() {
  disconnect();
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw TransportError(TransportError::Stage::kConnect, false, false,
                         "socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    throw TransportError(TransportError::Stage::kConnect, false, false,
                         "bad address: " + host_);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close(fd);
    throw TransportError(TransportError::Stage::kConnect, false,
                         errnoIsTimeout(err),
                         "connect to " + host_ + ":" + std::to_string(port_) +
                             " failed: " + std::strerror(err));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  applyTimeout(fd, timeout_);
  fd_ = fd;
  exchanged_ = false;
}

void Client::sendRequest(const std::string& method, const std::string& target,
                         const std::string& body, const HttpHeaders& headers,
                         bool reused) {
  std::string out;
  out.reserve(128 + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: ";
  out += host_;
  out += "\r\n";
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!body.empty() || method == "POST" || method == "PUT") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;

  std::string_view pending = out;
  while (!pending.empty()) {
    const ssize_t n = send(fd_, pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      disconnect();
      throw TransportError(TransportError::Stage::kSend, reused,
                           errnoIsTimeout(err),
                           "send failed: " +
                               std::string(std::strerror(err)));
    }
    pending.remove_prefix(static_cast<std::size_t>(n));
  }
}

HttpClientResponse Client::readResponse(
    const std::function<void(std::string_view line)>* onLine, bool reused) {
  HttpResponseParser parser;
  std::size_t emitted = 0;   // body bytes already delivered as lines
  std::size_t received = 0;  // total response bytes seen — None vs Torn
  char buf[16 * 1024];
  const auto stageForDeath = [&received] {
    return received == 0 ? TransportError::Stage::kResponseNone
                         : TransportError::Stage::kResponseTorn;
  };
  while (parser.status() == ParseStatus::kNeedMore) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      disconnect();
      throw TransportError(stageForDeath(), reused, errnoIsTimeout(err),
                           "recv failed: " +
                               std::string(std::strerror(err)));
    }
    if (n == 0) {
      disconnect();
      throw TransportError(stageForDeath(), reused, false,
                           received == 0 ? "connection closed before response"
                                         : "connection closed mid-response");
    }
    received += static_cast<std::size_t>(n);
    std::string_view data(buf, static_cast<std::size_t>(n));
    while (!data.empty() && parser.status() == ParseStatus::kNeedMore) {
      data.remove_prefix(parser.feed(data));
    }
    if (onLine != nullptr) {
      // The parser decodes chunks into response().body as they arrive;
      // emit every complete newline-terminated line we have not seen yet.
      const std::string& bodySoFar = parser.response().body;
      std::size_t newline;
      while ((newline = bodySoFar.find('\n', emitted)) != std::string::npos) {
        (*onLine)(std::string_view(bodySoFar).substr(emitted,
                                                     newline - emitted));
        emitted = newline + 1;
      }
    }
  }
  if (parser.status() == ParseStatus::kError) {
    disconnect();
    throw TransportError(TransportError::Stage::kMalformed, reused, false,
                         "malformed response: " + parser.error().message);
  }
  HttpClientResponse response = std::move(parser.response());
  exchanged_ = true;
  if (!response.keepAlive()) disconnect();
  return response;
}

HttpClientResponse Client::request(const std::string& method,
                                   const std::string& target,
                                   const std::string& body,
                                   const HttpHeaders& headers,
                                   bool idempotent) {
  const bool reused = fd_ >= 0 && exchanged_;
  if (fd_ < 0) connect();
  try {
    sendRequest(method, target, body, headers, reused);
    return readResponse(nullptr, reused);
  } catch (const TransportError& e) {
    if (!e.safeToRetry(idempotent)) throw;
    // One retry on a fresh connection; a second failure propagates.
    connect();
    sendRequest(method, target, body, headers, /*reused=*/false);
    return readResponse(nullptr, /*reused=*/false);
  }
}

HttpClientResponse Client::postStreaming(
    const std::string& target, const std::string& body,
    const std::function<void(std::string_view line)>& onLine) {
  const bool reused = fd_ >= 0 && exchanged_;
  if (fd_ < 0) connect();
  sendRequest("POST", target, body, {}, reused);
  return readResponse(&onLine, reused);
}

}  // namespace stordep::service
