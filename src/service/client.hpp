// client.hpp — a minimal blocking HTTP client for the evaluation service.
//
// Covers exactly what the tests, the fuzz harness and the load generator
// need: connect to a host:port, send one request at a time over a
// keep-alive connection, and parse the response (fixed or chunked bodies)
// with the same HttpResponseParser the torn-read tests exercise. Chunked
// NDJSON streams (POST /v1/search) can be consumed line-by-line through
// an onLine callback as chunks arrive.
//
// Failure model: transport faults surface as TransportError, which records
// *where* the round trip died (connect / send / response) plus whether the
// connection was a reused keep-alive one and whether a receive timeout
// fired. That classification is what makes retries safe to reason about:
//   * kConnect / kSend   — the server cannot have seen a complete request
//                          (TCP delivers a prefix only), so a retry can
//                          never double-apply it.
//   * kResponseNone      — the request was fully sent but not a single
//                          response byte arrived. On a reused keep-alive
//                          connection this is overwhelmingly the stale-
//                          keep-alive race (server closed between requests)
//                          and is retried; on a fresh connection the server
//                          may have processed the request and died before
//                          responding, so it is only retried when the
//                          caller marked the request idempotent.
//   * kResponseTorn      — response bytes arrived and then the connection
//                          died: the server definitely executed the
//                          request. Retried only when idempotent.
//   * kMalformed         — the server spoke garbage; never retried here
//                          (a protocol bug is not transient).
// request() performs at most ONE such safe retry on a fresh connection;
// anything beyond that single hop (backoff, jitter, circuit breaking,
// hedging) lives in resilience::ResilientClient.
//
// Not a general HTTP client: no TLS, no redirects, no proxies, blocking
// I/O only. One Client per thread; it is not synchronized.
#pragma once

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>

#include "service/http.hpp"

namespace stordep::service {

/// A classified transport-layer failure (see the file comment for the
/// retry-safety semantics of each stage).
class TransportError : public std::runtime_error {
 public:
  enum class Stage {
    kConnect,       ///< could not establish the TCP connection
    kSend,          ///< the request was not fully handed to the kernel
    kResponseNone,  ///< request sent, zero response bytes received
    kResponseTorn,  ///< response started, then the connection died
    kMalformed,     ///< the response violated HTTP framing
  };

  TransportError(Stage stage, bool reusedConnection, bool timedOut,
                 const std::string& what)
      : std::runtime_error(what),
        stage_(stage),
        reusedConnection_(reusedConnection),
        timedOut_(timedOut) {}

  [[nodiscard]] Stage stage() const noexcept { return stage_; }
  /// True when the failed attempt ran over a reused keep-alive connection
  /// (the stale-keep-alive race makes kResponseNone retry-safe there).
  [[nodiscard]] bool reusedConnection() const noexcept {
    return reusedConnection_;
  }
  [[nodiscard]] bool timedOut() const noexcept { return timedOut_; }

  /// Whether retrying this failure cannot double-apply the request.
  [[nodiscard]] bool safeToRetry(bool idempotent) const noexcept {
    switch (stage_) {
      case Stage::kConnect:
      case Stage::kSend:
        return true;
      case Stage::kResponseNone:
        return reusedConnection_ || idempotent;
      case Stage::kResponseTorn:
        return idempotent;
      case Stage::kMalformed:
        return false;
    }
    return false;
  }

  [[nodiscard]] const char* stageName() const noexcept {
    switch (stage_) {
      case Stage::kConnect:
        return "connect";
      case Stage::kSend:
        return "send";
      case Stage::kResponseNone:
        return "response-none";
      case Stage::kResponseTorn:
        return "response-torn";
      case Stage::kMalformed:
        return "malformed";
    }
    return "unknown";
  }

 private:
  Stage stage_;
  bool reusedConnection_;
  bool timedOut_;
};

class Client {
 public:
  /// Connects immediately; throws TransportError (stage kConnect) when the
  /// server is unreachable. `timeout` bounds each send and receive on the
  /// established connection (0 = none).
  Client(const std::string& host, std::uint16_t port,
         std::chrono::milliseconds timeout = std::chrono::milliseconds{30'000});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// One request/response round trip. Performs at most one retry on a
  /// fresh connection, and only when TransportError::safeToRetry says the
  /// first failure cannot have been applied server-side (`idempotent`
  /// widens that set: response-lost failures become retryable). Throws
  /// TransportError otherwise.
  HttpClientResponse request(const std::string& method,
                             const std::string& target,
                             const std::string& body = "",
                             const HttpHeaders& headers = {},
                             bool idempotent = true);

  [[nodiscard]] HttpClientResponse get(const std::string& target) {
    return request("GET", target);
  }
  [[nodiscard]] HttpClientResponse post(const std::string& target,
                                        const std::string& body,
                                        const HttpHeaders& headers = {},
                                        bool idempotent = true) {
    return request("POST", target, body, headers, idempotent);
  }

  /// POSTs and feeds each newline-terminated line of the (chunked) response
  /// body to `onLine` as it arrives — how a caller watches /v1/search
  /// progress live. The full body is also returned. Never retries: a
  /// mid-stream failure must be resumed from a checkpoint by the caller
  /// (resilience::ResilientClient does this), not blindly replayed.
  HttpClientResponse postStreaming(
      const std::string& target, const std::string& body,
      const std::function<void(std::string_view line)>& onLine);

  /// Closes the connection; the next request() reconnects.
  void disconnect() noexcept;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

 private:
  void connect();
  void sendRequest(const std::string& method, const std::string& target,
                   const std::string& body, const HttpHeaders& headers,
                   bool reused);
  HttpClientResponse readResponse(
      const std::function<void(std::string_view line)>* onLine, bool reused);

  std::string host_;
  std::uint16_t port_ = 0;
  std::chrono::milliseconds timeout_{0};
  int fd_ = -1;
  /// Whether a full exchange has completed on the current connection. Only
  /// then is a dead connection the stale-keep-alive race; the constructor's
  /// eager connect must not make the first request look "reused".
  bool exchanged_ = false;
};

}  // namespace stordep::service
