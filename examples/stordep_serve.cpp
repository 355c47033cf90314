// stordep_serve — the evaluation service daemon.
//
// Runs the embedded HTTP server (src/service/) over one shared engine and
// parks until SIGTERM/SIGINT, then drains in-flight requests and exits 0.
//
//   $ ./stordep_serve                       # 127.0.0.1, ephemeral port
//   $ ./stordep_serve --port 8080
//   $ ./stordep_serve --host 0.0.0.0 --port 8080 --threads 8
//
//   $ curl localhost:8080/healthz
//   $ curl -d @request.json localhost:8080/v1/evaluate
//   $ curl localhost:8080/metrics
//
// Options:
//   --host ADDR        listen address (default 127.0.0.1)
//   --port N           listen port (default 0 = ephemeral, printed on start)
//   --threads N        engine worker threads (default 0 = hardware-sized)
//   --max-queue N      bound on admitted, unanswered evaluate slots
//   --deadline-ms N    cap on per-request deadlines
//   --drain-ms N       shutdown grace period for in-flight work
//   --no-brownout      disable tiered load shedding under overload
//   --brownout-enter R admitted slots / max-queue that counts as a hot tick
//   --brownout-exit R  slot pressure at or below which the server recovers
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "service/server.hpp"

namespace {

// Signal handlers may only touch async-signal-safe state; requestShutdown()
// is designed for exactly this (atomic flag + pipe write).
stordep::service::Server* g_server = nullptr;

void onSignal(int) {
  if (g_server != nullptr) g_server->requestShutdown();
}

long long parseIntArg(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    std::cerr << "stordep_serve: " << flag << " needs a value\n";
    std::exit(2);
  }
  try {
    return std::stoll(argv[++i]);
  } catch (const std::exception&) {
    std::cerr << "stordep_serve: bad value for " << flag << ": " << argv[i]
              << "\n";
    std::exit(2);
  }
}

double parseDoubleArg(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    std::cerr << "stordep_serve: " << flag << " needs a value\n";
    std::exit(2);
  }
  try {
    return std::stod(argv[++i]);
  } catch (const std::exception&) {
    std::cerr << "stordep_serve: bad value for " << flag << ": " << argv[i]
              << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stordep::service;

  ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host") {
      if (i + 1 >= argc) {
        std::cerr << "stordep_serve: --host needs a value\n";
        return 2;
      }
      options.host = argv[++i];
    } else if (arg == "--port") {
      options.port =
          static_cast<std::uint16_t>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--threads") {
      options.engineThreads =
          static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--max-queue") {
      options.maxQueueSlots =
          static_cast<std::size_t>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--deadline-ms") {
      options.maxDeadline =
          std::chrono::milliseconds(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--drain-ms") {
      options.drainTimeout =
          std::chrono::milliseconds(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--no-brownout") {
      options.brownoutEnabled = false;
    } else if (arg == "--brownout-enter") {
      options.brownout.enterPressure = parseDoubleArg(argc, argv, i, arg);
    } else if (arg == "--brownout-exit") {
      options.brownout.exitPressure = parseDoubleArg(argc, argv, i, arg);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: stordep_serve [--host ADDR] [--port N]"
                   " [--threads N] [--max-queue N]"
                   " [--deadline-ms N] [--drain-ms N] [--no-brownout]"
                   " [--brownout-enter R] [--brownout-exit R]\n";
      return 0;
    } else {
      std::cerr << "stordep_serve: unknown option " << arg << "\n";
      return 2;
    }
  }

  stordep::service::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "stordep_serve: " << e.what() << "\n";
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "stordep_serve: listening on " << options.host << ":"
            << server.port() << " (" << server.engine().threads()
            << " engine threads)" << std::endl;

  server.wait();  // parks until a signal triggers the drain

  std::cout << "stordep_serve: drained, exiting" << std::endl;
  return 0;
}
