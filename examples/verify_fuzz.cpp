// verify_fuzz — property-based fuzzing driver for the dependability models.
//
// Runs seeded generative cases through every metamorphic relation and the
// differential oracles (src/verify), shrinks any failure to a minimal
// counterexample, and prints replay instructions. Exit status 1 when any
// check failed — CI runs this nightly under ASan/UBSan.
//
// Usage:
//   verify_fuzz [--seed N] [--cases N] [--no-minimize] [--max-failures N]
//               [--sim-every N] [--stochastic-every N]
//               [--stochastic-plan-every N] [--search-every N]
//               [--plan-every N] [--io-every N] [--replay INDEX] [--out FILE]
//               [--list-relations] [--server N]
//
// --server N switches to the service oracle: N gen-seeded evaluate payloads
// round-trip through a loopback HTTP server (POST /v1/evaluate) and each
// response must be byte-identical to the in-process engine evaluating the
// same round-tripped design — the served path may not change a single bit.
//
// Replaying a failure: a report names (seed, index); re-run just that case
// with `verify_fuzz --seed N --replay INDEX`.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "config/design_io.hpp"
#include "engine/batch.hpp"
#include "service/client.hpp"
#include "service/json_api.hpp"
#include "service/server.hpp"
#include "verify/gen.hpp"
#include "verify/harness.hpp"

namespace {

void usage() {
  std::cout
      << "usage: verify_fuzz [options]\n"
         "  --seed N          run seed (default 42)\n"
         "  --cases N         number of generated cases (default 1000)\n"
         "  --replay INDEX    re-run a single case of this seed, all oracles\n"
         "  --no-minimize     skip shrinking failures\n"
         "  --minimize        shrink failures to minimal cases (default)\n"
         "  --max-failures N  stop after N failures (default 5, 0 = all)\n"
         "  --sim-every N     simulation oracle cadence (default 20, 0 = off)\n"
         "  --stochastic-every N\n"
         "                    stochastic-bound oracle cadence (default 25)\n"
         "  --stochastic-plan-every N\n"
         "                    stochastic-plan oracle cadence (compiled\n"
         "                    TrialPlan vs legacy trial loop, default 25)\n"
         "  --search-every N  search-parity oracle cadence (default 200)\n"
         "  --plan-every N    plan-vs-legacy oracle cadence (default 1)\n"
         "  --io-every N      round-trip/mutation oracle cadence (default 1)\n"
         "  --out FILE        write the JSON report to FILE\n"
         "  --list-relations  print every metamorphic relation and exit\n"
         "  --server N        round-trip N payloads through a loopback\n"
         "                    evaluation server instead (byte-exact oracle)\n";
}

long long parseIntArg(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    std::cerr << "verify_fuzz: " << flag << " needs a value\n";
    std::exit(2);
  }
  try {
    return std::stoll(argv[++i]);
  } catch (const std::exception&) {
    std::cerr << "verify_fuzz: bad value for " << flag << ": " << argv[i]
              << "\n";
    std::exit(2);
  }
}

/// The service oracle: round-trips `cases` gen-seeded evaluate payloads
/// through a loopback server and demands byte-identical agreement with the
/// in-process engine. Both sides evaluate the *round-tripped* design
/// (designFromJson(designToJson(d))) — exactly what the server parses — so
/// any mismatch is the service layer's fault, not serialization drift.
int runServerFuzz(std::uint64_t seed, int cases) {
  using namespace stordep;

  service::ServerOptions serverOptions;
  serverOptions.engineThreads = 2;
  service::Server server(serverOptions);
  server.start();

  engine::Engine reference(engine::EngineOptions{.threads = 1});
  service::Client client("127.0.0.1", server.port());

  int failures = 0;
  for (int index = 0; index < cases; ++index) {
    const verify::CaseSpec spec =
        verify::caseForSeed(seed, static_cast<std::uint64_t>(index));
    const StorageDesign design = verify::makeDesign(spec);
    const FailureScenario scenario = verify::makeScenario(spec);

    config::Json payload{config::JsonObject{}};
    payload.set("design", config::designToJson(design));
    payload.set("scenario", config::scenarioToJson(scenario));
    const service::HttpClientResponse response = client.post(
        "/v1/evaluate", payload.dump(),
        {{"Content-Type", "application/json"}});

    const StorageDesign parsed =
        config::designFromJson(config::designToJson(design));
    const engine::EvalOutcome outcome =
        reference.tryEvaluate(parsed, scenario);
    std::string expectedBody;
    int expectedStatus = 0;
    if (outcome.ok()) {
      expectedStatus = 200;
      expectedBody =
          service::evaluationToJson(parsed, scenario, outcome.value()).dump();
    } else {
      expectedStatus = service::httpStatusFor(outcome.error().code);
      expectedBody = service::evalErrorToJson(outcome.error()).dump();
    }

    if (response.status != expectedStatus || response.body != expectedBody) {
      ++failures;
      std::cout << "FAIL service-round-trip (case " << index << ")\n"
                << "  expected " << expectedStatus << ": " << expectedBody
                << "\n  got      " << response.status << ": " << response.body
                << "\n  replay: verify_fuzz --seed " << seed << " --server "
                << (index + 1) << "\n  case: "
                << verify::describeCase(spec) << "\n";
    }
  }

  server.shutdown();
  std::cout << "seed " << seed << ": " << cases
            << " evaluate payloads round-tripped through the loopback "
               "server, "
            << failures << " mismatch(es)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stordep;

  verify::FuzzOptions options;
  std::optional<std::uint64_t> replayIndex;
  std::string outPath;
  int serverCases = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(
          parseIntArg(argc, argv, i, arg));
    } else if (arg == "--cases") {
      options.cases = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--replay") {
      replayIndex = static_cast<std::uint64_t>(
          parseIntArg(argc, argv, i, arg));
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--minimize") {
      options.minimize = true;
    } else if (arg == "--max-failures") {
      options.maxFailures = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--sim-every") {
      options.simEvery = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--stochastic-every") {
      options.stochasticEvery =
          static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--stochastic-plan-every") {
      options.stochasticPlanEvery =
          static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--search-every") {
      options.searchEvery = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--plan-every") {
      options.planEvery = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--io-every") {
      options.ioEvery = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--server") {
      serverCases = static_cast<int>(parseIntArg(argc, argv, i, arg));
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::cerr << "verify_fuzz: --out needs a value\n";
        return 2;
      }
      outPath = argv[++i];
    } else if (arg == "--list-relations") {
      for (const verify::RelationInfo& info : verify::listRelations()) {
        std::cout << info.name << "  [" << info.citation << "]\n    "
                  << info.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "verify_fuzz: unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (serverCases > 0) return runServerFuzz(options.seed, serverCases);

  const verify::FuzzReport report =
      replayIndex ? verify::replayCase(options.seed, *replayIndex, options)
                  : verify::runFuzz(options);

  std::cout << "seed " << report.seed << ": " << report.cases << " cases, "
            << report.relationChecks << " relation checks ("
            << report.relationSkips << " n/a), " << report.oracleChecks
            << " oracle checks (" << report.oracleSkips << " n/a)\n";

  for (const verify::FuzzFailure& failure : report.failures) {
    std::cout << "\nFAIL " << failure.check << " (case " << failure.index
              << ")\n  " << failure.detail << "\n  replay: verify_fuzz --seed "
              << failure.seed << " --replay " << failure.index
              << "\n  original: " << verify::describeCase(failure.original)
              << "\n  shrunk (" << failure.shrunkParams
              << " params off default): "
              << verify::describeCase(failure.shrunk) << "\n";
  }

  if (!outPath.empty()) {
    std::ofstream out(outPath);
    if (!out) {
      std::cerr << "verify_fuzz: cannot write " << outPath << "\n";
      return 2;
    }
    out << verify::reportToJson(report).pretty() << "\n";
  }

  if (report.allPassed()) {
    std::cout << "all checks passed\n";
    return 0;
  }
  std::cout << "\n" << report.failures.size() << " failing check(s)"
            << (report.stoppedEarly ? " (stopped early)" : "") << "\n";
  return 1;
}
