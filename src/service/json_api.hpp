// json_api.hpp — JSON request/response adapters for the evaluation service.
//
// The wire format reuses the design-document schema (config/design_io): an
// evaluate request carries a full design document plus a failure scenario,
// exactly as `stordep_eval` reads them from disk, so any design file in
// designs/ can be POSTed as-is. Responses serialize the complete
// EvaluationResult — utilization, recovery timeline, cost attribution,
// warnings — with the same non-finite encoding the checkpoint journal uses
// ("inf"/"-inf"/"nan" as strings, because JSON has no such numbers), so an
// offline `stordep_eval --json` run and a served response are comparable
// bit-for-bit (CI asserts exactly that).
//
// Errors are values end-to-end: the engine's EvalError taxonomy maps onto
// HTTP statuses here (invalid-design/-scenario → 400, resource-exhausted →
// 503, cancelled → 503, deadline-exceeded → 504, injected/internal → 500)
// and every error response body is {"error": {code, message, transient,
// attempts}} with the taxonomy's stable lowercase code names.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "config/design_io.hpp"
#include "core/evaluator.hpp"
#include "core/reliability.hpp"
#include "engine/batch.hpp"
#include "engine/errors.hpp"
#include "stochastic/evaluator.hpp"

namespace stordep::service {

// ---- Result serialization --------------------------------------------------

/// Full EvaluationResult document (utilization, recovery timeline, costs,
/// warnings, meetsObjectives). Non-finite quantities are string-encoded.
[[nodiscard]] config::Json resultToJson(const EvaluationResult& result);

/// The single-evaluation response envelope:
///   {"design": "<name>", "scenario": {...}, "result": {...}}
/// `stordep_eval --json` prints exactly this document, compactly dumped.
[[nodiscard]] config::Json evaluationToJson(const StorageDesign& design,
                                            const FailureScenario& scenario,
                                            const EvaluationResult& result);

// ---- Monte-Carlo add-on ----------------------------------------------------

/// A request for the Monte-Carlo layer riding along with an evaluation:
/// {"stochastic": {"trials": N[, "seed": S]}} in the request body, plus the
/// design document's optional "reliability" block. trials == 0 means "not
/// requested".
struct StochasticRequest {
  int trials = 0;
  std::uint64_t seed = 1;
  ReliabilitySpec reliability;
  /// Route trials through the compiled TrialPlan (bit-identical results;
  /// legacy loop on false — `stordep_eval --no-stochastic-plan`).
  bool usePlan = true;
};

/// Throughput facts from one stochastic run, reported to ServiceMetrics so
/// served Monte-Carlo load shows up in /metrics interval stats.
struct StochasticRunStats {
  int trials = 0;
  double wallSeconds = 0.0;
  bool usedPlan = false;
  /// The token stopped the run; the envelope is its cancellation error.
  bool cancelled = false;
};

/// Serialized ScenarioDistribution (distribution summaries use the same
/// non-finite string encoding as the rest of the envelope). The run-varying
/// throughput fields live under a "perf" subobject so the deterministic
/// remainder of the document stays byte-comparable across runs.
[[nodiscard]] config::Json stochasticToJson(
    const stochastic::ScenarioDistribution& dist);

/// Runs the Monte-Carlo layer for one (design, scenario) and returns the
/// value of the response's "stochastic" key: the serialized distribution on
/// success, {"error": {...}} on failure. Shared by the server and
/// `stordep_eval --json --stochastic` so offline and served documents stay
/// bit-identical (modulo the "perf" subobject). Trials run on the calling
/// thread and stop at `token` (the server passes the request's deadline).
/// `stats`, when non-null, is filled on success for the server's /metrics
/// accounting, and flags a run the token cut short.
[[nodiscard]] config::Json stochasticEnvelope(
    const StorageDesign& design, const FailureScenario& scenario,
    const StochasticRequest& spec, StochasticRunStats* stats = nullptr,
    const engine::CancellationToken& token = {});

// ---- Error mapping ---------------------------------------------------------

/// {"error": {"code": "<taxonomy name>", "message", "transient",
/// "attempts"}}.
[[nodiscard]] config::Json evalErrorToJson(const engine::EvalError& error);

/// EvalError taxonomy → HTTP status.
[[nodiscard]] int httpStatusFor(engine::EvalErrorCode code) noexcept;

// ---- Request parsing -------------------------------------------------------

/// One design+scenario pair from a request body. Designs are shared_ptr so
/// handing the pairs to the engine (and to the request's pool task) never
/// copies the materialized design.
struct EvaluateItem {
  std::shared_ptr<const StorageDesign> design;
  FailureScenario scenario;
  /// Set when the entry carried {"stochastic": {"trials": N, ...}}; the
  /// reliability inside comes from the design document's optional
  /// "reliability" block.
  std::optional<StochasticRequest> stochastic;
};

struct EvaluateRequest {
  std::vector<EvaluateItem> items;
  /// True when the body was an array (the response mirrors the shape).
  bool array = false;
  /// Optional per-request deadline from the body ("deadlineMs") — the
  /// X-Deadline-Ms header, parsed by the server, takes precedence.
  std::chrono::milliseconds deadline{0};
};

/// Parses {"design": {...}, "scenario": {...}[, "deadlineMs": N]} or an
/// array of such objects. Throws config::DesignIoError / config::JsonError /
/// std::runtime_error with a caller-facing message on malformed input.
[[nodiscard]] EvaluateRequest parseEvaluateRequest(const config::Json& body);

[[nodiscard]] engine::EvalRequest toEngineRequest(const EvaluateItem& item);

}  // namespace stordep::service
