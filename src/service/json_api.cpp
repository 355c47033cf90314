#include "service/json_api.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace stordep::service {

using config::Json;
using config::JsonArray;
using config::JsonObject;

namespace {

/// Non-finite doubles have no JSON representation; encode them the same way
/// the checkpoint journal does so the values survive a round trip.
[[nodiscard]] Json encodeReal(double value) {
  if (std::isfinite(value)) return Json(value);
  if (std::isnan(value)) return Json("nan");
  return Json(value > 0 ? "inf" : "-inf");
}

[[nodiscard]] Json utilizationToJson(const UtilizationResult& utilization) {
  Json out{JsonObject{}};
  out.set("feasible", Json(utilization.feasible()));
  out.set("overallBwUtil", encodeReal(utilization.overallBwUtil));
  out.set("overallCapUtil", encodeReal(utilization.overallCapUtil));
  out.set("maxBwDevice", Json(utilization.maxBwDevice));
  out.set("maxCapDevice", Json(utilization.maxCapDevice));
  JsonArray devices;
  devices.reserve(utilization.devices.size());
  for (const DeviceUtilization& device : utilization.devices) {
    Json entry{JsonObject{}};
    entry.set("device", Json(device.device));
    entry.set("bwUtil", encodeReal(device.bwUtil));
    entry.set("capUtil", encodeReal(device.capUtil));
    devices.push_back(entry);
  }
  out.set("devices", Json(std::move(devices)));
  JsonArray errors;
  errors.reserve(utilization.errors.size());
  for (const std::string& message : utilization.errors) {
    errors.push_back(Json(message));
  }
  out.set("errors", Json(std::move(errors)));
  return out;
}

[[nodiscard]] Json recoveryToJson(const RecoveryResult& recovery) {
  Json out{JsonObject{}};
  out.set("recoverable", Json(recovery.recoverable));
  out.set("sourceLevel", Json(recovery.sourceLevel));
  out.set("sourceName", Json(recovery.sourceName));
  out.set("dataLossSeconds", encodeReal(recovery.dataLoss.secs()));
  out.set("recoveryTimeSeconds", encodeReal(recovery.recoveryTime.secs()));
  out.set("payloadBytes", encodeReal(recovery.payload.bytes()));
  JsonArray timeline;
  timeline.reserve(recovery.timeline.size());
  for (const RecoveryStep& step : recovery.timeline) {
    Json entry{JsonObject{}};
    entry.set("description", Json(step.description));
    entry.set("startSeconds", encodeReal(step.startTime.secs()));
    entry.set("readySeconds", encodeReal(step.readyTime.secs()));
    entry.set("parFixSeconds", encodeReal(step.parFix.secs()));
    entry.set("transitSeconds", encodeReal(step.transit.secs()));
    entry.set("serFixSeconds", encodeReal(step.serFix.secs()));
    entry.set("serXferSeconds", encodeReal(step.serXfer.secs()));
    entry.set("rateBytesPerSec", encodeReal(step.rate.bytesPerSec()));
    entry.set("payloadBytes", encodeReal(step.payload.bytes()));
    entry.set("from", Json(step.fromDevice));
    entry.set("to", Json(step.toDevice));
    entry.set("via", Json(step.viaDevice));
    timeline.push_back(entry);
  }
  out.set("timeline", Json(std::move(timeline)));
  JsonArray notes;
  notes.reserve(recovery.notes.size());
  for (const std::string& note : recovery.notes) {
    notes.push_back(Json(note));
  }
  out.set("notes", Json(std::move(notes)));
  return out;
}

[[nodiscard]] Json costToJson(const CostResult& cost) {
  Json out{JsonObject{}};
  JsonArray outlays;
  outlays.reserve(cost.outlays.size());
  for (const TechniqueOutlay& outlay : cost.outlays) {
    Json entry{JsonObject{}};
    entry.set("technique", Json(outlay.technique));
    entry.set("deviceOutlayUsd", encodeReal(outlay.deviceOutlay.usd()));
    entry.set("spareOutlayUsd", encodeReal(outlay.spareOutlay.usd()));
    outlays.push_back(entry);
  }
  out.set("outlays", Json(std::move(outlays)));
  out.set("totalOutlaysUsd", encodeReal(cost.totalOutlays.usd()));
  out.set("outagePenaltyUsd", encodeReal(cost.outagePenalty.usd()));
  out.set("lossPenaltyUsd", encodeReal(cost.lossPenalty.usd()));
  out.set("totalPenaltiesUsd", encodeReal(cost.totalPenalties.usd()));
  out.set("totalCostUsd", encodeReal(cost.totalCost.usd()));
  return out;
}

}  // namespace

Json resultToJson(const EvaluationResult& result) {
  Json out{JsonObject{}};
  out.set("utilization", utilizationToJson(result.utilization));
  out.set("recovery", recoveryToJson(result.recovery));
  out.set("cost", costToJson(result.cost));
  JsonArray warnings;
  warnings.reserve(result.warnings.size());
  for (const std::string& warning : result.warnings) {
    warnings.push_back(Json(warning));
  }
  out.set("warnings", Json(std::move(warnings)));
  out.set("meetsObjectives", Json(result.meetsObjectives));
  return out;
}

Json evaluationToJson(const StorageDesign& design,
                      const FailureScenario& scenario,
                      const EvaluationResult& result) {
  Json out{JsonObject{}};
  out.set("design", Json(design.name()));
  out.set("scenario", config::scenarioToJson(scenario));
  out.set("result", resultToJson(result));
  return out;
}

namespace {

[[nodiscard]] Json distributionToJson(const stochastic::Distribution& d) {
  Json out{JsonObject{}};
  out.set("count", Json(static_cast<double>(d.count)));
  out.set("min", encodeReal(d.min));
  out.set("max", encodeReal(d.max));
  out.set("mean", encodeReal(d.mean));
  out.set("ci95", encodeReal(d.ci95));
  out.set("p50", encodeReal(d.p50));
  out.set("p95", encodeReal(d.p95));
  out.set("p99", encodeReal(d.p99));
  return out;
}

}  // namespace

Json stochasticToJson(const stochastic::ScenarioDistribution& dist) {
  Json out{JsonObject{}};
  out.set("trials", Json(dist.trials));
  out.set("unrecoverable", Json(dist.unrecoverable));
  out.set("recoveryTimeSeconds", distributionToJson(dist.rt));
  out.set("dataLossSeconds", distributionToJson(dist.dl));
  out.set("penaltyUsd", distributionToJson(dist.penalty));
  out.set("minPayloadBytes", encodeReal(dist.minPayload.bytes()));
  out.set("meanPayloadBytes", encodeReal(dist.meanPayload.bytes()));
  out.set("maxPayloadBytes", encodeReal(dist.maxPayload.bytes()));
  out.set("analyticWorstRtSeconds", encodeReal(dist.analyticWorstRt.secs()));
  out.set("analyticWorstDlSeconds", encodeReal(dist.analyticWorstDl.secs()));
  out.set("rtBoundHolds", Json(dist.rtBoundHolds));
  out.set("dlBoundHolds", Json(dist.dlBoundHolds));
  out.set("rtTightness", encodeReal(dist.rtTightness));
  out.set("expectedPenaltyUsd", encodeReal(dist.expectedPenalty.usd()));
  out.set("worstCasePenaltyUsd", encodeReal(dist.worstCasePenalty.usd()));
  // Run-varying throughput facts, isolated so the rest of the document
  // stays byte-comparable across runs (offline-vs-served smoke strips it).
  Json perf{JsonObject{}};
  perf.set("trialsPerSec", encodeReal(dist.trialsPerSec));
  perf.set("wallSeconds", encodeReal(dist.wallSeconds));
  perf.set("plan", Json(dist.usedPlan));
  out.set("perf", perf);
  return out;
}

Json stochasticEnvelope(const StorageDesign& design,
                        const FailureScenario& scenario,
                        const StochasticRequest& spec,
                        StochasticRunStats* stats,
                        const engine::CancellationToken& token) {
  try {
    stochastic::StochasticOptions options;
    options.trials = spec.trials;
    options.seed = spec.seed;
    options.threads = 1;
    options.token = token;
    options.reliability = spec.reliability;
    options.usePlan = spec.usePlan;
    const stochastic::StochasticEvaluator evaluator(design, options);
    const engine::Expected<stochastic::ScenarioDistribution> outcome =
        evaluator.distributionFor(scenario);
    if (!outcome.ok()) {
      // The evaluator reports these two codes only for a fired token.
      const engine::EvalErrorCode code = outcome.error().code;
      if (stats != nullptr) {
        stats->cancelled = code == engine::EvalErrorCode::kCancelled ||
                           code == engine::EvalErrorCode::kDeadlineExceeded;
      }
      return evalErrorToJson(outcome.error());
    }
    if (stats != nullptr) {
      stats->trials = outcome.value().trials;
      stats->wallSeconds = outcome.value().wallSeconds;
      stats->usedPlan = outcome.value().usedPlan;
    }
    return stochasticToJson(outcome.value());
  } catch (...) {
    return evalErrorToJson(engine::errorFromCurrentException());
  }
}

Json evalErrorToJson(const engine::EvalError& error) {
  Json detail{JsonObject{}};
  detail.set("code", Json(engine::toString(error.code)));
  detail.set("message", Json(error.message));
  detail.set("transient", Json(error.transient));
  detail.set("attempts", Json(error.attempts));
  Json out{JsonObject{}};
  out.set("error", detail);
  return out;
}

int httpStatusFor(engine::EvalErrorCode code) noexcept {
  switch (code) {
    case engine::EvalErrorCode::kInvalidDesign:
    case engine::EvalErrorCode::kInvalidScenario:
      return 400;
    case engine::EvalErrorCode::kResourceExhausted:
    case engine::EvalErrorCode::kCancelled:
    case engine::EvalErrorCode::kUnavailable:
      return 503;
    case engine::EvalErrorCode::kDeadlineExceeded:
      return 504;
    case engine::EvalErrorCode::kInjected:
    case engine::EvalErrorCode::kInternal:
      return 500;
  }
  return 500;
}

namespace {

/// Trials run inline on the request's task; keep one request from holding
/// a server worker for long.
constexpr int kMaxStochasticTrials = 65'536;

[[nodiscard]] EvaluateItem parseEvaluateItem(const Json& value) {
  if (!value.isObject()) {
    throw config::DesignIoError(
        "evaluate request entries must be objects with "
        "\"design\" and \"scenario\"");
  }
  const Json* design = value.find("design");
  if (design == nullptr) {
    throw config::DesignIoError("evaluate request is missing \"design\"");
  }
  const Json* scenario = value.find("scenario");
  if (scenario == nullptr) {
    throw config::DesignIoError("evaluate request is missing \"scenario\"");
  }
  EvaluateItem item;
  item.design = std::make_shared<const StorageDesign>(
      config::designFromJson(*design));
  item.scenario = config::scenarioFromJson(*scenario);
  if (const Json* stochastic = value.find("stochastic")) {
    if (!stochastic->isObject()) {
      throw config::DesignIoError("\"stochastic\" must be an object");
    }
    const Json* trials = stochastic->find("trials");
    if (trials == nullptr || !trials->isNumber() || trials->asNumber() < 1 ||
        trials->asNumber() > kMaxStochasticTrials) {
      throw config::DesignIoError(
          "\"stochastic.trials\" must be a number in [1, " +
          std::to_string(kMaxStochasticTrials) + "]");
    }
    StochasticRequest spec;
    spec.trials = static_cast<int>(trials->asNumber());
    if (const Json* seed = stochastic->find("seed")) {
      if (!seed->isNumber() || seed->asNumber() < 0) {
        throw config::DesignIoError(
            "\"stochastic.seed\" must be a number >= 0");
      }
      spec.seed = static_cast<std::uint64_t>(seed->asNumber());
    }
    if (const Json* plan = stochastic->find("plan")) {
      if (!plan->isBool()) {
        throw config::DesignIoError("\"stochastic.plan\" must be a boolean");
      }
      spec.usePlan = plan->asBool();
    }
    if (const auto reliability = config::reliabilityFromDesignJson(*design)) {
      spec.reliability = *reliability;
    }
    item.stochastic = spec;
  }
  return item;
}

[[nodiscard]] std::chrono::milliseconds parseDeadline(const Json& value) {
  const Json* deadline = value.find("deadlineMs");
  if (deadline == nullptr) return std::chrono::milliseconds{0};
  if (!deadline->isNumber() || deadline->asNumber() < 0) {
    throw config::DesignIoError("\"deadlineMs\" must be a number >= 0");
  }
  return std::chrono::milliseconds(
      static_cast<long long>(deadline->asNumber()));
}

}  // namespace

EvaluateRequest parseEvaluateRequest(const Json& body) {
  EvaluateRequest request;
  if (body.isArray()) {
    request.array = true;
    const JsonArray& entries = body.asArray();
    if (entries.empty()) {
      throw config::DesignIoError("evaluate request array is empty");
    }
    request.items.reserve(entries.size());
    for (const Json& entry : entries) {
      request.items.push_back(parseEvaluateItem(entry));
      const std::chrono::milliseconds deadline = parseDeadline(entry);
      if (deadline.count() > 0 &&
          (request.deadline.count() == 0 || deadline < request.deadline)) {
        request.deadline = deadline;  // tightest entry wins for the batch
      }
    }
    return request;
  }
  request.items.push_back(parseEvaluateItem(body));
  request.deadline = parseDeadline(body);
  return request;
}

engine::EvalRequest toEngineRequest(const EvaluateItem& item) {
  engine::EvalRequest request;
  request.design = item.design;
  request.scenario = item.scenario;
  return request;
}

}  // namespace stordep::service
