#include "optimizer/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "config/design_io.hpp"

namespace stordep::optimizer {

namespace {

using config::Json;
using config::JsonObject;

constexpr const char* kFormat = "stordep-checkpoint-v1";

/// JSON cannot carry non-finite numbers (the writer would emit null), so
/// infinite recovery times are string-encoded and decoded symmetrically.
Json encodeReal(double v) {
  if (std::isfinite(v)) return Json(v);
  if (std::isnan(v)) return Json("nan");
  return Json(v > 0 ? "inf" : "-inf");
}

double decodeReal(const Json& value) {
  if (value.isNumber()) return value.asNumber();
  if (value.isString()) {
    const std::string& s = value.asString();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  throw config::DesignIoError("checkpoint: malformed real value");
}

std::string headerLine(const std::string& contextHex) {
  Json header{JsonObject{}};
  header.set("format", Json(kFormat));
  header.set("context", Json(contextHex));
  return header.dump();
}

std::string recordLine(const engine::Fingerprint& key,
                       const EvaluatedCandidate& candidate) {
  Json record{JsonObject{}};
  record.set("key", Json(key.toHex()));
  record.set("result", evaluatedCandidateToJson(candidate));
  return record.dump();
}

}  // namespace

Json candidateSpecToJson(const CandidateSpec& spec) {
  Json out{JsonObject{}};
  out.set("pit", Json(toString(spec.pit)));
  out.set("pitAccW", encodeReal(spec.pitAccW.secs()));
  out.set("pitRetentionCount", Json(spec.pitRetentionCount));
  out.set("backup", Json(toString(spec.backup)));
  out.set("backupAccW", encodeReal(spec.backupAccW.secs()));
  out.set("vault", Json(spec.vault));
  out.set("vaultAccW", encodeReal(spec.vaultAccW.secs()));
  out.set("mirror", Json(toString(spec.mirror)));
  out.set("mirrorLinkCount", Json(spec.mirrorLinkCount));
  return out;
}

engine::Fingerprint fingerprintCandidate(const CandidateSpec& spec) {
  return engine::fingerprintBytes(candidateSpecToJson(spec).dump());
}

engine::Fingerprint fingerprintSearchContext(
    const WorkloadSpec& workload, const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios) {
  Json businessJson{JsonObject{}};
  businessJson.set("unavailPenRate",
                   encodeReal(business.unavailabilityPenaltyRate.usdPerSec()));
  businessJson.set("lossPenRate",
                   encodeReal(business.lossPenaltyRate.usdPerSec()));
  businessJson.set("rto",
                   business.rto ? encodeReal(business.rto->secs()) : Json());
  businessJson.set("rpo",
                   business.rpo ? encodeReal(business.rpo->secs()) : Json());

  config::JsonArray scenarioArray;
  scenarioArray.reserve(scenarios.size());
  for (const ScenarioCase& sc : scenarios) {
    Json entry{JsonObject{}};
    entry.set("name", Json(sc.name));
    entry.set("weight", encodeReal(sc.weight));
    entry.set("scenario", config::scenarioToJson(sc.scenario));
    scenarioArray.push_back(std::move(entry));
  }

  Json context{JsonObject{}};
  context.set("workload", config::workloadToJson(workload));
  context.set("business", std::move(businessJson));
  context.set("scenarios", Json(std::move(scenarioArray)));
  return engine::fingerprintBytes(context.dump());
}

Json evaluatedCandidateToJson(const EvaluatedCandidate& candidate) {
  Json out{JsonObject{}};
  out.set("label", Json(candidate.label));
  out.set("feasible", Json(candidate.feasible));
  out.set("meetsObjectives", Json(candidate.meetsObjectives));
  out.set("outlays", encodeReal(candidate.outlays.usd()));
  out.set("weightedPenalties", encodeReal(candidate.weightedPenalties.usd()));
  out.set("totalCost", encodeReal(candidate.totalCost.usd()));
  out.set("worstRecoveryTime", encodeReal(candidate.worstRecoveryTime.secs()));
  out.set("worstDataLoss", encodeReal(candidate.worstDataLoss.secs()));
  out.set("rejectionReason", Json(candidate.rejectionReason));
  return out;
}

EvaluatedCandidate evaluatedCandidateFromJson(const Json& value) {
  EvaluatedCandidate out;
  out.label = value.at("label").asString();
  out.feasible = value.at("feasible").asBool();
  out.meetsObjectives = value.at("meetsObjectives").asBool();
  out.outlays = Money{decodeReal(value.at("outlays"))};
  out.weightedPenalties = Money{decodeReal(value.at("weightedPenalties"))};
  out.totalCost = Money{decodeReal(value.at("totalCost"))};
  out.worstRecoveryTime = Duration{decodeReal(value.at("worstRecoveryTime"))};
  out.worstDataLoss = Duration{decodeReal(value.at("worstDataLoss"))};
  out.rejectionReason = value.at("rejectionReason").asString();
  return out;
}

CheckpointJournal::CheckpointJournal(std::string path,
                                     const engine::Fingerprint& context,
                                     std::size_t flushEvery)
    : path_(std::move(path)),
      flushEvery_(std::max<std::size_t>(1, flushEvery)) {
  const std::string contextHex = context.toHex();

  {
    std::ifstream in(path_);
    if (in) {
      std::string line;
      bool headerOk = false;
      bool first = true;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (first) {
          first = false;
          std::optional<Json> header;
          try {
            header = Json::parse(line);
          } catch (const std::exception&) {
            // Not JSON: refused below like any other non-journal.
          }
          const Json* format = header ? header->find("format") : nullptr;
          if (format == nullptr || !format->isString() ||
              format->asString() != kFormat) {
            // Some other file: a mistyped path must not destroy it.
            throw config::DesignIoError(
                "not a checkpoint journal, refusing to overwrite: " + path_);
          }
          const Json* ctx = header->find("context");
          headerOk = ctx != nullptr && ctx->isString() &&
                     ctx->asString() == contextHex;
          if (!headerOk) break;  // another sweep's journal: start afresh
          continue;
        }
        try {
          const Json record = Json::parse(line);
          const Json* keyField = record.find("key");
          const Json* resultField = record.find("result");
          if (keyField == nullptr || !keyField->isString() ||
              resultField == nullptr) {
            continue;
          }
          const std::optional<engine::Fingerprint> key =
              engine::Fingerprint::fromHex(keyField->asString());
          if (!key) continue;
          records_.emplace(*key, evaluatedCandidateFromJson(*resultField));
        } catch (const std::exception&) {
          // Truncated or corrupt tail — the crash case: the process died
          // mid-append. Everything before this line is trusted.
          break;
        }
      }
      if (!headerOk) records_.clear();
    }
  }
  resumed_ = records_.size();

  // Compact: header + trusted records to a temp file, renamed into place,
  // so appends never land after a partial line.
  const std::string temp = path_ + ".tmp";
  {
    std::ofstream rewrite(temp, std::ios::trunc);
    if (!rewrite) {
      throw config::DesignIoError("cannot write checkpoint file: " + temp);
    }
    rewrite << headerLine(contextHex) << '\n';
    for (const auto& [key, candidate] : records_) {
      rewrite << recordLine(key, candidate) << '\n';
    }
    rewrite.flush();
    if (!rewrite) {
      throw config::DesignIoError("cannot write checkpoint file: " + temp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path_, ec);
  if (ec) {
    throw config::DesignIoError("cannot replace checkpoint file: " + path_ +
                                ": " + ec.message());
  }

  out_.open(path_, std::ios::app);
  if (!out_) {
    throw config::DesignIoError("cannot append to checkpoint file: " + path_);
  }
}

CheckpointJournal::~CheckpointJournal() { flush(); }

const EvaluatedCandidate* CheckpointJournal::find(
    const engine::Fingerprint& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(key);
  // Node-based map: the value's address is stable across later inserts.
  return it == records_.end() ? nullptr : &it->second;
}

void CheckpointJournal::record(const engine::Fingerprint& key,
                               const EvaluatedCandidate& candidate) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = records_.emplace(key, candidate);
  if (!inserted) return;  // already journaled (first record wins)
  appendLocked(key, it->second);
}

void CheckpointJournal::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  out_.flush();
  sinceFlush_ = 0;
}

std::size_t CheckpointJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void CheckpointJournal::appendLocked(const engine::Fingerprint& key,
                                     const EvaluatedCandidate& candidate) {
  out_ << recordLine(key, candidate) << '\n';
  if (++sinceFlush_ >= flushEvery_) {
    out_.flush();
    sinceFlush_ = 0;
  }
}

}  // namespace stordep::optimizer
