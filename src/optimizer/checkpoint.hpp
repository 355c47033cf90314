// checkpoint.hpp — crash-safe journaling of design-space search progress.
//
// A long sweep (thousands of candidates, expensive scenario sets, possibly
// wall-clock deadlines) should not lose its work to a crash, a kill -9 or a
// deliberate cancellation. CheckpointJournal gives searchDesignSpace an
// append-only JSONL file of completed candidate evaluations:
//
//   line 1:  {"format": "stordep-checkpoint-v1", "context": "<32 hex>"}
//   line 2+: {"key": "<32 hex>", "result": { ...EvaluatedCandidate... }}
//
// `context` fingerprints the search inputs (workload, business requirements,
// scenario set with weights) so a journal is only ever resumed against the
// sweep that wrote it; `key` is the canonical fingerprint of one
// CandidateSpec. On open, an existing journal with a matching context is
// loaded — a truncated final line (the crash case: the process died
// mid-append) is tolerated and dropped — and the file is compacted via
// write-temp-then-rename so new appends never land after a partial record.
// Another sweep's journal is discarded and the file restarted; a file that
// is not a journal at all is refused and left as it is.
//
// Numbers round-trip exactly: finite doubles survive the JSON layer's
// shortest-exact formatting bit-for-bit, and non-finite values (infinite
// recovery times) are encoded as the strings "inf"/"-inf"/"nan" because
// JSON itself cannot carry them. A resumed search therefore reproduces the
// exact ranking of an uninterrupted run.
//
// Only error-free evaluations are journaled: a candidate that failed with a
// transient fault is re-attempted on resume rather than pinned to its error.
#pragma once

#include <cstddef>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>

#include "config/json.hpp"
#include "engine/fingerprint.hpp"
#include "optimizer/search.hpp"

namespace stordep::optimizer {

/// Canonical JSON for a candidate spec (enum names, windows in seconds);
/// the basis of its checkpoint key.
[[nodiscard]] config::Json candidateSpecToJson(const CandidateSpec& spec);

/// Checkpoint key: fingerprint of the candidate's canonical JSON.
[[nodiscard]] engine::Fingerprint fingerprintCandidate(
    const CandidateSpec& spec);

/// Context fingerprint over everything (besides the candidate list) that
/// determines an evaluation: workload, business requirements, and the
/// scenario set with names and weights.
[[nodiscard]] engine::Fingerprint fingerprintSearchContext(
    const WorkloadSpec& workload, const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios);

/// Round-trip of one completed evaluation (everything but `spec`, which the
/// resuming search re-attaches from its own candidate list, and `error`,
/// which is never journaled). Non-finite quantities are string-encoded.
[[nodiscard]] config::Json evaluatedCandidateToJson(
    const EvaluatedCandidate& candidate);
[[nodiscard]] EvaluatedCandidate evaluatedCandidateFromJson(
    const config::Json& value);

class CheckpointJournal {
 public:
  /// Opens (or creates) the journal at `path` for the given search context.
  /// Existing records with a matching context are loaded and the file is
  /// compacted; a missing or empty file, or a journal of another context,
  /// starts an empty journal. `flushEvery` bounds how many records may sit
  /// unflushed (1 = fsync-ish durability per record, larger = cheaper).
  /// Throws config::DesignIoError when the file cannot be (re)written, or
  /// when its first non-empty line is not a journal header (the file is
  /// then left untouched).
  CheckpointJournal(std::string path, const engine::Fingerprint& context,
                    std::size_t flushEvery = 16);
  ~CheckpointJournal();

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// The completed evaluation for `key`, or nullptr. (Pointer stays valid
  /// until the journal is destroyed; record() never rewrites loaded slots.)
  [[nodiscard]] const EvaluatedCandidate* find(
      const engine::Fingerprint& key) const;

  /// Appends one completed evaluation. Thread-safe; duplicate keys are
  /// ignored (first record wins, matching the deterministic evaluator).
  void record(const engine::Fingerprint& key,
              const EvaluatedCandidate& candidate);

  void flush();

  /// Records currently held (resumed + newly recorded).
  [[nodiscard]] std::size_t size() const;
  /// Records loaded from disk when the journal was opened.
  [[nodiscard]] std::size_t resumed() const noexcept { return resumed_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void appendLocked(const engine::Fingerprint& key,
                    const EvaluatedCandidate& candidate);

  mutable std::mutex mu_;
  std::string path_;
  std::size_t flushEvery_;
  std::size_t sinceFlush_ = 0;
  std::size_t resumed_ = 0;
  std::ofstream out_;
  std::unordered_map<engine::Fingerprint, EvaluatedCandidate,
                     engine::FingerprintHash>
      records_;
};

}  // namespace stordep::optimizer
