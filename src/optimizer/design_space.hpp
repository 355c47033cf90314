// design_space.hpp — enumerable space of candidate storage designs.
//
// The paper's introduction motivates the framework as "the inner-most loop
// of an automated optimization loop" for dependable storage design. This
// module provides the loop's search space: a candidate is a combination of
// a PiT technique, a backup policy, a vaulting policy and an inter-array
// mirroring choice over the case-study device catalog; build() materializes
// it as a StorageDesign ready for evaluate().
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hierarchy.hpp"

namespace stordep::optimizer {

enum class PitChoice { kNone, kSnapshot, kSplitMirror };
enum class BackupChoice { kNone, kFullOnly, kFullPlusIncremental };
enum class MirrorChoice { kNone, kSync, kAsync, kAsyncBatch };

[[nodiscard]] std::string toString(PitChoice choice);
[[nodiscard]] std::string toString(BackupChoice choice);
[[nodiscard]] std::string toString(MirrorChoice choice);

/// One point in the design space.
struct CandidateSpec {
  PitChoice pit = PitChoice::kNone;
  Duration pitAccW = hours(12);
  int pitRetentionCount = 4;

  BackupChoice backup = BackupChoice::kNone;
  /// Interval between fulls (propW is derived as accW/2, capped at 48 h;
  /// the case-study policies follow the same proportions).
  Duration backupAccW = weeks(1);

  bool vault = false;  ///< requires backup != kNone
  Duration vaultAccW = weeks(4);

  MirrorChoice mirror = MirrorChoice::kNone;
  int mirrorLinkCount = 1;

  /// Human-readable label ("split-mirror(12 hr x4) + full(1 wk) + vault(4 wk)").
  [[nodiscard]] std::string label() const;

  /// True when the combination is structurally valid (vault needs backup,
  /// at least one secondary copy exists, positive windows, ...).
  [[nodiscard]] bool valid() const;

  /// Materializes the candidate over the case-study device catalog.
  [[nodiscard]] StorageDesign build(const WorkloadSpec& workload,
                                    const BusinessRequirements& business) const;

  friend bool operator==(const CandidateSpec&, const CandidateSpec&) = default;
};

/// Grids to enumerate; defaults give a ~200-candidate space.
struct DesignSpaceOptions {
  std::vector<PitChoice> pitChoices{PitChoice::kNone, PitChoice::kSnapshot,
                                    PitChoice::kSplitMirror};
  std::vector<Duration> pitAccWs{hours(6), hours(12), hours(24)};
  std::vector<int> pitRetentionCounts{4};
  std::vector<BackupChoice> backupChoices{BackupChoice::kNone,
                                          BackupChoice::kFullOnly,
                                          BackupChoice::kFullPlusIncremental};
  std::vector<Duration> backupAccWs{hours(24), weeks(1)};
  std::vector<Duration> vaultAccWs{weeks(1), weeks(4)};
  std::vector<MirrorChoice> mirrorChoices{MirrorChoice::kNone,
                                          MirrorChoice::kAsyncBatch};
  std::vector<int> mirrorLinkCounts{1, 4, 10};
};

/// Exact number of grid points the options span (valid and invalid alike):
/// the cardinality product with the same axis collapsing the enumeration
/// applies (e.g. the PiT axes contribute one point, not |accWs| x |rets|,
/// when pit == kNone). enumerateDesignSpace pre-reserves from this.
[[nodiscard]] std::uint64_t gridCardinality(const DesignSpaceOptions& options);

/// Streaming enumeration of the same space, in the same order, without
/// materializing it: next() yields structurally valid candidates one at a
/// time, so searchDesignSpace can pipeline a million-point grid into the
/// thread pool in bounded memory. The sequence of specs produced is exactly
/// the vector enumerateDesignSpace returns.
class DesignSpaceCursor {
 public:
  explicit DesignSpaceCursor(DesignSpaceOptions options = {});

  /// Writes the next valid candidate into `out`; false when exhausted.
  [[nodiscard]] bool next(CandidateSpec& out);

  /// Restricts enumeration to grid indices [begin, end) in the all-points
  /// numbering enumerated() counts (valid and invalid alike). Cursors over
  /// a partition of [0, gridCardinality()) concatenate to exactly the full
  /// enumeration, so range sweeps merged with rankEvaluated equal one sweep.
  /// Must be called before the first next(), which seeks straight to
  /// `begin`: a few divisions and one pass over each choice list, not a walk
  /// over the `begin` points before it (that walk cost a 64-range sweep of
  /// the 14,883-point big grid about half a microsecond per candidate).
  void restrictTo(std::uint64_t begin, std::uint64_t end);

  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }
  /// Grid points visited so far, including invalid combinations skipped and
  /// the points before a restricted range: after next() returns a
  /// candidate, enumerated() - 1 is its grid index.
  [[nodiscard]] std::uint64_t enumerated() const noexcept {
    return enumerated_;
  }
  /// Valid candidates handed out so far.
  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }
  [[nodiscard]] const DesignSpaceOptions& options() const noexcept {
    return options_;
  }

 private:
  static constexpr int kDepth = 9;

  [[nodiscard]] std::size_t extent(int digit) const;
  [[nodiscard]] CandidateSpec specAt() const;
  /// Zero-fills digits [from, kDepth), advancing outer digits past any
  /// empty inner axis; false when the whole grid is exhausted.
  bool positionFrom(int from);
  /// Sets the digits to grid point `index` with `index` points counted as
  /// enumerated; false (every point counted) when the grid has no such
  /// point.
  bool seek(std::uint64_t index);
  bool advance();

  DesignSpaceOptions options_;
  std::array<std::size_t, kDepth> idx_{};
  bool started_ = false;
  bool exhausted_ = false;
  std::uint64_t enumerated_ = 0;
  std::uint64_t produced_ = 0;
  std::uint64_t rangeBegin_ = 0;
  std::uint64_t rangeEnd_ = UINT64_MAX;
};

/// Enumerates every structurally valid candidate in the grid.
[[nodiscard]] std::vector<CandidateSpec> enumerateDesignSpace(
    const DesignSpaceOptions& options = {});

}  // namespace stordep::optimizer
