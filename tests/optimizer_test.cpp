// Tests for the design-space optimizer: enumeration validity, candidate
// construction, constraint enforcement (RTO/RPO), and that the search
// rediscovers the paper's Table 7 punchline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "engine/arena.hpp"
#include "engine/plan.hpp"
#include "optimizer/refine.hpp"
#include "optimizer/search.hpp"

namespace stordep::optimizer {
namespace {

namespace cs = stordep::casestudy;

TEST(DesignSpace, EnumerationIsNonTrivialAndValid) {
  const auto candidates = enumerateDesignSpace();
  EXPECT_GT(candidates.size(), 100u);
  for (const CandidateSpec& spec : candidates) {
    EXPECT_TRUE(spec.valid()) << spec.label();
  }
}

TEST(DesignSpace, InvalidCombinationsRejected) {
  CandidateSpec spec;
  // Vault without backup.
  spec.vault = true;
  spec.backup = BackupChoice::kNone;
  spec.pit = PitChoice::kSplitMirror;
  EXPECT_FALSE(spec.valid());
  // Backup without a PiT source image.
  spec = {};
  spec.backup = BackupChoice::kFullOnly;
  spec.pit = PitChoice::kNone;
  EXPECT_FALSE(spec.valid());
  // No protection at all.
  spec = {};
  EXPECT_FALSE(spec.valid());
  // Incrementals need room inside the cycle.
  spec = {};
  spec.pit = PitChoice::kSplitMirror;
  spec.backup = BackupChoice::kFullPlusIncremental;
  spec.backupAccW = hours(24);
  EXPECT_FALSE(spec.valid());
  EXPECT_THROW((void)spec.build(cs::celloWorkload(), cs::requirements()),
               DesignError);
}

TEST(DesignSpace, LabelsAreDescriptive) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.pitAccW = hours(12);
  spec.pitRetentionCount = 4;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  spec.vaultAccW = weeks(4);
  const std::string label = spec.label();
  EXPECT_NE(label.find("split-mirror"), std::string::npos);
  EXPECT_NE(label.find("full"), std::string::npos);
  EXPECT_NE(label.find("vault"), std::string::npos);
}

TEST(DesignSpace, LabelsAreByteExact) {
  // Labels break ranking ties and name every search result, so they are
  // pinned byte for byte: every branch of label() (both PiT kinds, full and
  // full+incr, vault, one and several links, primary-only) and every
  // toString(Duration) unit it prints, fractional values included.
  const std::vector<std::pair<CandidateSpec, std::string>> table = {
      {CandidateSpec{}, "primary-only"},
      {{.pit = PitChoice::kSplitMirror,
        .backup = BackupChoice::kFullOnly,
        .vault = true},
       "split-mirror(12 hr x4) + full(1 wk) + vault(4 wk)"},
      {{.pit = PitChoice::kSnapshot,
        .pitAccW = hours(24),
        .pitRetentionCount = 2,
        .backup = BackupChoice::kFullPlusIncremental,
        .mirror = MirrorChoice::kAsync,
        .mirrorLinkCount = 3},
       "snapshot(1 days x2) + full+incr(1 wk) + async-mirror(3 links)"},
      {{.pit = PitChoice::kSnapshot,
        .pitAccW = minutes(30),
        .pitRetentionCount = 48,
        .mirror = MirrorChoice::kAsyncBatch,
        .mirrorLinkCount = 2},
       "snapshot(30 min x48) + asyncB-mirror(2 links)"},
      {{.pit = PitChoice::kSplitMirror,
        .pitAccW = seconds(45),
        .pitRetentionCount = 10,
        .mirror = MirrorChoice::kSync},
       "split-mirror(45 s x10) + sync-mirror(1 link)"},
      {{.pit = PitChoice::kSplitMirror,
        .pitAccW = hours(36),
        .pitRetentionCount = 3,
        .backup = BackupChoice::kFullOnly,
        .backupAccW = weeks(4),
        .vault = true,
        .vaultAccW = years(1)},
       "split-mirror(1.5 days x3) + full(4 wk) + vault(1 yr)"},
      {{.pit = PitChoice::kSnapshot,
        .pitAccW = minutes(90),
        .pitRetentionCount = 16,
        .backup = BackupChoice::kFullPlusIncremental,
        .backupAccW = days(10),
        .vault = true,
        .vaultAccW = weeks(6.5),
        .mirror = MirrorChoice::kSync,
        .mirrorLinkCount = 8},
       "snapshot(1.5 hr x16) + full+incr(1.43 wk) + vault(6.5 wk) + "
       "sync-mirror(8 links)"},
      {{.mirror = MirrorChoice::kAsync}, "async-mirror(1 link)"},
      {{.pit = PitChoice::kSplitMirror,
        .pitAccW = seconds(7.25),
        .pitRetentionCount = 1,
        .backup = BackupChoice::kFullOnly,
        .backupAccW = days(2),
        .vault = true,
        .vaultAccW = years(1.5),
        .mirror = MirrorChoice::kAsyncBatch,
        .mirrorLinkCount = 12},
       "split-mirror(7.25 s x1) + full(2 days) + vault(1.5 yr) + "
       "asyncB-mirror(12 links)"},
  };
  for (const auto& [spec, expected] : table) {
    EXPECT_EQ(spec.label(), expected);
    if (expected == "primary-only") {
      EXPECT_FALSE(spec.valid());  // nothing to build
      continue;
    }
    // The sweep names each result after its built design, so build() must
    // name the design exactly label().
    ASSERT_TRUE(spec.valid()) << expected;
    EXPECT_EQ(spec.build(cs::celloWorkload(), cs::requirements()).name(),
              spec.label());
  }
}

TEST(DesignSpace, BuildsEvaluableDesigns) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  const StorageDesign design =
      spec.build(cs::celloWorkload(), cs::requirements());
  const EvaluationResult result = evaluate(design, cs::arrayFailure());
  EXPECT_TRUE(result.utilization.feasible());
  EXPECT_TRUE(result.recovery.recoverable);
  // This candidate is close to the paper's baseline: same DL structure.
  EXPECT_GT(result.recovery.dataLoss, hours(100));
}

/// The 14,883-point big grid the benchmark sweeps stream (11,890 valid).
DesignSpaceOptions bigGrid() {
  DesignSpaceOptions options;
  options.pitAccWs = {hours(3), hours(6), hours(12), hours(24), hours(48)};
  options.pitRetentionCounts = {1, 2, 4, 8};
  options.backupAccWs = {hours(24), days(3), weeks(1), weeks(2)};
  options.vaultAccWs = {weeks(1), weeks(4), weeks(12)};
  options.mirrorChoices = {MirrorChoice::kNone, MirrorChoice::kAsync,
                           MirrorChoice::kAsyncBatch};
  options.mirrorLinkCounts = {1, 2, 4, 8, 16};
  return options;
}

DevicePtr deviceNamed(const StorageDesign& design, const std::string& name) {
  for (DevicePtr& device : design.devices()) {
    if (device->name() == name) return std::move(device);
  }
  ADD_FAILURE() << design.name() << " has no device " << name;
  return nullptr;
}

TEST(DesignSpace, CatalogDevicesAreSharedAcrossCandidatesNotRoles) {
  const CandidateSpec full{.pit = PitChoice::kSplitMirror,
                           .backup = BackupChoice::kFullPlusIncremental,
                           .vault = true,
                           .mirror = MirrorChoice::kAsyncBatch,
                           .mirrorLinkCount = 4};
  const StorageDesign design = full.build(cs::celloWorkload(),
                                          cs::requirements());
  // Within one design every role is its own device: outlays and
  // StorageDesign::devices() group by pointer.
  const std::vector<DevicePtr> devices = design.devices();
  std::unordered_set<const DeviceModel*> distinct;
  for (const DevicePtr& device : devices) distinct.insert(device.get());
  EXPECT_EQ(devices.size(), 6u);  // arrays, links, library, vault, courier
  EXPECT_EQ(distinct.size(), devices.size());

  // Across candidates built on one thread, equal devices are one object;
  // a different link count is a different device.
  CandidateSpec other = full;
  other.pit = PitChoice::kSnapshot;
  other.backup = BackupChoice::kFullOnly;
  const StorageDesign same = other.build(cs::celloWorkload(),
                                         cs::requirements());
  for (const DevicePtr& device : same.devices()) {
    EXPECT_EQ(device, deviceNamed(design, device->name())) << device->name();
  }
  other.mirrorLinkCount = 10;
  const StorageDesign moreLinks = other.build(cs::celloWorkload(),
                                              cs::requirements());
  EXPECT_NE(deviceNamed(moreLinks, "wan-links"),
            deviceNamed(design, "wan-links"));
  EXPECT_EQ(deviceNamed(moreLinks, "mirror-array"),
            deviceNamed(design, "mirror-array"));
}

TEST(DesignSpace, SharedDevicesEvaluateLikeFreshOnes) {
  // A design re-read from its JSON has devices of its own. Every big-grid
  // candidate evaluates to the same bits either way.
  const stordep::FailureScenario scenarios[] = {
      cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()};
  engine::BumpArena arena;
  DesignSpaceCursor cursor(bigGrid());
  CandidateSpec spec;
  std::size_t checked = 0;
  while (cursor.next(spec)) {
    const StorageDesign shared = spec.build(cs::celloWorkload(),
                                            cs::requirements());
    const StorageDesign fresh =
        config::designFromJson(config::designToJson(shared));
    const auto sharedPlan = engine::EvalPlan::compile(shared);
    const auto freshPlan = engine::EvalPlan::compile(fresh);
    ASSERT_NE(sharedPlan, nullptr) << spec.label();
    ASSERT_NE(freshPlan, nullptr) << spec.label();
    for (const stordep::FailureScenario& scenario : scenarios) {
      const EvaluationMetrics a = sharedPlan->evaluate(scenario, arena);
      const EvaluationMetrics b = freshPlan->evaluate(scenario, arena);
      const auto bits = [](const EvaluationMetrics& m) {
        return std::vector<std::uint64_t>{
            std::bit_cast<std::uint64_t>(m.recoveryTime.raw()),
            std::bit_cast<std::uint64_t>(m.dataLoss.raw()),
            std::bit_cast<std::uint64_t>(m.payload.raw()),
            std::bit_cast<std::uint64_t>(m.totalOutlays.raw()),
            std::bit_cast<std::uint64_t>(m.outagePenalty.raw()),
            std::bit_cast<std::uint64_t>(m.lossPenalty.raw()),
            std::bit_cast<std::uint64_t>(m.totalPenalties.raw()),
            std::bit_cast<std::uint64_t>(m.totalCost.raw()),
            static_cast<std::uint64_t>(m.utilizationFeasible),
            static_cast<std::uint64_t>(m.recoverable),
            static_cast<std::uint64_t>(m.meetsObjectives),
            static_cast<std::uint64_t>(m.sourceLevel)};
      };
      ASSERT_EQ(bits(a), bits(b)) << spec.label();
    }
    ++checked;
  }
  EXPECT_EQ(checked, 11'890u);
}

// ---- Range cursors ----------------------------------------------------------

/// One next() that produced a candidate, and enumerated() after it.
struct Visit {
  CandidateSpec spec;
  std::uint64_t enumerated = 0;
  friend bool operator==(const Visit&, const Visit&) = default;
};

std::vector<Visit> drainVisits(DesignSpaceCursor& cursor) {
  std::vector<Visit> out;
  CandidateSpec spec;
  while (cursor.next(spec)) out.push_back({spec, cursor.enumerated()});
  return out;
}

/// A cursor restricted to [begin, end) yields the unrestricted walk's
/// visits inside the range, and ends with enumerated() where that walk
/// stopped: one past the first point at or beyond both bounds, or the grid
/// size.
void expectRangeMatchesWalk(const DesignSpaceOptions& options,
                            const std::vector<Visit>& walk,
                            std::uint64_t begin, std::uint64_t end) {
  std::vector<Visit> expected;
  for (const Visit& visit : walk) {
    const std::uint64_t index = visit.enumerated - 1;
    if (index >= begin && index < end) expected.push_back(visit);
  }
  DesignSpaceCursor cursor(options);
  cursor.restrictTo(begin, end);
  const std::vector<Visit> got = drainVisits(cursor);
  ASSERT_EQ(got.size(), expected.size()) << "[" << begin << ", " << end << ")";
  EXPECT_TRUE(got == expected) << "[" << begin << ", " << end << ")";
  const std::uint64_t stop = std::max(begin, end);
  const std::uint64_t total = gridCardinality(options);
  EXPECT_EQ(cursor.enumerated(), stop < total ? stop + 1 : total)
      << "[" << begin << ", " << end << ")";
}

TEST(DesignSpaceCursor, SeekingRangesMatchTheWalk) {
  DesignSpaceOptions noPitAccW;
  noPitAccW.pitAccWs.clear();
  DesignSpaceOptions noVaultNoLinks = bigGrid();
  noVaultNoLinks.vaultAccWs.clear();
  noVaultNoLinks.mirrorLinkCounts.clear();
  DesignSpaceOptions noBackupAccW = bigGrid();
  noBackupAccW.backupAccWs.clear();
  DesignSpaceOptions noPit;
  noPit.pitChoices.clear();
  const std::vector<std::pair<std::string, DesignSpaceOptions>> grids = {
      {"default", {}},
      {"big", bigGrid()},
      {"no PiT intervals", noPitAccW},
      {"no vault intervals or link counts", noVaultNoLinks},
      {"no backup intervals", noBackupAccW},
      {"no PiT choices", noPit}};
  std::mt19937_64 rng(2004);
  for (const auto& [name, options] : grids) {
    SCOPED_TRACE(name);
    DesignSpaceCursor full(options);
    const std::vector<Visit> walk = drainVisits(full);
    const std::uint64_t total = gridCardinality(options);
    ASSERT_EQ(full.enumerated(), total);

    for (const std::uint64_t parts : {1u, 7u, 64u}) {
      std::uint64_t begin = 0;
      for (std::uint64_t p = 1; p <= parts; ++p) {
        const std::uint64_t end = total * p / parts;
        expectRangeMatchesWalk(options, walk, begin, end);
        begin = end;
      }
    }
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t a = rng() % (total + 4);
      const std::uint64_t b = rng() % (total + 4);
      expectRangeMatchesWalk(options, walk, std::min(a, b), std::max(a, b));
    }
    expectRangeMatchesWalk(options, walk, 0, UINT64_MAX);
    expectRangeMatchesWalk(options, walk, 0, 0);
    expectRangeMatchesWalk(options, walk, total, total + 10);
    expectRangeMatchesWalk(options, walk, total + 5, total + 6);
    expectRangeMatchesWalk(options, walk, total + 5, 2);  // end before begin
    if (total > 0) expectRangeMatchesWalk(options, walk, total - 1, total);
  }
}

// perfbench's sweep runs the grid as restricted cursor ranges and merges
// them with rankEvaluated: the merge must be the full sweep, bit for bit.
TEST(PartitionGrid, MergedPartitionRankingIsBitIdentical) {
  const DesignSpaceOptions gridOptions;
  const std::uint64_t total = gridCardinality(gridOptions);
  const auto workload = cs::celloWorkload();
  const auto business = cs::requirements();
  const auto scenarios = caseStudyScenarios();
  const SearchOptions searchOptions;

  DesignSpaceCursor fullCursor(gridOptions);
  const SearchResult reference = searchDesignSpaceStreaming(
      fullCursor, workload, business, scenarios, searchOptions);

  for (const std::uint64_t parts : {3u, 64u}) {
    SCOPED_TRACE(parts);
    std::vector<EvaluatedCandidate> all;
    for (std::uint64_t p = 0; p < parts; ++p) {
      DesignSpaceCursor cursor(gridOptions);
      cursor.restrictTo(total * p / parts, total * (p + 1) / parts);
      const SearchResult part = searchDesignSpaceStreaming(
          cursor, workload, business, scenarios, searchOptions);
      for (const auto& c : part.ranked) all.push_back(c);
      for (const auto& c : part.rejected) all.push_back(c);
    }
    const SearchResult merged = rankEvaluated(std::move(all));

    ASSERT_EQ(merged.ranked.size(), reference.ranked.size());
    ASSERT_EQ(merged.rejected.size(), reference.rejected.size());
    EXPECT_EQ(merged.evaluated, reference.evaluated);
    for (std::size_t i = 0; i < merged.ranked.size(); ++i) {
      EXPECT_EQ(merged.ranked[i].label, reference.ranked[i].label);
      EXPECT_EQ(merged.ranked[i].totalCost.usd(),
                reference.ranked[i].totalCost.usd());  // bit-exact
    }
  }
}

TEST(Search, RankingOrdersTiesLikeASortOfTheCandidates) {
  // The ranking sorts (cost, label) keys rather than candidates. On exact
  // ties it must still give the order a sort of the candidates gives with
  // the same comparison; tied candidates differ only in their spec. Every
  // size is past the sort's 16-element insertion-sort cutoff.
  const auto byCostThenLabel = [](const EvaluatedCandidate& a,
                                  const EvaluatedCandidate& b) {
    if (a.totalCost != b.totalCost) return a.totalCost < b.totalCost;
    return a.label < b.label;
  };
  std::mt19937_64 rng(27);
  for (const int size : {17, 64, 400}) {
    SCOPED_TRACE(size);
    std::vector<EvaluatedCandidate> input;
    for (int i = 0; i < size; ++i) {
      EvaluatedCandidate c;
      c.spec.pitRetentionCount = i + 1;
      c.label = "tie " + std::to_string(rng() % 3);
      c.totalCost = dollars(static_cast<double>(rng() % 4));
      c.feasible = rng() % 5 != 0;
      c.meetsObjectives = rng() % 7 != 0;
      input.push_back(std::move(c));
    }
    std::vector<EvaluatedCandidate> oracle;
    std::vector<EvaluatedCandidate> rejected;
    for (const EvaluatedCandidate& c : input) {
      (c.feasible && c.meetsObjectives ? oracle : rejected).push_back(c);
    }
    std::sort(oracle.begin(), oracle.end(), byCostThenLabel);

    const SearchResult result = rankEvaluated(input);
    EXPECT_EQ(result.evaluated, size);
    ASSERT_EQ(result.ranked.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(result.ranked[i].spec, oracle[i].spec) << "rank " << i;
    }
    ASSERT_EQ(result.rejected.size(), rejected.size());
    for (std::size_t i = 0; i < rejected.size(); ++i) {
      EXPECT_EQ(result.rejected[i].spec, rejected[i].spec) << "rejected " << i;
    }
  }
}

TEST(Search, CancelAfterTheFirstWaveRanksExactlyThatWave) {
  // A wave evaluates into the slots the ranking reads; a cancel drops the
  // slots it left empty. Cancelled after the first 8-candidate wave, the
  // sweep ranks exactly the first 8 candidates, as a ranking of them in
  // cursor order would, each with its own label.
  constexpr std::size_t kChunk = 8;
  const auto workload = cs::celloWorkload();
  const auto business = cs::requirements();
  const auto scenarios = caseStudyScenarios();
  engine::Engine eng(engine::EngineOptions{.threads = 4});
  engine::CancellationSource source;
  SearchOptions options;
  options.eng = &eng;
  options.streamChunk = kChunk;
  options.token = source.token();
  options.onProgress = [&](std::size_t) { source.cancel(); };
  DesignSpaceCursor cursor;
  const SearchResult result = searchDesignSpaceStreaming(
      cursor, workload, business, scenarios, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.evaluated, static_cast<int>(kChunk));

  DesignSpaceCursor firstWave;
  std::vector<EvaluatedCandidate> expected;
  CandidateSpec spec;
  while (expected.size() < kChunk && firstWave.next(spec)) {
    expected.push_back(evaluateCandidate(spec, workload, business, scenarios));
  }
  const SearchResult want = rankEvaluated(std::move(expected));
  const auto expectSame = [](const std::vector<EvaluatedCandidate>& got,
                             const std::vector<EvaluatedCandidate>& wanted) {
    ASSERT_EQ(got.size(), wanted.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].spec.valid()) << i;  // not a default candidate
      EXPECT_EQ(got[i].spec, wanted[i].spec) << i;
      EXPECT_EQ(got[i].label, got[i].spec.label()) << i;
      EXPECT_EQ(got[i].totalCost.raw(), wanted[i].totalCost.raw()) << i;
    }
  };
  expectSame(result.ranked, want.ranked);
  expectSame(result.rejected, want.rejected);
}

TEST(Search, RanksByTotalCost) {
  const auto candidates = enumerateDesignSpace();
  const SearchResult result = searchDesignSpace(
      candidates, cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  EXPECT_EQ(result.evaluated, static_cast<int>(candidates.size()));
  ASSERT_FALSE(result.ranked.empty());
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    EXPECT_LE(result.ranked[i - 1].totalCost.usd(),
              result.ranked[i].totalCost.usd());
  }
  // Every ranked candidate is feasible and meets (absent) objectives.
  for (const auto& c : result.ranked) {
    EXPECT_TRUE(c.feasible);
    EXPECT_TRUE(c.meetsObjectives);
    EXPECT_TRUE(c.totalCost.isFinite());
  }
}

TEST(Search, MirroringWinsWhenLossIsExpensive) {
  // With the case study's high loss penalty and all three scenarios in
  // play, tape-only designs pay enormous site-disaster loss penalties;
  // the best designs must include mirroring (echoing Table 7's punchline).
  const SearchResult result = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  ASSERT_FALSE(result.ranked.empty());
  EXPECT_NE(result.ranked.front().spec.mirror, MirrorChoice::kNone);
  // And because a 24 h-rollback object failure is in the scenario set, the
  // winner must also retain history (a PiT level or backup), not mirroring
  // alone.
  const auto& best = result.ranked.front().spec;
  EXPECT_TRUE(best.pit != PitChoice::kNone ||
              best.backup != BackupChoice::kNone)
      << result.ranked.front().label;
}

TEST(Search, RtoRpoConstraintsFilter) {
  BusinessRequirements strict = cs::requirements();
  strict.rto = hours(12);
  strict.rpo = hours(1);
  const SearchResult result =
      searchDesignSpace(enumerateDesignSpace(), cs::celloWorkload(), strict,
                        caseStudyScenarios());
  // An RPO of 1 hour across a site disaster forces mirroring; plain
  // tape hierarchies get rejected.
  for (const auto& c : result.ranked) {
    EXPECT_NE(c.spec.mirror, MirrorChoice::kNone) << c.label;
    EXPECT_LE(c.worstDataLoss, hours(1)) << c.label;
    EXPECT_LE(c.worstRecoveryTime, hours(12)) << c.label;
  }
  EXPECT_FALSE(result.rejected.empty());
  bool sawObjectiveRejection = false;
  for (const auto& c : result.rejected) {
    if (c.rejectionReason.find("RTO/RPO") != std::string::npos) {
      sawObjectiveRejection = true;
    }
  }
  EXPECT_TRUE(sawObjectiveRejection);
}

TEST(Search, UnrecoverableCandidatesRejected) {
  // Mirror-only candidates cannot serve the 24 h rollback scenario.
  CandidateSpec spec;
  spec.mirror = MirrorChoice::kAsyncBatch;
  spec.mirrorLinkCount = 1;
  ASSERT_TRUE(spec.valid());
  const EvaluatedCandidate result = evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(), caseStudyScenarios());
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.rejectionReason.find("unrecoverable"), std::string::npos);
}

TEST(Search, WeightsScalePenalties) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;

  std::vector<ScenarioCase> scenarios{
      {"array", cs::arrayFailure(), 1.0},
  };
  const EvaluatedCandidate base = evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(), scenarios);
  scenarios[0].weight = 2.0;
  const EvaluatedCandidate doubled = evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(), scenarios);
  EXPECT_NEAR(doubled.weightedPenalties.usd(),
              2.0 * base.weightedPenalties.usd(), 1.0);
  EXPECT_DOUBLE_EQ(doubled.outlays.usd(), base.outlays.usd());
}

TEST(Search, BestAccessor) {
  SearchResult empty;
  EXPECT_EQ(empty.best(), nullptr);
  const SearchResult result = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  ASSERT_NE(result.best(), nullptr);
  EXPECT_EQ(result.best()->label, result.ranked.front().label);
}

TEST(Pareto, FrontierIsMutuallyNonDominated) {
  const SearchResult result = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  std::vector<EvaluatedCandidate> all = result.ranked;
  all.insert(all.end(), result.rejected.begin(), result.rejected.end());
  const auto frontier = paretoFrontier(all);
  ASSERT_GE(frontier.size(), 3u);  // real trade-offs exist
  EXPECT_LT(frontier.size(), result.ranked.size());  // most are dominated

  // No frontier member dominates another.
  for (const auto& a : frontier) {
    for (const auto& b : frontier) {
      if (&a == &b) continue;
      const bool aDominatesB =
          a.outlays <= b.outlays &&
          a.worstRecoveryTime <= b.worstRecoveryTime &&
          a.worstDataLoss <= b.worstDataLoss &&
          (a.outlays < b.outlays || a.worstRecoveryTime < b.worstRecoveryTime ||
           a.worstDataLoss < b.worstDataLoss);
      EXPECT_FALSE(aDominatesB) << a.label << " dominates " << b.label;
    }
  }

  // Every feasible non-frontier candidate is dominated by some frontier
  // member.
  for (const auto& candidate : all) {
    if (!candidate.feasible) continue;
    const bool onFrontier =
        std::any_of(frontier.begin(), frontier.end(),
                    [&](const EvaluatedCandidate& f) {
                      return f.label == candidate.label;
                    });
    if (onFrontier) continue;
    const bool dominated = std::any_of(
        frontier.begin(), frontier.end(), [&](const EvaluatedCandidate& f) {
          return f.outlays <= candidate.outlays &&
                 f.worstRecoveryTime <= candidate.worstRecoveryTime &&
                 f.worstDataLoss <= candidate.worstDataLoss;
        });
    EXPECT_TRUE(dominated) << candidate.label;
  }

  // Sorted by outlays.
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LE(frontier[i - 1].outlays.usd(), frontier[i].outlays.usd());
  }
}

TEST(Pareto, EmptyAndInfeasibleInputs) {
  EXPECT_TRUE(paretoFrontier({}).empty());
  EvaluatedCandidate infeasible;
  infeasible.feasible = false;
  EXPECT_TRUE(paretoFrontier({infeasible}).empty());
}

TEST(Refine, NeighborsAreValidOneKnobMoves) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.pitAccW = hours(12);
  spec.pitRetentionCount = 4;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  spec.vaultAccW = weeks(4);
  spec.mirror = MirrorChoice::kAsyncBatch;
  spec.mirrorLinkCount = 2;
  const auto moves = neighbors(spec);
  EXPECT_GE(moves.size(), 8u);
  for (const CandidateSpec& next : moves) {
    EXPECT_TRUE(next.valid()) << next.label();
  }
  // Link count 1 prunes the -1 move.
  spec.mirrorLinkCount = 1;
  for (const CandidateSpec& next : neighbors(spec)) {
    EXPECT_GE(next.mirrorLinkCount, 1);
  }
}

TEST(Refine, NeverWorsensAndConverges) {
  CandidateSpec start;
  start.pit = PitChoice::kSnapshot;
  start.pitAccW = hours(24);
  start.pitRetentionCount = 4;
  start.mirror = MirrorChoice::kAsyncBatch;
  start.mirrorLinkCount = 10;  // deliberately over-provisioned
  ASSERT_TRUE(start.valid());

  const RefineResult result =
      refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                      caseStudyScenarios());
  ASSERT_TRUE(result.best.feasible);
  EXPECT_GE(result.improvement.usd(), 0.0);
  // Ten links of OC-3 rent dwarf their penalty savings here: refinement
  // must shed most of them.
  EXPECT_LT(result.best.spec.mirrorLinkCount, 10);
  EXPECT_GT(result.improvement.millionUsd(), 1.0);
  EXPECT_GT(result.steps, 0);
  EXPECT_GT(result.evaluations, result.steps);
}

TEST(Refine, ImprovesTheGridWinner) {
  // The grid's best candidate sits on grid points; the refiner can tune
  // off-grid and must never come back worse.
  const SearchResult grid = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  ASSERT_NE(grid.best(), nullptr);
  const RefineResult refined =
      refineCandidate(grid.best()->spec, cs::celloWorkload(),
                      cs::requirements(), caseStudyScenarios());
  EXPECT_LE(refined.best.totalCost.usd(), grid.best()->totalCost.usd());
}

TEST(Refine, InfeasibleStartReturnsUnrefined) {
  CandidateSpec start;
  start.mirror = MirrorChoice::kAsyncBatch;  // cannot serve the rollback
  const RefineResult result =
      refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                      caseStudyScenarios());
  EXPECT_FALSE(result.best.feasible);
  EXPECT_EQ(result.steps, 0);
  EXPECT_DOUBLE_EQ(result.improvement.usd(), 0.0);
}

TEST(ChoiceNames, Render) {
  EXPECT_EQ(toString(PitChoice::kSnapshot), "snapshot");
  EXPECT_EQ(toString(BackupChoice::kFullPlusIncremental), "full+incr");
  EXPECT_EQ(toString(MirrorChoice::kAsyncBatch), "asyncB-mirror");
}

}  // namespace
}  // namespace stordep::optimizer
