// fingerprint_equivalence_test.cpp — the structural fast path is keyed on
// exactly the canonical JSON's equality classes.
//
// The hot path (engine/fingerprint.cpp) hashes model fields directly; the
// cache-correctness contract is that two objects get the same structural
// fingerprint iff their canonical serializations are byte-identical. These
// tests check that bidirectionally over generated designs/scenarios (via
// verify/gen), probe near-miss collisions, and pin down the pieces built on
// top: the streaming design-space cursor and the streaming search.

#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "config/json.hpp"
#include "engine/batch.hpp"
#include "engine/fingerprint.hpp"
#include "optimizer/design_space.hpp"
#include "optimizer/search.hpp"
#include "verify/gen.hpp"

namespace stordep {
namespace {

using engine::Fingerprint;
using optimizer::CandidateSpec;
using optimizer::DesignSpaceCursor;
using optimizer::DesignSpaceOptions;

constexpr std::uint64_t kRunSeed = 20260806;

struct FpKey {
  std::uint64_t hi, lo;
  friend bool operator<(const FpKey& a, const FpKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};
FpKey keyOf(const Fingerprint& fp) { return FpKey{fp.hi, fp.lo}; }

/// Asserts both directions of the equivalence for one (json, structural)
/// stream of observations: same JSON -> same fingerprint, and same
/// fingerprint -> same JSON.
class EquivalenceChecker {
 public:
  void observe(const std::string& json, const Fingerprint& fp,
               const std::string& what) {
    const auto byJson = jsonToFp_.emplace(json, fp);
    if (!byJson.second) {
      ASSERT_EQ(byJson.first->second, fp)
          << what << ": equal canonical JSON but different structural "
          << "fingerprints\n"
          << json;
    }
    const auto byFp = fpToJson_.emplace(keyOf(fp), json);
    if (!byFp.second) {
      ASSERT_EQ(byFp.first->second, json)
          << what << ": structural fingerprint collision between distinct "
          << "canonical serializations\n"
          << byFp.first->second << "\nvs\n"
          << json;
    }
  }

  [[nodiscard]] std::size_t distinct() const { return jsonToFp_.size(); }

 private:
  std::map<std::string, Fingerprint> jsonToFp_;
  std::map<FpKey, std::string> fpToJson_;
};

TEST(FingerprintEquivalence, DesignsAcrossGeneratedCases) {
  EquivalenceChecker checker;
  int observed = 0;
  for (std::uint64_t i = 0; i < 1200; ++i) {
    const verify::CaseSpec spec = verify::caseForSeed(kRunSeed, i);
    const StorageDesign design = verify::makeDesign(spec);
    checker.observe(engine::canonicalSerialization(design),
                    engine::fingerprintDesign(design),
                    "design case " + std::to_string(i));
    ++observed;
  }
  ASSERT_EQ(observed, 1200);
  // The generator spans real variety; if nearly everything collapsed to a
  // few classes the property above would be vacuous.
  EXPECT_GT(checker.distinct(), 100u);
}

TEST(FingerprintEquivalence, ScenariosAcrossGeneratedCases) {
  EquivalenceChecker checker;
  for (std::uint64_t i = 0; i < 1200; ++i) {
    const verify::CaseSpec spec = verify::caseForSeed(kRunSeed, i);
    const FailureScenario scenario = verify::makeScenario(spec);
    checker.observe(engine::canonicalSerialization(scenario),
                    engine::fingerprintScenario(scenario),
                    "scenario case " + std::to_string(i));
  }
  EXPECT_GT(checker.distinct(), 4u);
}

TEST(FingerprintEquivalence, StructuralMatchesJsonFamilyClasses) {
  // The structural and JSON-based families must induce the same partition
  // even though their bit values differ.
  std::unordered_map<std::uint64_t, Fingerprint> jsonToStructural;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const verify::CaseSpec spec = verify::caseForSeed(kRunSeed + 1, i);
    const StorageDesign design = verify::makeDesign(spec);
    const Fingerprint structural = engine::fingerprintDesign(design);
    const Fingerprint json = engine::fingerprintDesignJson(design);
    const auto ins = jsonToStructural.emplace(json.lo ^ json.hi, structural);
    if (!ins.second) {
      EXPECT_EQ(ins.first->second, structural);
    }
  }
}

TEST(FingerprintEquivalence, EqualJsonFromDifferentObjects) {
  // scenarioToJson omits recoveryTargetAge unless it is strictly positive:
  // zero and negative ages serialize identically, so they must fingerprint
  // identically too.
  FailureScenario zero = FailureScenario::arrayFailure("primary-array");
  FailureScenario negative = zero;
  negative.recoveryTargetAge = hours(-5);
  ASSERT_EQ(engine::canonicalSerialization(zero),
            engine::canonicalSerialization(negative));
  EXPECT_EQ(engine::fingerprintScenario(zero),
            engine::fingerprintScenario(negative));

  // A NaN age fails the > 0 comparison and is likewise omitted.
  FailureScenario nanAge = zero;
  nanAge.recoveryTargetAge = Duration{std::nan("")};
  ASSERT_EQ(engine::canonicalSerialization(zero),
            engine::canonicalSerialization(nanAge));
  EXPECT_EQ(engine::fingerprintScenario(zero),
            engine::fingerprintScenario(nanAge));

  // An infinite age IS written (as JSON null) — distinct from omission.
  FailureScenario infAge = zero;
  infAge.recoveryTargetAge = Duration::infinite();
  ASSERT_NE(engine::canonicalSerialization(zero),
            engine::canonicalSerialization(infAge));
  EXPECT_NE(engine::fingerprintScenario(zero),
            engine::fingerprintScenario(infAge));
}

TEST(FingerprintEquivalence, NearMissScenariosStayDistinct) {
  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::arrayFailure("primary-array"));
  scenarios.push_back(FailureScenario::arrayFailure("primary-arraz"));
  scenarios.push_back(FailureScenario::arrayFailure("primary-arra"));
  scenarios.push_back(FailureScenario::buildingFailure("primary-array"));
  scenarios.push_back(FailureScenario::siteDisaster("primary-array"));
  FailureScenario aged = FailureScenario::arrayFailure("primary-array");
  aged.recoveryTargetAge = hours(24);
  scenarios.push_back(aged);
  FailureScenario agedOff = aged;
  agedOff.recoveryTargetAge = hours(24) + Duration{1.0};
  scenarios.push_back(agedOff);
  FailureScenario sized = FailureScenario::arrayFailure("primary-array");
  sized.recoverySize = Bytes{1 << 20};
  scenarios.push_back(sized);

  for (std::size_t a = 0; a < scenarios.size(); ++a) {
    for (std::size_t b = a + 1; b < scenarios.size(); ++b) {
      ASSERT_NE(engine::canonicalSerialization(scenarios[a]),
                engine::canonicalSerialization(scenarios[b]));
      EXPECT_NE(engine::fingerprintScenario(scenarios[a]),
                engine::fingerprintScenario(scenarios[b]))
          << "near-miss collision between scenarios " << a << " and " << b;
    }
  }
}

TEST(FingerprintEquivalence, NearMissDesignsStayDistinct) {
  // One-axis-apart candidates over the default grid: every pair of designs
  // with distinct serializations must keep distinct fingerprints.
  const WorkloadSpec workload = casestudy::celloWorkload();
  const BusinessRequirements business = casestudy::requirements();
  EquivalenceChecker checker;
  int built = 0;
  for (const CandidateSpec& spec : optimizer::enumerateDesignSpace()) {
    const StorageDesign design = spec.build(workload, business);
    checker.observe(engine::canonicalSerialization(design),
                    engine::fingerprintDesign(design), spec.label());
    ++built;
  }
  EXPECT_GT(built, 100);
  EXPECT_EQ(checker.distinct(), static_cast<std::size_t>(built));
}

TEST(FingerprintCounters, CountOpsAndBytes) {
  engine::resetFingerprintCounters();
  const FailureScenario scenario =
      FailureScenario::arrayFailure("primary-array");
  for (int i = 0; i < 10; ++i) {
    (void)engine::fingerprintScenario(scenario);
  }
  engine::FingerprintCounters counters = engine::fingerprintCounters();
  EXPECT_EQ(counters.scenarioFingerprints, 10u);
  EXPECT_GT(counters.bytesHashed, 0u);
  EXPECT_EQ(counters.hashNanos, 0u);  // timing off by default

  engine::setFingerprintTiming(true);
  for (int i = 0; i < 5000; ++i) {
    (void)engine::fingerprintScenario(scenario);
  }
  engine::setFingerprintTiming(false);
  counters = engine::fingerprintCounters();
  EXPECT_EQ(counters.scenarioFingerprints, 5010u);
  EXPECT_GT(counters.hashNanos, 0u);
  EXPECT_GT(counters.nanosPerFingerprint(), 0.0);
  engine::resetFingerprintCounters();
  EXPECT_EQ(engine::fingerprintCounters().scenarioFingerprints, 0u);
}

// ---- Streaming enumeration -------------------------------------------------

std::vector<CandidateSpec> drain(DesignSpaceCursor& cursor) {
  std::vector<CandidateSpec> out;
  CandidateSpec spec;
  while (cursor.next(spec)) out.push_back(spec);
  return out;
}

TEST(DesignSpaceCursor, MatchesEnumerateOnDefaultGrid) {
  const std::vector<CandidateSpec> eager = optimizer::enumerateDesignSpace();
  DesignSpaceCursor cursor;
  const std::vector<CandidateSpec> streamed = drain(cursor);
  ASSERT_EQ(streamed.size(), eager.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(streamed[i], eager[i]) << "diverges at candidate " << i;
  }
  EXPECT_EQ(cursor.produced(), eager.size());
  EXPECT_EQ(cursor.enumerated(), optimizer::gridCardinality({}));
  EXPECT_TRUE(cursor.exhausted());
}

TEST(DesignSpaceCursor, MatchesEnumerateOnDenseGrid) {
  DesignSpaceOptions options;
  options.pitAccWs = {hours(1), hours(6), hours(12), hours(24)};
  options.pitRetentionCounts = {1, 2, 4, 8};
  options.backupAccWs = {hours(48), weeks(1), weeks(2)};
  options.vaultAccWs = {weeks(1), weeks(2), weeks(4)};
  options.mirrorChoices = {optimizer::MirrorChoice::kNone,
                           optimizer::MirrorChoice::kSync,
                           optimizer::MirrorChoice::kAsync,
                           optimizer::MirrorChoice::kAsyncBatch};
  options.mirrorLinkCounts = {1, 2, 4, 8};
  const std::vector<CandidateSpec> eager =
      optimizer::enumerateDesignSpace(options);
  DesignSpaceCursor cursor(options);
  const std::vector<CandidateSpec> streamed = drain(cursor);
  ASSERT_EQ(streamed.size(), eager.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    ASSERT_EQ(streamed[i], eager[i]) << "diverges at candidate " << i;
  }
  EXPECT_EQ(cursor.enumerated(), optimizer::gridCardinality(options));
}

TEST(DesignSpaceCursor, HandlesEmptyAxes) {
  DesignSpaceOptions options;
  options.pitChoices = {};
  DesignSpaceCursor empty(options);
  CandidateSpec spec;
  EXPECT_FALSE(empty.next(spec));
  EXPECT_EQ(optimizer::gridCardinality(options), 0u);

  // An empty dependent axis wipes out only the prefixes that need it.
  DesignSpaceOptions noPitAccW;
  noPitAccW.pitAccWs = {};
  const std::vector<CandidateSpec> eager =
      optimizer::enumerateDesignSpace(noPitAccW);
  DesignSpaceCursor cursor(noPitAccW);
  const std::vector<CandidateSpec> streamed = drain(cursor);
  ASSERT_EQ(streamed.size(), eager.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    ASSERT_EQ(streamed[i], eager[i]);
  }
  EXPECT_EQ(cursor.enumerated(), optimizer::gridCardinality(noPitAccW));
}

TEST(DesignSpaceCursor, GridCardinalityCountsEveryPoint) {
  // Against a brute-force drain that also counts invalid combinations.
  DesignSpaceOptions options;
  options.pitRetentionCounts = {1, 4};
  DesignSpaceCursor cursor(options);
  (void)drain(cursor);
  EXPECT_EQ(cursor.enumerated(), optimizer::gridCardinality(options));
  EXPECT_GT(cursor.enumerated(), cursor.produced());  // invalid points exist
}

// ---- Streaming search ------------------------------------------------------

TEST(StreamingSearch, IdenticalToVectorAndSerialSweeps) {
  const WorkloadSpec workload = casestudy::celloWorkload();
  const BusinessRequirements business = casestudy::requirements();
  const std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();
  const std::vector<CandidateSpec> candidates =
      optimizer::enumerateDesignSpace();

  const optimizer::SearchResult serial = optimizer::searchDesignSpaceSerial(
      candidates, workload, business, scenarios);

  engine::Engine eng(engine::EngineOptions{.threads = 4});
  optimizer::SearchOptions options;
  options.eng = &eng;
  options.streamChunk = 7;  // force many partial waves
  DesignSpaceCursor cursor;
  const optimizer::SearchResult streamed = optimizer::searchDesignSpaceStreaming(
      cursor, workload, business, scenarios, options);

  ASSERT_EQ(streamed.evaluated, serial.evaluated);
  ASSERT_EQ(streamed.ranked.size(), serial.ranked.size());
  ASSERT_EQ(streamed.rejected.size(), serial.rejected.size());
  EXPECT_FALSE(streamed.cancelled);
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(streamed.ranked[i].label, serial.ranked[i].label);
    EXPECT_EQ(streamed.ranked[i].totalCost.raw(),
              serial.ranked[i].totalCost.raw());
    EXPECT_EQ(streamed.ranked[i].worstRecoveryTime.raw(),
              serial.ranked[i].worstRecoveryTime.raw());
    EXPECT_EQ(streamed.ranked[i].worstDataLoss.raw(),
              serial.ranked[i].worstDataLoss.raw());
  }
  EXPECT_GT(streamed.wallSeconds, 0.0);
  EXPECT_GT(streamed.candidatesPerSec, 0.0);
}

TEST(StreamingSearch, ResumesFromVectorSweepJournal) {
  const WorkloadSpec workload = casestudy::celloWorkload();
  const BusinessRequirements business = casestudy::requirements();
  const std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();
  const std::vector<CandidateSpec> candidates =
      optimizer::enumerateDesignSpace();

  const std::string path =
      testing::TempDir() + "/streaming_resume_journal.jsonl";
  std::remove(path.c_str());

  engine::Engine eng(engine::EngineOptions{.threads = 2});
  optimizer::SearchOptions first;
  first.eng = &eng;
  first.checkpointPath = path;
  const optimizer::SearchResult full = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, first);
  ASSERT_FALSE(full.cancelled);

  optimizer::SearchOptions second = first;
  second.streamChunk = 16;
  DesignSpaceCursor cursor;
  const optimizer::SearchResult resumed = optimizer::searchDesignSpaceStreaming(
      cursor, workload, business, scenarios, second);
  EXPECT_EQ(resumed.skipped, full.evaluated);
  ASSERT_EQ(resumed.ranked.size(), full.ranked.size());
  for (std::size_t i = 0; i < full.ranked.size(); ++i) {
    EXPECT_EQ(resumed.ranked[i].label, full.ranked[i].label);
    EXPECT_EQ(resumed.ranked[i].totalCost.raw(),
              full.ranked[i].totalCost.raw());
  }
  std::remove(path.c_str());
}

TEST(EvalCacheStats, ProbesCountLookupTraffic) {
  engine::EvalCache cache;
  const Fingerprint key{3, 4};
  (void)cache.lookup(key);
  (void)cache.lookup(key);
  const engine::EvalCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.probes, stats.hits + stats.misses);
  EXPECT_EQ(stats.probes, 2u);
}


// A remote mirror may name any array as its "source". Asked with a null
// restore target, the mirror's leg runs back to that source, so
// StorageDesign::devices() lists it even though no level stores RPs on it
// or places a demand there. designToJson() writes that device list and
// fingerprintDesign() hashes it; the literals below were recorded before
// techniques described their levels as rows.
TEST(DeviceOrder, NullRestoreTargetKeepsANonPrimaryMirrorSource) {
  const StorageDesign design = config::designFromJson(config::Json::parse(
      R"json({
  "name": "mirror of a staging array",
  "workload": {
    "name": "small",
    "dataCap": 1099511627776,
    "avgAccessR": 1048576,
    "avgUpdateR": 524288,
    "burstM": 4,
    "batchUpdR": [
      {
        "window": 60,
        "rate": 524288
      },
      {
        "window": 86400,
        "rate": 262144
      }
    ]
  },
  "business": {
    "unavailPenRatePerHour": 1000,
    "lossPenRatePerHour": 2000
  },
  "devices": [
    {
      "type": "disk_array",
      "raid": "RAID-1",
      "raidGroupSize": 8,
      "name": "primary-array",
      "location": {
        "site": "primary-site"
      },
      "maxCapSlots": 64,
      "slotCap": 78383153152,
      "maxBWSlots": 64,
      "slotBW": 26214400,
      "enclBW": 536870912,
      "devDelay": 0,
      "costs": {
        "fixed": 1000,
        "perGB": 1,
        "perMBps": 0,
        "perShipment": 0
      },
      "spare": {
        "type": "none"
      }
    },
    {
      "type": "network_link",
      "linkCount": 2,
      "perLinkBW": 19375000,
      "name": "wan-links",
      "location": {
        "site": "wide-area"
      },
      "maxCapSlots": 0,
      "slotCap": 0,
      "maxBWSlots": 2,
      "slotBW": 19375000,
      "enclBW": 0,
      "devDelay": 0.05,
      "costs": {
        "fixed": 0,
        "perGB": 0,
        "perMBps": 10,
        "perShipment": 0
      },
      "spare": {
        "type": "none"
      }
    },
    {
      "type": "disk_array",
      "raid": "RAID-5",
      "raidGroupSize": 8,
      "name": "mirror-array",
      "location": {
        "site": "mirror-site"
      },
      "maxCapSlots": 64,
      "slotCap": 78383153152,
      "maxBWSlots": 64,
      "slotBW": 26214400,
      "enclBW": 536870912,
      "devDelay": 0,
      "costs": {
        "fixed": 500,
        "perGB": 1,
        "perMBps": 0,
        "perShipment": 0
      },
      "spare": {
        "type": "none"
      }
    },
    {
      "type": "disk_array",
      "raid": "RAID-1",
      "raidGroupSize": 8,
      "name": "staging-array",
      "location": {
        "site": "staging-site"
      },
      "maxCapSlots": 64,
      "slotCap": 78383153152,
      "maxBWSlots": 64,
      "slotBW": 26214400,
      "enclBW": 536870912,
      "devDelay": 0,
      "costs": {
        "fixed": 700,
        "perGB": 1,
        "perMBps": 0,
        "perShipment": 0
      },
      "spare": {
        "type": "none"
      }
    }
  ],
  "levels": [
    {
      "technique": "primary_copy",
      "array": "primary-array"
    },
    {
      "technique": "remote_mirror",
      "name": "staging mirror",
      "mode": "async",
      "source": "staging-array",
      "destination": "mirror-array",
      "links": "wan-links",
      "policy": {
        "windows": {
          "accW": 0,
          "propW": 0,
          "holdW": 0,
          "propRep": "partial"
        },
        "retCnt": 1,
        "retW": 0,
        "copyRep": "full"
      }
    }
  ]
})json"));
  std::vector<std::string> names;
  for (const DevicePtr& device : design.devices()) {
    names.push_back(device->name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"primary-array", "mirror-array",
                                             "wan-links", "staging-array"}));
  EXPECT_EQ(config::designToJson(design).dump(),
      "{\"name\":\"mirror of a staging array\", "
      "\"workload\":{\"name\":\"small\", \"dataCap\":1099511627776, "
      "\"avgAccessR\":1048576, \"avgUpdateR\":524288, \"burstM\":4, "
      "\"batchUpdR\":[{\"window\":60, \"rate\":524288}, {\"window\":86400, "
      "\"rate\":262144}]}, \"business\":{\"unavailPenRatePerHour\":1000, "
      "\"lossPenRatePerHour\":2000}, \"devices\":[{\"type\":\"disk_array\", "
      "\"raid\":\"RAID-1\", \"raidGroupSize\":8, \"name\":\"primary-array\", "
      "\"location\":{\"site\":\"primary-site\"}, \"maxCapSlots\":64, "
      "\"slotCap\":78383153152, \"maxBWSlots\":64, \"slotBW\":26214400, "
      "\"enclBW\":536870912, \"devDelay\":0, \"costs\":{\"fixed\":1000, "
      "\"perGB\":1, \"perMBps\":0, \"perShipment\":0}, "
      "\"spare\":{\"type\":\"none\"}}, {\"type\":\"disk_array\", "
      "\"raid\":\"RAID-5\", \"raidGroupSize\":8, \"name\":\"mirror-array\", "
      "\"location\":{\"site\":\"mirror-site\"}, \"maxCapSlots\":64, "
      "\"slotCap\":78383153152, \"maxBWSlots\":64, \"slotBW\":26214400, "
      "\"enclBW\":536870912, \"devDelay\":0, \"costs\":{\"fixed\":500, "
      "\"perGB\":1, \"perMBps\":0, \"perShipment\":0}, "
      "\"spare\":{\"type\":\"none\"}}, {\"type\":\"network_link\", "
      "\"linkCount\":2, \"perLinkBW\":19375000, \"name\":\"wan-links\", "
      "\"location\":{\"site\":\"wide-area\"}, \"maxCapSlots\":0, "
      "\"slotCap\":0, \"maxBWSlots\":2, \"slotBW\":19375000, \"enclBW\":0, "
      "\"devDelay\":0.050000000000000003, \"costs\":{\"fixed\":0, "
      "\"perGB\":0, \"perMBps\":10, \"perShipment\":0}, "
      "\"spare\":{\"type\":\"none\"}}, {\"type\":\"disk_array\", "
      "\"raid\":\"RAID-1\", \"raidGroupSize\":8, \"name\":\"staging-array\", "
      "\"location\":{\"site\":\"staging-site\"}, \"maxCapSlots\":64, "
      "\"slotCap\":78383153152, \"maxBWSlots\":64, \"slotBW\":26214400, "
      "\"enclBW\":536870912, \"devDelay\":0, \"costs\":{\"fixed\":700, "
      "\"perGB\":1, \"perMBps\":0, \"perShipment\":0}, "
      "\"spare\":{\"type\":\"none\"}}], "
      "\"levels\":[{\"technique\":\"primary_copy\", "
      "\"array\":\"primary-array\"}, {\"technique\":\"remote_mirror\", "
      "\"name\":\"staging mirror\", \"mode\":\"async\", "
      "\"source\":\"staging-array\", \"destination\":\"mirror-array\", "
      "\"links\":\"wan-links\", \"policy\":{\"windows\":{\"accW\":0, "
      "\"propW\":0, \"holdW\":0, \"propRep\":\"partial\"}, \"retCnt\":1, "
      "\"retW\":0, \"copyRep\":\"full\"}}]}");
  const Fingerprint fp = engine::fingerprintDesign(design);
  EXPECT_EQ(fp.hi, 0x54815dba23d648e2ull);
  EXPECT_EQ(fp.lo, 0xde10062d1a2d3ec9ull);
}

}  // namespace
}  // namespace stordep
