// Tests for core/recovery: the drain/apply recovery-time model (paper
// Sec 3.3.4, Figure 4), validated against the paper's published recovery
// times for the case study (Tables 6 and 7).
#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include "casestudy/casestudy.hpp"
#include "core/techniques/remote_mirror.hpp"
#include "devices/catalog.hpp"

namespace stordep {
namespace {

using casestudy::arrayFailure;
using casestudy::baseline;
using casestudy::objectFailure;
using casestudy::siteDisaster;

TEST(Recovery, ObjectFailureIsIntraArrayCopy) {
  const RecoveryResult r = computeRecovery(baseline(), objectFailure());
  ASSERT_TRUE(r.recoverable);
  EXPECT_EQ(r.sourceLevel, 1);
  EXPECT_EQ(r.dataLoss, hours(12));
  // Paper Table 6: 0.004 s (1 MB read + write on the array).
  EXPECT_NEAR(r.recoveryTime.secs(), 0.004, 0.0005);
  ASSERT_EQ(r.timeline.size(), 1u);
  EXPECT_EQ(r.timeline[0].fromDevice, casestudy::kPrimaryArrayName);
  EXPECT_EQ(r.timeline[0].toDevice, casestudy::kPrimaryArrayName);
}

TEST(Recovery, ArrayFailureRestoresFromTape) {
  const RecoveryResult r = computeRecovery(baseline(), arrayFailure());
  ASSERT_TRUE(r.recoverable);
  EXPECT_EQ(r.sourceLevel, 2);
  EXPECT_EQ(r.dataLoss, hours(217));
  // Paper Table 6: 2.4 hr — tape read (~1.7 h at 232 MB/s) + apply onto the
  // freshly provisioned spare (~0.76 h at 512 MB/s) + load/seek + spare
  // provisioning.
  EXPECT_NEAR(r.recoveryTime.hrs(), 2.4, 0.15);
  // The spare was provisioned, not the facility.
  ASSERT_FALSE(r.notes.empty());
  EXPECT_NE(r.notes[0].find("spare"), std::string::npos);
  // Payload is one full image.
  EXPECT_EQ(r.payload, gigabytes(1360));
}

TEST(Recovery, SiteDisasterShipsFromVault) {
  const RecoveryResult r = computeRecovery(baseline(), siteDisaster());
  ASSERT_TRUE(r.recoverable);
  EXPECT_EQ(r.sourceLevel, 3);
  EXPECT_EQ(r.dataLoss, hours(1429));
  // Paper Table 6: 26.4 hr = 24 h shipment + tape load + read + apply,
  // with the 9 h facility provisioning fully overlapped by the shipment.
  EXPECT_NEAR(r.recoveryTime.hrs(), 26.4, 0.2);
  ASSERT_EQ(r.timeline.size(), 2u);
  EXPECT_EQ(r.timeline[0].viaDevice, "air-shipment");
  EXPECT_EQ(r.timeline[0].transit, hours(24));
  // Facility provisioning appears in the notes.
  bool facilityNote = false;
  for (const auto& n : r.notes) {
    if (n.find("recovery facility") != std::string::npos) facilityNote = true;
  }
  EXPECT_TRUE(facilityNote);
}

TEST(Recovery, SiteDisasterOverlapsProvisioningWithShipping) {
  // If provisioning were serialized with shipping, RT would exceed 33 h.
  const RecoveryResult r = computeRecovery(baseline(), siteDisaster());
  EXPECT_LT(r.recoveryTime.hrs(), 28.0);
  EXPECT_GT(r.recoveryTime.hrs(), 24.0);  // the shipment is unavoidable
}

TEST(Recovery, AsyncBatchOneLinkTransferDominates) {
  const StorageDesign d = casestudy::asyncBatchMirror(1);
  const RecoveryResult array = computeRecovery(d, arrayFailure());
  ASSERT_TRUE(array.recoverable);
  // Paper Table 7: 21.7 hr (WAN drain ~20.8 h + apply 0.76 h).
  EXPECT_NEAR(array.recoveryTime.hrs(), 21.7, 0.8);
  const RecoveryResult site = computeRecovery(d, siteDisaster());
  ASSERT_TRUE(site.recoverable);
  // Site disaster: the 9 h facility provisioning hides inside the WAN
  // drain, so RT matches the array failure (paper: both 21.7 hr).
  EXPECT_NEAR(site.recoveryTime.hrs(), array.recoveryTime.hrs(), 0.1);
}

TEST(Recovery, AsyncBatchTenLinksProvisioningDominates) {
  const StorageDesign d = casestudy::asyncBatchMirror(10);
  const RecoveryResult array = computeRecovery(d, arrayFailure());
  ASSERT_TRUE(array.recoverable);
  // Paper Table 7: 2.8 hr (drain ~2 h + apply 0.76 h).
  EXPECT_NEAR(array.recoveryTime.hrs(), 2.8, 0.2);
  const RecoveryResult site = computeRecovery(d, siteDisaster());
  ASSERT_TRUE(site.recoverable);
  // Paper: 9.8 hr — now the 9 h provisioning dominates the 2 h drain.
  EXPECT_NEAR(site.recoveryTime.hrs(), 9.8, 0.2);
  EXPECT_GT(site.recoveryTime, array.recoveryTime);
}

TEST(Recovery, MoreLinksNeverSlowRecovery) {
  Duration prev = Duration::infinite();
  for (int links : {1, 2, 4, 8, 16}) {
    const StorageDesign d = casestudy::asyncBatchMirror(links);
    const RecoveryResult r = computeRecovery(d, arrayFailure());
    ASSERT_TRUE(r.recoverable) << links;
    EXPECT_LE(r.recoveryTime, prev) << links;
    prev = r.recoveryTime;
  }
}

TEST(Recovery, UnrecoverableWhenNoSourceSurvives) {
  // A region-wide disaster that takes the primary site, the mirror site and
  // the recovery facility: the asyncB design has no off-region copy.
  auto array = catalog::midrangeDiskArray(
      casestudy::kPrimaryArrayName,
      Location::at("primary-site", "b1", "west"));
  auto remote = catalog::midrangeDiskArray(
      "mirror-array", Location::at("mirror-site", "b1", "west"));
  auto links = catalog::oc3WanLinks("wan", Location::at("wide-area"), 1);
  std::vector<TechniquePtr> levels;
  levels.push_back(std::make_shared<PrimaryCopy>(array));
  levels.push_back(std::make_shared<RemoteMirror>(
      "mirror", MirrorMode::kAsyncBatch, array, remote, links,
      ProtectionPolicy(WindowSpec{.accW = minutes(1), .propW = minutes(1)},
                       1, minutes(1))));
  const StorageDesign d("regional", casestudy::celloWorkload(),
                        caseStudyRequirements(), std::move(levels),
                        RecoveryFacilitySpec{
                            .location = Location::at("fac", "b", "west"),
                            .provisioningTime = hours(9),
                            .costDiscount = 0.2});
  const RecoveryResult r =
      computeRecovery(d, FailureScenario::regionDisaster("west"));
  EXPECT_FALSE(r.recoverable);
  EXPECT_TRUE(r.recoveryTime.isInfinite());
  EXPECT_TRUE(r.dataLoss.isInfinite());
}

TEST(Recovery, NoFacilityMeansSiteDisasterUnrecoverable) {
  // Baseline design without a recovery facility: after a site disaster the
  // vault data survives but there is nowhere to restore it.
  const StorageDesign base = baseline();
  std::vector<TechniquePtr> levels;
  for (int i = 0; i < base.levelCount(); ++i) {
    levels.push_back(base.levelPtr(i));
  }
  const StorageDesign d("no-facility", base.workload(), base.business(),
                        std::move(levels), std::nullopt);
  const RecoveryResult r = computeRecovery(d, siteDisaster());
  EXPECT_FALSE(r.recoverable);
  // But an array failure still recovers via the dedicated spare.
  const RecoveryResult ar = computeRecovery(d, arrayFailure());
  EXPECT_TRUE(ar.recoverable);
}

TEST(Recovery, PrimarySurvivingFailureIsInstant) {
  const RecoveryResult r = computeRecovery(
      baseline(), FailureScenario::arrayFailure("tape-library"));
  ASSERT_TRUE(r.recoverable);
  EXPECT_EQ(r.sourceLevel, 0);
  EXPECT_EQ(r.recoveryTime, Duration::zero());
  EXPECT_EQ(r.dataLoss, Duration::zero());
}

TEST(Recovery, TimelineIsOrderedAndDecomposed) {
  const RecoveryResult r = computeRecovery(baseline(), siteDisaster());
  ASSERT_EQ(r.timeline.size(), 2u);
  const auto& ship = r.timeline[0];
  const auto& restore = r.timeline[1];
  EXPECT_LE(ship.startTime, ship.readyTime);
  EXPECT_LE(ship.readyTime, restore.readyTime);
  EXPECT_EQ(restore.readyTime, r.recoveryTime);
  // The restore leg decomposes into load + read + apply.
  EXPECT_EQ(restore.serFix, hours(0.01));
  EXPECT_GT(restore.serXfer.hrs(), 2.0);
  EXPECT_GT(restore.rate.mbPerSec(), 100.0);
}

TEST(Recovery, FullPlusIncrementalRestoresMorePayload) {
  const RecoveryResult fi = computeRecovery(
      casestudy::weeklyVaultFullPlusIncremental(), arrayFailure());
  const RecoveryResult base = computeRecovery(baseline(), arrayFailure());
  ASSERT_TRUE(fi.recoverable);
  // Full + largest cumulative incremental > full alone.
  EXPECT_GT(fi.payload, base.payload);
  EXPECT_GT(fi.recoveryTime, base.recoveryTime);
  // But the data loss is much smaller (73 h vs 217 h, Table 7).
  EXPECT_EQ(fi.dataLoss, hours(73));
  EXPECT_EQ(base.dataLoss, hours(217));
}

TEST(AvailableBandwidth, SubtractsContinuingDemands) {
  const StorageDesign d = baseline();
  DevicePtr lib;
  for (const auto& dev : d.devices()) {
    if (dev->name() == "tape-library") lib = dev;
  }
  ASSERT_TRUE(lib);
  const Bandwidth avail =
      availableBandwidth(d, *lib, gigabytes(1360), /*fresh=*/false);
  // 240 MB/s minus the ~8.06 MB/s backup write stream.
  EXPECT_NEAR(avail.mbPerSec(), 240 - 8.06, 0.1);
  const Bandwidth fresh =
      availableBandwidth(d, *lib, gigabytes(1360), /*fresh=*/true);
  EXPECT_DOUBLE_EQ(fresh.mbPerSec(), 240.0);
}

TEST(AvailableBandwidth, FloorsAtZeroWhenOverSubscribed) {
  const StorageDesign d = baseline();
  DevicePtr lib;
  for (const auto& dev : d.devices()) {
    if (dev->name() == "tape-library") lib = dev;
  }
  ASSERT_TRUE(lib);
  // A tiny payload engages one drive (60 MB/s); demands are ~8 MB/s, so
  // plenty remains — but never negative in any case.
  const Bandwidth avail = availableBandwidth(d, *lib, megabytes(1), false);
  EXPECT_GE(avail.bytesPerSec(), 0.0);
  EXPECT_NEAR(avail.mbPerSec(), 60 - 8.06, 0.1);
}

}  // namespace
}  // namespace stordep
