// Tests for the data-protection technique models: each technique's
// normal-mode demand conversion (paper Sec 3.2.3), validated against the
// case study's published Table 5 numbers where applicable.
#include <gtest/gtest.h>

#include <map>

#include "casestudy/casestudy.hpp"
#include "core/techniques/backup.hpp"
#include "core/techniques/foreground.hpp"
#include "core/techniques/remote_mirror.hpp"
#include "core/techniques/snapshot.hpp"
#include "core/techniques/split_mirror.hpp"
#include "core/techniques/vaulting.hpp"
#include "devices/catalog.hpp"

namespace stordep {
namespace {

WorkloadSpec cello() { return casestudy::celloWorkload(); }

DevicePtr array() {
  return catalog::midrangeDiskArray("array", Location::at("site"));
}
DevicePtr library() {
  return catalog::enterpriseTapeLibrary("library", Location::at("site"));
}

ProtectionPolicy simplePolicy(Duration accW, Duration propW, Duration holdW,
                              int retCnt, Duration retW) {
  return ProtectionPolicy(WindowSpec{.accW = accW,
                                     .propW = propW,
                                     .holdW = holdW,
                                     .propRep = Representation::kFull},
                          retCnt, retW);
}

/// The rows a technique appends on its own.
LevelRows rowsOf(const Technique& tech, const WorkloadSpec& w,
                 const DeviceModel* primaryTarget = nullptr) {
  LevelRows rows;
  tech.appendRows(w, primaryTarget, rows);
  return rows;
}

/// Sums a technique's demands on one device.
std::pair<Bandwidth, Bytes> demandOn(const Technique& tech,
                                     const WorkloadSpec& w,
                                     const DevicePtr& device) {
  Bandwidth bw = Bandwidth::zero();
  Bytes cap{0};
  for (const DemandRow& d : rowsOf(tech, w).demands) {
    if (d.device == device.get()) {
      bw += d.bandwidth;
      cap += d.capacity;
    }
  }
  return {bw, cap};
}

TEST(PrimaryCopy, ForegroundDemands) {
  const auto a = array();
  const PrimaryCopy primary(a);
  const auto [bw, cap] = demandOn(primary, cello(), a);
  // Table 5: foreground = 0.2% of 512 MB/s and 14.6% of the array.
  EXPECT_NEAR(bw.mbPerSec(), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(cap.gigabytes(), 1360.0);
  EXPECT_NEAR(bw / a->maxBandwidth(), 0.002, 0.0002);
  EXPECT_NEAR(cap / a->usableCapacity(), 0.146, 0.001);
  EXPECT_TRUE(rowsOf(primary, cello()).demands[0].isPrimaryTechnique);
  EXPECT_EQ(primary.policy(), nullptr);
}

TEST(PrimaryCopy, RequiresArray) {
  EXPECT_THROW(PrimaryCopy(nullptr), TechniqueError);
}

TEST(SplitMirror, DemandsMatchTable5) {
  const auto a = array();
  const SplitMirror sm("split mirror", a,
                       simplePolicy(hours(12), Duration::zero(),
                                    Duration::zero(), 4, days(2)));
  EXPECT_EQ(sm.mirrorCount(), 5);
  const auto [bw, cap] = demandOn(sm, cello(), a);
  // Table 5: split mirror = 72.8% capacity (6800 GB of 9344) and 0.6% bw.
  EXPECT_DOUBLE_EQ(cap.gigabytes(), 5 * 1360.0);
  EXPECT_NEAR(cap / a->usableCapacity(), 0.728, 0.001);
  EXPECT_NEAR(bw.mbPerSec(), 3.17, 0.1);
  EXPECT_NEAR(bw / a->maxBandwidth(), 0.006, 0.0005);
}

TEST(SplitMirror, RestoreIsIntraArrayCopy) {
  const auto a = array();
  const SplitMirror sm("sm", a,
                       simplePolicy(hours(12), Duration::zero(),
                                    Duration::zero(), 4, days(2)));
  const auto legs = rowsOf(sm, cello(), a.get()).legs;
  ASSERT_EQ(legs.size(), 1u);
  EXPECT_EQ(legs[0].from, a.get());
  EXPECT_EQ(legs[0].to, a.get());
  EXPECT_EQ(legs[0].via, nullptr);
}

TEST(VirtualSnapshot, CowDemands) {
  const auto a = array();
  const VirtualSnapshot snap("snap", a,
                             simplePolicy(hours(12), Duration::zero(),
                                          Duration::zero(), 4, days(2)));
  const auto [bw, cap] = demandOn(snap, cello(), a);
  // COW: an extra read + write per foreground write.
  EXPECT_NEAR(bw.kbPerSec(), 2 * 799.0, 1e-6);
  // Capacity: 4 snapshots x 12 h of unique updates (350 KB/s) ~ 56 GB —
  // two orders of magnitude below split mirrors.
  const double expectGB = 4 * 350.0 * 1024 * 12 * 3600 / (1024.0 * 1024 * 1024);
  EXPECT_NEAR(cap.gigabytes(), expectGB, 0.01);
  EXPECT_LT(cap.gigabytes(), 6800 / 50.0);
}

TEST(RemoteMirror, SyncSizedForPeakRate) {
  const auto src = array();
  const auto dst = catalog::midrangeDiskArray("remote", Location::at("far"));
  const auto links = catalog::oc3WanLinks("wan", Location::at("wide-area"), 10);
  const RemoteMirror m("sync", MirrorMode::kSync, src, dst, links,
                       continuousMirrorPolicy());
  // Peak = avgUpdateR x burstM = 7.8 MB/s.
  EXPECT_NEAR(m.propagationRate(cello()).kbPerSec(), 7990.0, 1e-6);
  const auto [linkBw, linkCap] = demandOn(m, cello(), links);
  EXPECT_NEAR(linkBw.kbPerSec(), 7990.0, 1e-6);
  EXPECT_DOUBLE_EQ(linkCap.bytes(), 0.0);
  const auto [dstBw, dstCap] = demandOn(m, cello(), dst);
  EXPECT_NEAR(dstBw.kbPerSec(), 7990.0, 1e-6);
  EXPECT_DOUBLE_EQ(dstCap.gigabytes(), 1360.0);
  // No demand on the source array's client interface.
  const auto [srcBw, srcCap] = demandOn(m, cello(), src);
  EXPECT_DOUBLE_EQ(srcBw.bytesPerSec(), 0.0);
  EXPECT_DOUBLE_EQ(srcCap.bytes(), 0.0);
}

TEST(RemoteMirror, AsyncSizedForAverageRate) {
  const auto src = array();
  const auto dst = catalog::midrangeDiskArray("remote", Location::at("far"));
  const auto links = catalog::oc3WanLinks("wan", Location::at("wide-area"), 1);
  const RemoteMirror m("async", MirrorMode::kAsync, src, dst, links,
                       continuousMirrorPolicy());
  EXPECT_NEAR(m.propagationRate(cello()).kbPerSec(), 799.0, 1e-6);
}

TEST(RemoteMirror, AsyncBatchSizedForUniqueUpdates) {
  const auto src = array();
  const auto dst = catalog::midrangeDiskArray("remote", Location::at("far"));
  const auto links = catalog::oc3WanLinks("wan", Location::at("wide-area"), 1);
  const RemoteMirror m(
      "asyncb", MirrorMode::kAsyncBatch, src, dst, links,
      simplePolicy(minutes(1), minutes(1), Duration::zero(), 1, minutes(1)));
  // 1-minute batches: coalesced unique rate 727 KB/s (Table 2).
  EXPECT_NEAR(m.propagationRate(cello()).kbPerSec(), 727.0, 1e-6);
  // Batch coalescing beats shipping every update, which beats sync peak.
  const RemoteMirror async("a", MirrorMode::kAsync, src, dst, links,
                           continuousMirrorPolicy());
  const RemoteMirror sync("s", MirrorMode::kSync, src, dst, links,
                          continuousMirrorPolicy());
  EXPECT_LT(m.propagationRate(cello()).bytesPerSec(),
            async.propagationRate(cello()).bytesPerSec());
  EXPECT_LT(async.propagationRate(cello()).bytesPerSec(),
            sync.propagationRate(cello()).bytesPerSec());
}

TEST(RemoteMirror, Validation) {
  const auto src = array();
  const auto dst = catalog::midrangeDiskArray("remote", Location::at("far"));
  const auto links = catalog::oc3WanLinks("wan", Location::at("wide-area"), 1);
  EXPECT_THROW(RemoteMirror("m", MirrorMode::kSync, src, src, links,
                            continuousMirrorPolicy()),
               TechniqueError);
  EXPECT_THROW(RemoteMirror("m", MirrorMode::kSync, nullptr, dst, links,
                            continuousMirrorPolicy()),
               TechniqueError);
  // Async-batch needs a real batch window.
  EXPECT_THROW(RemoteMirror("m", MirrorMode::kAsyncBatch, src, dst, links,
                            continuousMirrorPolicy()),
               TechniqueError);
}

TEST(Backup, FullOnlyDemandsMatchTable5) {
  const auto a = array();
  const auto lib = library();
  const Backup b("tape backup", BackupStyle::kFullOnly, a, lib,
                 simplePolicy(weeks(1), hours(48), hours(1), 4, weeks(4)));
  // Full rate: 1360 GB / 48 h ~ 8.06 MB/s.
  EXPECT_NEAR(b.transferRate(cello()).mbPerSec(), 8.06, 0.01);
  const auto [arrBw, arrCap] = demandOn(b, cello(), a);
  EXPECT_NEAR(arrBw.mbPerSec(), 8.06, 0.01);
  EXPECT_DOUBLE_EQ(arrCap.bytes(), 0.0);  // PiT copy provides the image
  const auto [libBw, libCap] = demandOn(b, cello(), lib);
  EXPECT_NEAR(libBw.mbPerSec(), 8.06, 0.01);
  // Table 5: 4 retained fulls + 1 extra = 6800 GB ("6.6 TB", 3.4%).
  EXPECT_DOUBLE_EQ(libCap.gigabytes(), 5 * 1360.0);
  EXPECT_NEAR(libCap / lib->usableCapacity(), 0.034, 0.001);
}

TEST(Backup, CumulativeIncrementalCycle) {
  const auto a = array();
  const auto lib = library();
  const ProtectionPolicy policy(
      WindowSpec{.accW = weeks(1), .propW = hours(48), .holdW = hours(1)},
      WindowSpec{.accW = hours(24), .propW = hours(12), .holdW = hours(1)},
      /*cycleCount=*/5, weeks(1), 4, weeks(4));
  const Backup b("f+i", BackupStyle::kCumulativeIncremental, a, lib, policy);

  // Largest cumulative incremental: 5 days of unique updates at 317 KB/s
  // ~ 130 GB, over 12 h ~ 3.1 MB/s < the full's 8.06 MB/s.
  EXPECT_NEAR(b.transferRate(cello()).mbPerSec(), 8.06, 0.01);

  // Cycle capacity: full + sum of growing cumulative incrementals.
  const WorkloadSpec w = cello();
  Bytes expected = w.dataCap();
  for (int k = 1; k <= 5; ++k) {
    expected += w.uniqueBytes(hours(24 * k));
  }
  EXPECT_TRUE(approxEqual(b.cycleCapacity(w), expected, 1e-9));

  // Restore payload: the full plus the largest incremental.
  EXPECT_TRUE(approxEqual(b.restorePayload(w, w.dataCap()),
                          w.dataCap() + w.uniqueBytes(hours(120)), 1e-9));
}

TEST(Backup, DifferentialIncrementalCycle) {
  const auto a = array();
  const auto lib = library();
  const ProtectionPolicy policy(
      WindowSpec{.accW = weeks(1), .propW = hours(48), .holdW = hours(1)},
      WindowSpec{.accW = hours(24), .propW = hours(12), .holdW = hours(1)},
      /*cycleCount=*/5, weeks(1), 4, weeks(4));
  const Backup b("f+d", BackupStyle::kDifferentialIncremental, a, lib, policy);
  const WorkloadSpec w = cello();
  // Each differential covers exactly one day.
  const Bytes daily = w.uniqueBytes(hours(24));
  EXPECT_TRUE(approxEqual(b.cycleCapacity(w),
                          w.dataCap() + daily * 5.0, 1e-9));
  // Restore must replay all five differentials.
  EXPECT_TRUE(approxEqual(b.restorePayload(w, w.dataCap()),
                          w.dataCap() + daily * 5.0, 1e-9));
  // Differentials are individually smaller than the largest cumulative.
  const Backup cum("f+i", BackupStyle::kCumulativeIncremental, a, lib, policy);
  EXPECT_LT(b.transferRate(w).bytesPerSec() - 1.0,
            cum.transferRate(w).bytesPerSec());
}

TEST(Backup, PartialObjectRestoreScalesIncrementals) {
  const auto a = array();
  const auto lib = library();
  const ProtectionPolicy policy(
      WindowSpec{.accW = weeks(1), .propW = hours(48), .holdW = hours(1)},
      WindowSpec{.accW = hours(24), .propW = hours(12), .holdW = hours(1)}, 5,
      weeks(1), 4, weeks(4));
  const Backup b("f+i", BackupStyle::kCumulativeIncremental, a, lib, policy);
  const WorkloadSpec w = cello();
  const Bytes small = b.restorePayload(w, megabytes(1));
  // Restoring 1 MB reads ~1 MB + a proportional sliver of incrementals.
  EXPECT_LT(small.megabytes(), 2.0);
  EXPECT_GE(small.megabytes(), 1.0);
}

TEST(Backup, Validation) {
  const auto a = array();
  const auto lib = library();
  // Zero propagation window.
  EXPECT_THROW(Backup("b", BackupStyle::kFullOnly, a, lib,
                      simplePolicy(weeks(1), Duration::zero(), hours(1), 4,
                                   weeks(4))),
               TechniqueError);
  // Incremental style without a cyclic policy.
  EXPECT_THROW(Backup("b", BackupStyle::kCumulativeIncremental, a, lib,
                      simplePolicy(weeks(1), hours(48), hours(1), 4, weeks(4))),
               TechniqueError);
  // Full-only with a cyclic policy.
  const ProtectionPolicy cyclic(
      WindowSpec{.accW = weeks(1), .propW = hours(48), .holdW = hours(1)},
      WindowSpec{.accW = hours(24), .propW = hours(12), .holdW = hours(1)}, 5,
      weeks(1), 4, weeks(4));
  EXPECT_THROW(Backup("b", BackupStyle::kFullOnly, a, lib, cyclic),
               TechniqueError);
}

TEST(Vaulting, NoExtraDemandsWhenHoldCoversRetention) {
  const auto lib = library();
  const auto vault = catalog::offsiteTapeVault("vault", Location::at("far"));
  const auto air = catalog::overnightAirShipment("air", Location::at("t"));
  // Baseline: holdW (4 wk + 12 h) >= backup retW (4 wk).
  const Vaulting v("vault", lib, vault, air,
                   simplePolicy(weeks(4), hours(24), weeks(4) + hours(12), 39,
                                years(3)),
                   /*backupRetentionWindow=*/weeks(4));
  EXPECT_FALSE(v.needsExtraCopy());
  const auto [libBw, libCap] = demandOn(v, cello(), lib);
  EXPECT_DOUBLE_EQ(libBw.bytesPerSec(), 0.0);
  EXPECT_DOUBLE_EQ(libCap.bytes(), 0.0);
  // Table 5: 39 fulls = 51.8 TB, 2.6% of the vault.
  const auto [vBw, vCap] = demandOn(v, cello(), vault);
  EXPECT_DOUBLE_EQ(vCap.gigabytes(), 39 * 1360.0);
  EXPECT_NEAR(vCap / vault->usableCapacity(), 0.026, 0.001);
  EXPECT_DOUBLE_EQ(vBw.bytesPerSec(), 0.0);
  // 13 shipments per year (every 4 weeks).
  EXPECT_NEAR(v.shipmentsPerYear(), 365.0 / 28.0, 1e-9);
}

TEST(Vaulting, ExtraCopyWhenShippingEarly) {
  const auto lib = library();
  const auto vault = catalog::offsiteTapeVault("vault", Location::at("far"));
  const auto air = catalog::overnightAirShipment("air", Location::at("t"));
  // Weekly vaulting with a 12 h hold ships tapes well before the 4-week
  // backup retention expires: the library must cut a copy first.
  const Vaulting v("vault", lib, vault, air,
                   simplePolicy(weeks(1), hours(24), hours(12), 157, years(3)),
                   /*backupRetentionWindow=*/weeks(4));
  EXPECT_TRUE(v.needsExtraCopy());
  const auto [libBw, libCap] = demandOn(v, cello(), lib);
  // Read + write of one full within the 24 h propagation window.
  EXPECT_NEAR(libBw.mbPerSec(), 2 * 1360.0 * 1024 / (24 * 3600), 0.1);
  EXPECT_DOUBLE_EQ(libCap.gigabytes(), 1360.0);
}

TEST(Vaulting, RecoveryPathShipsThenReads) {
  const auto lib = library();
  const auto vault = catalog::offsiteTapeVault("vault", Location::at("far"));
  const auto air = catalog::overnightAirShipment("air", Location::at("t"));
  const auto a = array();
  const Vaulting v("vault", lib, vault, air,
                   simplePolicy(weeks(4), hours(24), weeks(4) + hours(12), 39,
                                years(3)),
                   weeks(4));
  const auto legs = rowsOf(v, cello(), a.get()).legs;
  ASSERT_EQ(legs.size(), 2u);
  EXPECT_EQ(legs[0].from, vault.get());
  EXPECT_EQ(legs[0].to, lib.get());
  EXPECT_EQ(legs[0].via, air.get());
  EXPECT_EQ(legs[1].from, lib.get());
  EXPECT_EQ(legs[1].to, a.get());
  EXPECT_EQ(legs[1].serializedFix, lib->accessDelay());
}

TEST(Vaulting, Validation) {
  const auto lib = library();
  const auto vault = catalog::offsiteTapeVault("vault", Location::at("far"));
  const auto air = catalog::overnightAirShipment("air", Location::at("t"));
  EXPECT_THROW(Vaulting("v", lib, vault, /*shipment=*/lib,
                        ProtectionPolicy(WindowSpec{.accW = weeks(4),
                                                    .propW = hours(24),
                                                    .holdW = weeks(4)},
                                         39, years(3)),
                        weeks(4)),
               TechniqueError);  // shipment must be a transport
  EXPECT_THROW(Vaulting("v", nullptr, vault, air,
                        ProtectionPolicy(WindowSpec{.accW = weeks(4),
                                                    .propW = hours(24),
                                                    .holdW = weeks(4)},
                                         39, years(3)),
                        weeks(4)),
               TechniqueError);
}

TEST(TechniqueKind, Names) {
  EXPECT_EQ(toString(TechniqueKind::kPrimaryCopy), "foreground workload");
  EXPECT_EQ(toString(TechniqueKind::kSplitMirror), "split mirror");
  EXPECT_EQ(toString(TechniqueKind::kVirtualSnapshot), "virtual snapshot");
  EXPECT_EQ(toString(TechniqueKind::kSyncMirror), "sync mirror");
  EXPECT_EQ(toString(TechniqueKind::kAsyncMirror), "async mirror");
  EXPECT_EQ(toString(TechniqueKind::kAsyncBatchMirror), "async batch mirror");
  EXPECT_EQ(toString(TechniqueKind::kBackup), "backup");
  EXPECT_EQ(toString(TechniqueKind::kVaulting), "vaulting");
  EXPECT_EQ(toString(MirrorMode::kSync), "sync");
  EXPECT_EQ(toString(BackupStyle::kFullOnly), "full-only");
}

}  // namespace
}  // namespace stordep
