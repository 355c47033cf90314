#include "optimizer/design_space.hpp"

#include <algorithm>
#include <string>

#include "casestudy/casestudy.hpp"
#include "core/techniques/backup.hpp"
#include "core/techniques/remote_mirror.hpp"
#include "core/techniques/snapshot.hpp"
#include "core/techniques/split_mirror.hpp"
#include "core/techniques/vaulting.hpp"
#include "devices/catalog.hpp"

namespace stordep::optimizer {

std::string toString(PitChoice choice) {
  switch (choice) {
    case PitChoice::kNone:
      return "no-pit";
    case PitChoice::kSnapshot:
      return "snapshot";
    case PitChoice::kSplitMirror:
      return "split-mirror";
  }
  return "?";
}

std::string toString(BackupChoice choice) {
  switch (choice) {
    case BackupChoice::kNone:
      return "no-backup";
    case BackupChoice::kFullOnly:
      return "full";
    case BackupChoice::kFullPlusIncremental:
      return "full+incr";
  }
  return "?";
}

std::string toString(MirrorChoice choice) {
  switch (choice) {
    case MirrorChoice::kNone:
      return "no-mirror";
    case MirrorChoice::kSync:
      return "sync-mirror";
    case MirrorChoice::kAsync:
      return "async-mirror";
    case MirrorChoice::kAsyncBatch:
      return "asyncB-mirror";
  }
  return "?";
}

std::string CandidateSpec::label() const {
  std::string out;
  out.reserve(96);  // one allocation for every label of the grids swept
  auto sep = [&] {
    if (!out.empty()) out += " + ";
  };
  if (pit != PitChoice::kNone) {
    sep();
    out += toString(pit);
    out += '(';
    out += toString(pitAccW);
    out += " x";
    out += std::to_string(pitRetentionCount);
    out += ')';
  }
  if (backup != BackupChoice::kNone) {
    sep();
    out += toString(backup);
    out += '(';
    out += toString(backupAccW);
    out += ')';
    if (vault) {
      out += " + vault(";
      out += toString(vaultAccW);
      out += ')';
    }
  }
  if (mirror != MirrorChoice::kNone) {
    sep();
    out += toString(mirror);
    out += '(';
    out += std::to_string(mirrorLinkCount);
    out += mirrorLinkCount == 1 ? " link)" : " links)";
  }
  if (out.empty()) out = "primary-only";
  return out;
}

bool CandidateSpec::valid() const {
  if (vault && backup == BackupChoice::kNone) return false;
  if (pit == PitChoice::kNone && backup == BackupChoice::kNone &&
      mirror == MirrorChoice::kNone) {
    return false;  // no protection at all
  }
  // Backup needs a PiT technique for a consistent source image (the paper's
  // backup model assumes one).
  if (backup != BackupChoice::kNone && pit == PitChoice::kNone) return false;
  if (pit != PitChoice::kNone &&
      (!(pitAccW.secs() > 0) || pitRetentionCount < 1)) {
    return false;
  }
  if (backup != BackupChoice::kNone && !(backupAccW.secs() > 0)) return false;
  if (backup == BackupChoice::kFullPlusIncremental &&
      backupAccW < hours(48)) {
    return false;  // no room for daily incrementals inside the cycle
  }
  if (vault && vaultAccW < backupAccW) return false;
  if (mirror != MirrorChoice::kNone && mirrorLinkCount < 1) return false;
  return true;
}

namespace {

/// The catalog devices build() places, made by each thread on its first
/// build and shared, immutable, by every design that thread builds. A role's
/// key is every argument it is constructed with; all are constants here
/// except the WAN link count. Within one design the roles stay separate
/// devices, because computeOutlays and StorageDesign::devices() group by
/// pointer. The table is per thread, not per process: each candidate copies
/// these shared pointers into its techniques (the rows and plan tables built
/// from them hold plain pointers), and pool workers sharing one table would
/// all count on the same control blocks.
struct CatalogDevices {
  DevicePtr primaryArray = catalog::midrangeDiskArray(
      casestudy::kPrimaryArrayName, Location::at(casestudy::kPrimarySite));
  DevicePtr mirrorArray = catalog::midrangeDiskArray(
      "mirror-array", Location::at(casestudy::kMirrorSite), RaidLevel::kRaid1,
      SpareSpec::none());
  DevicePtr tapeLibrary = catalog::enterpriseTapeLibrary(
      "tape-library", Location::at(casestudy::kPrimarySite));
  DevicePtr tapeVault = catalog::offsiteTapeVault(
      "tape-vault", Location::at(casestudy::kVaultSite));
  DevicePtr airShipment = catalog::overnightAirShipment(
      "air-shipment", Location::at("in-transit"));
  /// Link devices by count, made on first use. Past kMaxLinkCounts distinct
  /// counts, further ones are built fresh per design and not kept.
  std::vector<std::pair<int, DevicePtr>> wanLinks;
  static constexpr std::size_t kMaxLinkCounts = 64;

  DevicePtr wanLinksFor(int count) {
    for (const auto& [key, links] : wanLinks) {
      if (key == count) return links;
    }
    DevicePtr links =
        catalog::oc3WanLinks("wan-links", Location::at("wide-area"), count);
    if (wanLinks.size() < kMaxLinkCounts) wanLinks.emplace_back(count, links);
    return links;
  }
};

}  // namespace

StorageDesign CandidateSpec::build(const WorkloadSpec& workload,
                                   const BusinessRequirements& business) const {
  namespace cs = casestudy;
  if (!valid()) {
    throw DesignError("cannot build invalid candidate: " + label());
  }

  static thread_local CatalogDevices devices;
  const DevicePtr& array = devices.primaryArray;
  std::vector<TechniquePtr> levels;
  levels.reserve(5);  // primary, PiT, mirror, backup, vault
  levels.push_back(std::make_shared<PrimaryCopy>(array));

  if (pit != PitChoice::kNone) {
    const ProtectionPolicy policy(
        WindowSpec{.accW = pitAccW,
                   .propW = Duration::zero(),
                   .holdW = Duration::zero(),
                   .propRep = pit == PitChoice::kSnapshot
                                  ? Representation::kPartial
                                  : Representation::kFull},
        pitRetentionCount, pitAccW * static_cast<double>(pitRetentionCount),
        pit == PitChoice::kSnapshot ? Representation::kPartial
                                    : Representation::kFull);
    if (pit == PitChoice::kSnapshot) {
      levels.push_back(
          std::make_shared<VirtualSnapshot>("snapshot", array, policy));
    } else {
      levels.push_back(
          std::make_shared<SplitMirror>("split mirror", array, policy));
    }
  }

  if (mirror != MirrorChoice::kNone) {
    ProtectionPolicy policy = continuousMirrorPolicy();
    MirrorMode mode = MirrorMode::kSync;
    if (mirror == MirrorChoice::kAsync) {
      mode = MirrorMode::kAsync;
    } else if (mirror == MirrorChoice::kAsyncBatch) {
      mode = MirrorMode::kAsyncBatch;
      policy = ProtectionPolicy(WindowSpec{.accW = minutes(1),
                                           .propW = minutes(1),
                                           .holdW = Duration::zero(),
                                           .propRep = Representation::kPartial},
                                1, minutes(1));
    }
    levels.push_back(std::make_shared<RemoteMirror>(
        toString(mirror), mode, array, devices.mirrorArray,
        devices.wanLinksFor(mirrorLinkCount), std::move(policy)));
  }

  if (backup != BackupChoice::kNone) {
    const DevicePtr& library = devices.tapeLibrary;
    const Duration propW = std::min(backupAccW * 0.5, hours(48));
    const Duration retW = weeks(4);
    const int retCnt = std::max(
        1, static_cast<int>(retW / backupAccW));
    ProtectionPolicy policy =
        backup == BackupChoice::kFullOnly
            ? ProtectionPolicy(WindowSpec{.accW = backupAccW,
                                          .propW = propW,
                                          .holdW = hours(1)},
                               retCnt, retW)
            : ProtectionPolicy(
                  WindowSpec{.accW = backupAccW,
                             .propW = propW,
                             .holdW = hours(1)},
                  WindowSpec{.accW = hours(24),
                             .propW = hours(12),
                             .holdW = hours(1),
                             .propRep = Representation::kPartial},
                  std::max(1, static_cast<int>(backupAccW / hours(24)) - 1),
                  backupAccW, retCnt, retW);
    levels.push_back(std::make_shared<Backup>(
        "tape backup",
        backup == BackupChoice::kFullOnly
            ? BackupStyle::kFullOnly
            : BackupStyle::kCumulativeIncremental,
        array, library, policy));

    if (vault) {
      const int vaultRetCnt = std::max(
          1, static_cast<int>(years(3) / vaultAccW));
      const ProtectionPolicy vaultPolicy(
          WindowSpec{.accW = vaultAccW,
                     .propW = hours(24),
                     .holdW = hours(12)},
          vaultRetCnt, years(3));
      levels.push_back(std::make_shared<Vaulting>(
          "remote vaulting", library, devices.tapeVault, devices.airShipment,
          vaultPolicy, retW));
    }
  }

  return StorageDesign(label(), workload, business, std::move(levels),
                       cs::recoveryFacility());
}

namespace {

// The odometer's digits form three independent groups: PiT (digits 0-2),
// backup/vault (3-6) and mirror (7-8). A group's points are the runs of its
// choices in order; a kNone choice collapses its dependent axes to a single
// point, and a choice over an empty axis has no points.

std::uint64_t pitPoints(const DesignSpaceOptions& options, PitChoice pit) {
  return pit == PitChoice::kNone
             ? 1
             : static_cast<std::uint64_t>(options.pitAccWs.size()) *
                   options.pitRetentionCounts.size();
}

/// Points under one backup interval: no vault, then one per vault interval.
std::uint64_t vaultPoints(const DesignSpaceOptions& options,
                          BackupChoice backup) {
  return backup == BackupChoice::kNone ? 1 : 1 + options.vaultAccWs.size();
}

std::uint64_t backupPoints(const DesignSpaceOptions& options,
                           BackupChoice backup) {
  const std::uint64_t intervals =
      backup == BackupChoice::kNone ? 1 : options.backupAccWs.size();
  return intervals * vaultPoints(options, backup);
}

std::uint64_t mirrorPoints(const DesignSpaceOptions& options,
                           MirrorChoice mirror) {
  return mirror == MirrorChoice::kNone ? 1 : options.mirrorLinkCounts.size();
}

template <typename Choice>
std::uint64_t groupPoints(
    const DesignSpaceOptions& options, const std::vector<Choice>& choices,
    std::uint64_t (*points)(const DesignSpaceOptions&, Choice)) {
  std::uint64_t total = 0;
  for (const Choice choice : choices) total += points(options, choice);
  return total;
}

/// The choice whose run holds group point `point` (below the group's total);
/// leaves in `point` its offset within that run.
template <typename Choice>
std::size_t choiceHolding(
    const DesignSpaceOptions& options, const std::vector<Choice>& choices,
    std::uint64_t (*points)(const DesignSpaceOptions&, Choice),
    std::uint64_t& point) {
  std::size_t c = 0;
  while (point >= points(options, choices[c])) {
    point -= points(options, choices[c++]);
  }
  return c;
}

}  // namespace

std::uint64_t gridCardinality(const DesignSpaceOptions& options) {
  return groupPoints(options, options.pitChoices, pitPoints) *
         groupPoints(options, options.backupChoices, backupPoints) *
         groupPoints(options, options.mirrorChoices, mirrorPoints);
}

DesignSpaceCursor::DesignSpaceCursor(DesignSpaceOptions options)
    : options_(std::move(options)) {}

std::size_t DesignSpaceCursor::extent(int digit) const {
  // Digit order (outer to inner) mirrors the nested enumeration loops;
  // collapsed axes have extent 1, their value pinned by specAt().
  switch (digit) {
    case 0:
      return options_.pitChoices.size();
    case 1:
      return options_.pitChoices[idx_[0]] == PitChoice::kNone
                 ? 1
                 : options_.pitAccWs.size();
    case 2:
      return options_.pitChoices[idx_[0]] == PitChoice::kNone
                 ? 1
                 : options_.pitRetentionCounts.size();
    case 3:
      return options_.backupChoices.size();
    case 4:
      return options_.backupChoices[idx_[3]] == BackupChoice::kNone
                 ? 1
                 : options_.backupAccWs.size();
    case 5:  // vault: {false} or {false, true}
      return options_.backupChoices[idx_[3]] == BackupChoice::kNone ? 1 : 2;
    case 6:
      return idx_[5] == 1 ? options_.vaultAccWs.size() : 1;
    case 7:
      return options_.mirrorChoices.size();
    default:
      return options_.mirrorChoices[idx_[7]] == MirrorChoice::kNone
                 ? 1
                 : options_.mirrorLinkCounts.size();
  }
}

CandidateSpec DesignSpaceCursor::specAt() const {
  CandidateSpec spec;
  spec.pit = options_.pitChoices[idx_[0]];
  const bool hasPit = spec.pit != PitChoice::kNone;
  spec.pitAccW = hasPit ? options_.pitAccWs[idx_[1]] : hours(12);
  spec.pitRetentionCount = hasPit ? options_.pitRetentionCounts[idx_[2]] : 1;
  spec.backup = options_.backupChoices[idx_[3]];
  const bool hasBackup = spec.backup != BackupChoice::kNone;
  spec.backupAccW = hasBackup ? options_.backupAccWs[idx_[4]] : weeks(1);
  spec.vault = hasBackup && idx_[5] == 1;
  spec.vaultAccW = spec.vault ? options_.vaultAccWs[idx_[6]] : weeks(4);
  spec.mirror = options_.mirrorChoices[idx_[7]];
  spec.mirrorLinkCount = spec.mirror == MirrorChoice::kNone
                             ? 1
                             : options_.mirrorLinkCounts[idx_[8]];
  return spec;
}

bool DesignSpaceCursor::positionFrom(int from) {
  // Iterative (not recursive): an empty inner axis under a long run of
  // outer values must not deepen the stack per skipped prefix.
  int digit = from;
  while (digit < kDepth) {
    if (extent(digit) > 0) {
      idx_[static_cast<std::size_t>(digit)] = 0;
      ++digit;
      continue;
    }
    // No point exists under the current prefix: advance the nearest outer
    // digit that can still move and restart positioning below it.
    int outer = digit - 1;
    while (outer >= 0 &&
           idx_[static_cast<std::size_t>(outer)] + 1 >= extent(outer)) {
      --outer;
    }
    if (outer < 0) {
      exhausted_ = true;
      return false;
    }
    ++idx_[static_cast<std::size_t>(outer)];
    digit = outer + 1;
  }
  return true;
}

bool DesignSpaceCursor::advance() {
  int digit = kDepth - 1;
  while (digit >= 0 &&
         idx_[static_cast<std::size_t>(digit)] + 1 >= extent(digit)) {
    --digit;
  }
  if (digit < 0) {
    exhausted_ = true;
    return false;
  }
  ++idx_[static_cast<std::size_t>(digit)];
  return positionFrom(digit + 1);
}

bool DesignSpaceCursor::seek(std::uint64_t index) {
  const std::uint64_t pitN =
      groupPoints(options_, options_.pitChoices, pitPoints);
  const std::uint64_t backupN =
      groupPoints(options_, options_.backupChoices, backupPoints);
  const std::uint64_t mirrorN =
      groupPoints(options_, options_.mirrorChoices, mirrorPoints);
  const std::uint64_t total = pitN * backupN * mirrorN;
  if (index >= total) {
    enumerated_ = total;  // as if every point had been walked
    exhausted_ = true;
    return false;
  }
  enumerated_ = index;
  // Odometer order numbers the grid (pit * backupN + backup) * mirrorN +
  // mirror over the group points; each group point then splits into the
  // choice digit and the digits within the choice's run.
  std::uint64_t mirror = index % mirrorN;
  std::uint64_t backup = index / mirrorN % backupN;
  std::uint64_t pit = index / mirrorN / backupN;

  idx_[0] = choiceHolding(options_, options_.pitChoices, pitPoints, pit);
  idx_[1] = static_cast<std::size_t>(pit / extent(2));
  idx_[2] = static_cast<std::size_t>(pit % extent(2));

  idx_[3] =
      choiceHolding(options_, options_.backupChoices, backupPoints, backup);
  const std::uint64_t perInterval =
      vaultPoints(options_, options_.backupChoices[idx_[3]]);
  const std::uint64_t vaultPoint = backup % perInterval;
  idx_[4] = static_cast<std::size_t>(backup / perInterval);
  idx_[5] = vaultPoint == 0 ? 0 : 1;
  idx_[6] = static_cast<std::size_t>(vaultPoint == 0 ? 0 : vaultPoint - 1);

  idx_[7] =
      choiceHolding(options_, options_.mirrorChoices, mirrorPoints, mirror);
  idx_[8] = static_cast<std::size_t>(mirror);
  return true;
}

void DesignSpaceCursor::restrictTo(std::uint64_t begin, std::uint64_t end) {
  rangeBegin_ = begin;
  rangeEnd_ = end;
}

bool DesignSpaceCursor::next(CandidateSpec& out) {
  while (!exhausted_) {
    if (!started_) {
      started_ = true;
      if (!seek(rangeBegin_)) return false;
    } else if (!advance()) {
      return false;
    }
    ++enumerated_;
    // Grid index of the point just visited; a restricted cursor starts at
    // its range and stops at its end.
    if (enumerated_ - 1 >= rangeEnd_) {
      exhausted_ = true;
      return false;
    }
    CandidateSpec spec = specAt();
    if (spec.valid()) {
      ++produced_;
      out = spec;
      return true;
    }
  }
  return false;
}

std::vector<CandidateSpec> enumerateDesignSpace(
    const DesignSpaceOptions& options) {
  std::vector<CandidateSpec> out;
  out.reserve(gridCardinality(options));
  DesignSpaceCursor cursor(options);
  CandidateSpec spec;
  while (cursor.next(spec)) out.push_back(spec);
  return out;
}

}  // namespace stordep::optimizer
