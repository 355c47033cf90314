// technique.hpp — abstract data-protection technique (one hierarchy level).
//
// A storage design is a hierarchy of levels (paper Sec 3.2): level 0 is the
// primary copy; each higher level is a data protection technique that
// receives retrieval points (RPs) from the level below, retains some number
// of them, and propagates RPs further up. Every concrete technique
// (PiT copies, backup, inter-array mirroring, vaulting) describes its level
// once, through one call: appendRows() appends
//
//   - the devices its RPs live on (storage rows),
//   - the normal-mode bandwidth and capacity it demands of each device
//     (demand rows, Sec 3.2.3), and
//   - the devices a restore traverses (leg rows),
//
// to rows the caller owns. Rows are flat records of plain device pointers
// and numbers: a demand row carries no name, because the level it belongs to
// identifies the technique. Lifetime rule: every pointer a technique appends
// must stay valid as long as the technique lives; the built-in techniques
// append their own DevicePtr members. restorePayload() is a separate call,
// because its answer depends on the restore size.
//
// The composition models (utilization, propagation, data loss, recovery,
// cost) and the compiled evaluation plan consume only these rows, so new
// techniques can be added without touching the framework — the paper's core
// design goal.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/workload.hpp"
#include "devices/device.hpp"

namespace stordep {

enum class TechniqueKind {
  kPrimaryCopy,
  kVirtualSnapshot,
  kSplitMirror,
  kSyncMirror,
  kAsyncMirror,
  kAsyncBatchMirror,
  kBackup,
  kVaulting,
};

[[nodiscard]] std::string toString(TechniqueKind kind);

/// One normal-mode demand a technique places on one device, in the units
/// the utilization and cost models need (paper Sec 3.2.3 / 3.3.1).
struct DemandRow {
  const DeviceModel* device = nullptr;
  Bandwidth bandwidth;
  Bytes capacity;
  double shipmentsPerYear = 0.0;
  /// True for the technique that "owns" the device — it is charged the fixed
  /// costs; secondary techniques are charged only their incremental
  /// capacity/bandwidth costs (paper Sec 3.3.5).
  bool isPrimaryTechnique = false;
  /// Which technique placed the demand, as an index into the reader's name
  /// table. Techniques leave it alone: StorageDesign::appendLevelRows() sets
  /// it to the level index.
  std::uint32_t owner = 0;
};

/// True when `rows[i]` is the first of `rows` on its device. The utilization
/// and cost folds visit devices in this first-seen order.
[[nodiscard]] bool firstOnDevice(std::span<const DemandRow> rows,
                                 std::size_t i);

/// One leg of a restore: move the payload from `from` into `to`, possibly
/// `via` a transport (network link or physical shipment). `from == to` means
/// an intra-device copy (PiT restore), which consumes the device's bandwidth
/// twice (read + write).
struct RecoveryLeg {
  const DeviceModel* from = nullptr;
  const DeviceModel* to = nullptr;   ///< null = the (replacement) primary array
  const DeviceModel* via = nullptr;  ///< optional transport; null = co-located
  /// Fixed serialized time after the data arrives for this leg (tape
  /// load/seek at the sending device, media handling, ...).
  Duration serializedFix = Duration::zero();
};

/// Rows of one or more levels, owned by the caller and appended to by
/// Technique::appendRows(). clear() keeps the capacity, so scratch rows
/// reused across designs stop allocating once warm.
struct LevelRows {
  std::vector<const DeviceModel*> storage;
  std::vector<DemandRow> demands;
  std::vector<RecoveryLeg> legs;

  void clear() noexcept {
    storage.clear();
    demands.clear();
    legs.clear();
  }
};

class TechniqueError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Technique {
 public:
  Technique(std::string name, TechniqueKind kind);
  virtual ~Technique() = default;

  Technique(const Technique&) = delete;
  Technique& operator=(const Technique&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] TechniqueKind kind() const noexcept { return kind_; }

  /// The level's RP creation/retention/propagation policy. Null for the
  /// primary copy (level 0), which holds exactly the current data.
  [[nodiscard]] virtual const ProtectionPolicy* policy() const noexcept {
    return nullptr;
  }

  /// Appends this level's rows to `rows`:
  ///  - storage: the device(s) on which the level's RPs physically reside; a
  ///    level is destroyed by a failure scenario iff all of them are;
  ///  - demands: normal-mode demands on every device the technique touches;
  ///  - legs: the restore path from the level's storage to the
  ///    (replacement) primary array. `primaryTarget` is null when the
  ///    recovery model will substitute the replacement primary itself.
  /// Appends only; never clears or reorders what `rows` already holds.
  virtual void appendRows(const WorkloadSpec& workload,
                          const DeviceModel* primaryTarget,
                          LevelRows& rows) const = 0;

  /// The bytes that must be read from this level to restore `baseSize` of
  /// data (a full image plus any incrementals the representation requires).
  [[nodiscard]] virtual Bytes restorePayload(const WorkloadSpec& workload,
                                             Bytes baseSize) const {
    (void)workload;
    return baseSize;
  }

  /// Human-readable summary for reports.
  [[nodiscard]] virtual std::string describe() const;

 private:
  std::string name_;
  TechniqueKind kind_;
};

using TechniquePtr = std::shared_ptr<const Technique>;

}  // namespace stordep
