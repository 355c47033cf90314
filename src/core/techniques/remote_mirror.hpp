// remote_mirror.hpp — inter-array mirroring (sync / async / async-batch).
//
// Mirroring keeps an isolated copy of the current data on a second disk
// array, connected by interconnect links (paper Sec 2, Sec 3.2.3):
//
//   synchronous   every update applied to the secondary before the write
//                 completes: the links must carry the *peak* update rate
//                 (avgUpdateR x burstM); zero data loss.
//   asynchronous  updates propagate in the background: links sized for the
//                 average update rate; seconds-to-minutes of loss.
//   async batch   overwrites are coalesced and batches sent every accW: links
//                 sized for the unique update rate of the batch window —
//                 the cheapest in bandwidth (Seneca/SnapMirror style).
//
// Bandwidth demands land on the links and the destination array (arrays
// expose a separate inter-array mirroring interface, so no client-interface
// demand is charged to the source array); capacity (one full copy) on the
// destination array.
#pragma once

#include "core/technique.hpp"

namespace stordep {

enum class MirrorMode { kSync, kAsync, kAsyncBatch };

[[nodiscard]] std::string toString(MirrorMode mode);

class RemoteMirror final : public Technique {
 public:
  /// `policy` carries the batch windows for kAsyncBatch (accW = batch
  /// accumulation, propW = batch transmission). For kSync/kAsync pass a
  /// policy with accW = 0 (the mirror continuously tracks the primary).
  RemoteMirror(std::string name, MirrorMode mode, DevicePtr sourceArray,
               DevicePtr destArray, DevicePtr links, ProtectionPolicy policy);

  [[nodiscard]] MirrorMode mode() const noexcept { return mode_; }
  [[nodiscard]] const ProtectionPolicy* policy() const noexcept override {
    return &policy_;
  }
  [[nodiscard]] DevicePtr sourceArray() const noexcept { return source_; }
  [[nodiscard]] DevicePtr destArray() const noexcept { return dest_; }
  [[nodiscard]] DevicePtr links() const noexcept { return links_; }

  /// The steady-state rate the links must carry for this mode.
  [[nodiscard]] Bandwidth propagationRate(const WorkloadSpec& workload) const;

  /// Foreground write-latency penalty of this mirror: synchronous mirroring
  /// blocks each write on a round trip over the links (2 x propagation
  /// delay); asynchronous modes add none. Not part of the paper's
  /// dependability metrics, but the operational reason async variants exist
  /// — surfaced so designers see what a sync mirror costs the application.
  [[nodiscard]] Duration foregroundWriteLatency() const;

  /// Smoothing/coalescing buffer the source array needs for the
  /// asynchronous modes (the paper notes it "is typically a small fraction
  /// of the typical array cache" and skips it; this makes the claim
  /// checkable). During a burst of length `burstDuration` the workload
  /// writes at `burstM x avgUpdateR` while the links drain at most at their
  /// capacity, so:
  ///   async       buffer >= burstDuration * max(0, peak - linkBW)
  ///   async-batch buffer >= uniq(accW) + the same burst overshoot
  ///               (a whole batch is staged before transmission)
  ///   sync        zero (writes block instead of buffering).
  [[nodiscard]] Bytes requiredBufferSize(const WorkloadSpec& workload,
                                         Duration burstDuration) const;

  /// Storage: the destination array. Demands: the propagation rate on the
  /// links, and the rate plus one full copy on the destination array.
  /// Leg: copy from the destination array back to the (replacement)
  /// primary (the source array when `primaryTarget` is null). The recovery
  /// model routes it over the links when the replacement is at a different
  /// site, or locally when the replacement is provisioned next to the mirror
  /// (site-disaster failover).
  void appendRows(const WorkloadSpec& workload,
                  const DeviceModel* primaryTarget,
                  LevelRows& rows) const override;

 private:
  MirrorMode mode_;
  DevicePtr source_;
  DevicePtr dest_;
  DevicePtr links_;
  ProtectionPolicy policy_;
};

/// Convenience policy for sync/async mirrors: continuous propagation,
/// a single retained (current) RP.
[[nodiscard]] ProtectionPolicy continuousMirrorPolicy();

}  // namespace stordep
