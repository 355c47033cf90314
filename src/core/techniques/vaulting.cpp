#include "core/techniques/vaulting.hpp"

namespace stordep {

Vaulting::Vaulting(std::string name, DevicePtr backupDevice, DevicePtr vault,
                   DevicePtr shipment, ProtectionPolicy policy,
                   Duration backupRetentionWindow)
    : Technique(std::move(name), TechniqueKind::kVaulting),
      library_(std::move(backupDevice)),
      vault_(std::move(vault)),
      shipment_(std::move(shipment)),
      policy_(std::move(policy)),
      backupRetW_(backupRetentionWindow) {
  if (!library_ || !vault_ || !shipment_) {
    throw TechniqueError(
        "vaulting requires a backup device, a vault and a shipment service");
  }
  if (!shipment_->isTransport()) {
    throw TechniqueError("vaulting shipment device must be a transport");
  }
  if (!(policy_.cyclePeriod().secs() > 0)) {
    throw TechniqueError("vaulting requires a positive cycle period");
  }
}

bool Vaulting::needsExtraCopy() const noexcept {
  return policy_.holdW() < backupRetW_;
}

double Vaulting::shipmentsPerYear() const noexcept {
  return Duration{Duration::kYear} / policy_.cyclePeriod();
}

void Vaulting::appendRows(const WorkloadSpec& workload,
                          const DeviceModel* primaryTarget,
                          LevelRows& rows) const {
  rows.storage.push_back(vault_.get());

  // Vault retains retCnt full images.
  rows.demands.push_back(DemandRow{
      .device = vault_.get(),
      .bandwidth = Bandwidth::zero(),
      .capacity =
          workload.dataCap() * static_cast<double>(policy_.retentionCount()),
      .isPrimaryTechnique = true});

  // Courier dispatches.
  rows.demands.push_back(DemandRow{.device = shipment_.get(),
                                   .bandwidth = Bandwidth::zero(),
                                   .capacity = Bytes{0},
                                   .shipmentsPerYear = shipmentsPerYear(),
                                   .isPrimaryTechnique = true});

  // Extra on-site copy when tapes ship before their retention expires:
  // read + write one full image within the vault propagation window, and
  // hold the copy until it ships.
  if (needsExtraCopy()) {
    const Duration copyWindow = policy_.primaryWindows().propW.secs() > 0
                                    ? policy_.primaryWindows().propW
                                    : policy_.cyclePeriod();
    rows.demands.push_back(DemandRow{
        .device = library_.get(),
        .bandwidth = 2.0 * (workload.dataCap() / copyWindow),
        .capacity = workload.dataCap(),
        .isPrimaryTechnique = false});
  }

  // Leg 1: physically ship the media back to a library.
  rows.legs.push_back(RecoveryLeg{.from = vault_.get(),
                                  .to = library_.get(),
                                  .via = shipment_.get(),
                                  .serializedFix = Duration::zero()});
  // Leg 2: read the media at the library into the replacement primary.
  rows.legs.push_back(RecoveryLeg{.from = library_.get(),
                                  .to = primaryTarget,
                                  .via = nullptr,
                                  .serializedFix = library_->accessDelay()});
}

Bytes Vaulting::restorePayload(const WorkloadSpec& /*workload*/,
                               Bytes baseSize) const {
  return baseSize;  // vaulted RPs are self-contained fulls
}

}  // namespace stordep
