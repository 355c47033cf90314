#include "core/technique.hpp"

namespace stordep {

std::string toString(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kPrimaryCopy:
      return "foreground workload";
    case TechniqueKind::kVirtualSnapshot:
      return "virtual snapshot";
    case TechniqueKind::kSplitMirror:
      return "split mirror";
    case TechniqueKind::kSyncMirror:
      return "sync mirror";
    case TechniqueKind::kAsyncMirror:
      return "async mirror";
    case TechniqueKind::kAsyncBatchMirror:
      return "async batch mirror";
    case TechniqueKind::kBackup:
      return "backup";
    case TechniqueKind::kVaulting:
      return "vaulting";
  }
  return "unknown";
}

bool firstOnDevice(std::span<const DemandRow> rows, std::size_t i) {
  for (std::size_t k = 0; k < i; ++k) {
    if (rows[k].device == rows[i].device) return false;
  }
  return true;
}

Technique::Technique(std::string name, TechniqueKind kind)
    : name_(std::move(name)), kind_(kind) {
  if (name_.empty()) throw TechniqueError("technique must have a name");
}

std::string Technique::describe() const {
  return name_ + " (" + toString(kind_) + ")";
}

}  // namespace stordep
