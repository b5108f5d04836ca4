#include "tstore/store_factory.h"

#include "tstore/integrated_store.h"
#include "tstore/separated_store.h"
#include "tstore/snapshot_store.h"

namespace tcob {

std::unique_ptr<TemporalAtomStore> MakeTemporalStore(
    StorageStrategy strategy, BufferPool* pool, const std::string& prefix,
    const StoreOptions& options, IndexCounters* index_counters) {
  switch (strategy) {
    case StorageStrategy::kSnapshot:
      return std::make_unique<SnapshotStore>(pool, prefix, index_counters);
    case StorageStrategy::kIntegrated:
      return std::make_unique<IntegratedStore>(pool, prefix, index_counters);
    case StorageStrategy::kSeparated:
      return std::make_unique<SeparatedStore>(pool, prefix, options,
                                              index_counters);
  }
  return nullptr;
}

}  // namespace tcob
