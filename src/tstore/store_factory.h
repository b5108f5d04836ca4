#ifndef TCOB_TSTORE_STORE_FACTORY_H_
#define TCOB_TSTORE_STORE_FACTORY_H_

#include <memory>
#include <string>

#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// Instantiates the TemporalAtomStore for `strategy`, with its files
/// named "<prefix>_*" under the pool's disk manager; its B+-trees count
/// their work in `index_counters` when that is non-null.
std::unique_ptr<TemporalAtomStore> MakeTemporalStore(
    StorageStrategy strategy, BufferPool* pool, const std::string& prefix,
    const StoreOptions& options, IndexCounters* index_counters = nullptr);

}  // namespace tcob

#endif  // TCOB_TSTORE_STORE_FACTORY_H_
