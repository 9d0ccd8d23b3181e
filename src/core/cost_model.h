// Virtual CPU cost model charged to the Executor by the concrete file
// systems. Under RealExecutor the charges are no-ops (real work takes real
// time); under SimExecutor they give operations realistic durations so that
// lock-contention measurements (Figure 11) have meaningful shape. The
// default values approximate an in-memory FS on a ~2-3 GHz core.

#ifndef ATOMFS_SRC_CORE_COST_MODEL_H_
#define ATOMFS_SRC_CORE_COST_MODEL_H_

#include <cstdint>

namespace atomfs {

struct CostModel {
  // Fixed entry/exit overhead per operation (argument handling, FUSE-ish
  // dispatch).
  uint64_t op_base_ns = 600;
  // Hash for one directory lookup, plus the per-chain-link walk cost. The
  // directory table grows to keep its load factor at most 1, so a lookup
  // inspects about one link whatever the directory's size; the probe charge
  // only matters for the rare longer chain.
  uint64_t lookup_ns = 150;
  uint64_t lookup_probe_ns = 40;
  // Directory entry insert / remove.
  uint64_t dir_insert_ns = 200;
  uint64_t dir_remove_ns = 200;
  // Filling a stat result / one readdir entry.
  uint64_t stat_ns = 100;
  uint64_t readdir_entry_ns = 40;
  // Copying one 4 KiB block of file data.
  uint64_t block_copy_ns = 500;
  // Allocating / freeing an inode.
  uint64_t inode_alloc_ns = 300;
  uint64_t inode_free_ns = 250;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CORE_COST_MODEL_H_
