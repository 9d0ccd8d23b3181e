// The concrete in-memory inode. Each inode carries its own lock (the paper's
// per-inode, fine-grained locking); `ino` and `type` are immutable after
// creation and may be read without the lock, everything else requires it —
// except `version`, the seqlock-style counter the optimistic walk reads
// lock-free (docs/CONCURRENCY.md §3).

#ifndef ATOMFS_SRC_CORE_INODE_H_
#define ATOMFS_SRC_CORE_INODE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/core/dir_table.h"
#include "src/core/file_data.h"
#include "src/sim/executor.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

struct Inode {
  // `reclaimer` takes the shells and bucket arrays `dir` retires.
  Inode(Inum ino_arg, FileType type_arg, std::unique_ptr<Lockable> lock_arg,
        Reclaimer& reclaimer)
      : ino(ino_arg), type(type_arg), lock(std::move(lock_arg)), dir(reclaimer) {}

  const Inum ino;
  const FileType type;
  // Set while a thread holds `lock`. A held ancestor may carry a helped
  // operation whose abstract effect already happened and whose concrete one
  // is still to come, so an optimistic reader must not validate through it
  // (docs/CONCURRENCY.md §5).
  // Sits in the padding after `type`, so an Inode stays two cache lines.
  std::atomic<bool> held{false};
  const std::unique_ptr<Lockable> lock;

  // Seqlock version (docs/CONCURRENCY.md §3). Written ONLY while this
  // inode's lock is held: odd while a namespace mutation that affects this
  // node is in flight, even when quiescent. Optimistic readers acquire-load
  // it before and after traversing through the node; an odd value or a
  // changed value invalidates the attempt. Structural no-op for file data
  // writes (those are covered by the target lock the reader also takes).
  std::atomic<uint64_t> version{0};

  DirTable dir;    // valid when type == kDir
  FileData data;   // valid when type == kFile
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CORE_INODE_H_
