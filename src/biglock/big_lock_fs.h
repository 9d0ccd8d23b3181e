// BigLockFs: the coarse-grained baseline from the paper's §7.3.
//
// "In the big-lock version, all file system operations first acquire a
// big-lock and do not release the lock until the operations finish." The
// inner structure is the same AtomFS tree (same directory hash tables, same
// block store, same cost model) with per-inode locking disabled, so any
// throughput difference against AtomFs is attributable purely to the
// synchronization strategy — exactly what Figure 11 measures.
//
// Every operation is trivially linearizable (its LP is anywhere inside the
// global critical section); the observer is told the op begins, linearizes
// and ends under the lock.

#ifndef ATOMFS_SRC_BIGLOCK_BIG_LOCK_FS_H_
#define ATOMFS_SRC_BIGLOCK_BIG_LOCK_FS_H_

#include <memory>

#include "src/core/atom_fs.h"

namespace atomfs {

class BigLockFs : public FileSystem {
 public:
  struct Options {
    Executor* executor = &Executor::Real();
    FsObserver* observer = nullptr;
    CostModel costs;
  };

  BigLockFs();
  explicit BigLockFs(Options options);

  Status Mkdir(const Path& path) override;
  Status Mknod(const Path& path) override;
  Status Rmdir(const Path& path) override;
  Status Unlink(const Path& path) override;
  Status Rename(const Path& src, const Path& dst) override;
  Status Exchange(const Path& a, const Path& b) override;
  Result<Attr> Stat(const Path& path) override;
  Result<std::vector<DirEntry>> ReadDir(const Path& path) override;
  Result<size_t> Read(const Path& path, uint64_t offset, std::span<std::byte> out) override;
  Result<size_t> Write(const Path& path, uint64_t offset,
                       std::span<const std::byte> data) override;
  Status Truncate(const Path& path, uint64_t size) override;
  using FileSystem::Mkdir;
  using FileSystem::Mknod;
  using FileSystem::Read;
  using FileSystem::ReadDir;
  using FileSystem::Exchange;
  using FileSystem::Rename;
  using FileSystem::Rmdir;
  using FileSystem::Stat;
  using FileSystem::Truncate;
  using FileSystem::Unlink;
  using FileSystem::Write;

  SpecFs SnapshotSpec() const { return inner_.SnapshotSpec(); }

 private:
  // Runs `fn` under the big lock. `make_call()` builds the OpCall, and is
  // called only when an observer is attached.
  template <typename MakeCall, typename Fn>
  auto Locked(MakeCall&& make_call, Fn&& fn);

  FsObserver* observer_;
  std::unique_ptr<Lockable> big_lock_;
  AtomFs inner_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_BIGLOCK_BIG_LOCK_FS_H_
