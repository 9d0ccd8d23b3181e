// NaiveFs: the abstract specification run directly as an implementation,
// behind one mutex.
//
// Two roles:
//   * A trivially-correct reference implementation for differential tests.
//   * The stand-in for the paper's slower verified comparator (DFSCQ) in the
//     Figure 10 benchmark. DFSCQ's slowdown comes from Haskell extraction
//     overhead; bench_fig10_apps models that by wrapping this file system in
//     OverheadFs (src/vfs/overhead_fs.h), a per-operation modeled cost.

#ifndef ATOMFS_SRC_NAIVE_NAIVE_FS_H_
#define ATOMFS_SRC_NAIVE_NAIVE_FS_H_

#include <memory>

#include "src/afs/spec_fs.h"
#include "src/sim/executor.h"

namespace atomfs {

class NaiveFs : public FileSystem {
 public:
  struct Options {
    Executor* executor = &Executor::Real();
  };

  NaiveFs();
  explicit NaiveFs(Options options);

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

  // Quiescent-only snapshot (copy of the spec state).
  SpecFs SnapshotSpec() const { return spec_; }

 private:
  Options opts_;
  std::unique_ptr<Lockable> lock_;
  SpecFs spec_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_NAIVE_NAIVE_FS_H_
