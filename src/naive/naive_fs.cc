#include "src/naive/naive_fs.h"

namespace atomfs {

NaiveFs::NaiveFs() : NaiveFs(Options{}) {}

NaiveFs::NaiveFs(Options options)
    : opts_(options), lock_(opts_.executor->CreateLock()) {}

Status NaiveFs::Mkdir(const Path& path) {
  LockGuard g(*lock_);
  return spec_.Mkdir(path);
}

Status NaiveFs::Mknod(const Path& path) {
  LockGuard g(*lock_);
  return spec_.Mknod(path);
}

Status NaiveFs::Rmdir(const Path& path) {
  LockGuard g(*lock_);
  return spec_.Rmdir(path);
}

Status NaiveFs::Unlink(const Path& path) {
  LockGuard g(*lock_);
  return spec_.Unlink(path);
}

Status NaiveFs::Rename(const Path& src, const Path& dst) {
  LockGuard g(*lock_);
  return spec_.Rename(src, dst);
}

Status NaiveFs::Exchange(const Path& a, const Path& b) {
  LockGuard g(*lock_);
  return spec_.Exchange(a, b);
}

Result<Attr> NaiveFs::Stat(const Path& path) {
  LockGuard g(*lock_);
  return spec_.Stat(path);
}

Result<std::vector<DirEntry>> NaiveFs::ReadDir(const Path& path) {
  LockGuard g(*lock_);
  return spec_.ReadDir(path);
}

Result<size_t> NaiveFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  LockGuard g(*lock_);
  return spec_.Read(path, offset, out);
}

Result<size_t> NaiveFs::Write(const Path& path, uint64_t offset,
                              std::span<const std::byte> data) {
  LockGuard g(*lock_);
  return spec_.Write(path, offset, data);
}

Status NaiveFs::Truncate(const Path& path, uint64_t size) {
  LockGuard g(*lock_);
  return spec_.Truncate(path, size);
}

}  // namespace atomfs
