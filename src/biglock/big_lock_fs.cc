#include "src/biglock/big_lock_fs.h"

namespace atomfs {
namespace {

AtomFs::Options InnerOptions(const BigLockFs::Options& options) {
  AtomFs::Options inner;
  inner.executor = options.executor;
  inner.observer = nullptr;  // BigLockFs reports its own, op-level events
  inner.costs = options.costs;
  inner.disable_inode_locks = true;
  return inner;
}

}  // namespace

BigLockFs::BigLockFs() : BigLockFs(Options{}) {}

BigLockFs::BigLockFs(Options options)
    : observer_(options.observer),
      big_lock_(options.executor->CreateLock()),
      inner_(InnerOptions(options)) {}

template <typename MakeCall, typename Fn>
auto BigLockFs::Locked(MakeCall&& make_call, Fn&& fn) {
  const Tid tid = CurrentTid();
  big_lock_->Lock();
  if (observer_ != nullptr) {
    observer_->OnOpBegin(tid, make_call());
  }
  auto value = fn();
  if (observer_ != nullptr) {
    observer_->OnLp(tid, kInvalidInum);
    OpResult result;
    if constexpr (std::is_same_v<decltype(value), Status>) {
      result.status = value;
    }
    observer_->OnOpEnd(tid, result);
  }
  big_lock_->Unlock();
  return value;
}

Status BigLockFs::Mkdir(const Path& path) {
  return Locked([&] { return OpCall::MkdirOf(path); }, [&] { return inner_.Mkdir(path); });
}

Status BigLockFs::Mknod(const Path& path) {
  return Locked([&] { return OpCall::MknodOf(path); }, [&] { return inner_.Mknod(path); });
}

Status BigLockFs::Rmdir(const Path& path) {
  return Locked([&] { return OpCall::RmdirOf(path); }, [&] { return inner_.Rmdir(path); });
}

Status BigLockFs::Unlink(const Path& path) {
  return Locked([&] { return OpCall::UnlinkOf(path); }, [&] { return inner_.Unlink(path); });
}

Status BigLockFs::Rename(const Path& src, const Path& dst) {
  return Locked([&] { return OpCall::RenameOf(src, dst); },
                [&] { return inner_.Rename(src, dst); });
}

Status BigLockFs::Exchange(const Path& a, const Path& b) {
  return Locked([&] { return OpCall::ExchangeOf(a, b); }, [&] { return inner_.Exchange(a, b); });
}

Result<Attr> BigLockFs::Stat(const Path& path) {
  return Locked([&] { return OpCall::StatOf(path); }, [&] { return inner_.Stat(path); });
}

Result<std::vector<DirEntry>> BigLockFs::ReadDir(const Path& path) {
  return Locked([&] { return OpCall::ReadDirOf(path); }, [&] { return inner_.ReadDir(path); });
}

Result<size_t> BigLockFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  return Locked([&] { return OpCall::ReadOf(path, offset, out.size()); },
                [&] { return inner_.Read(path, offset, out); });
}

Result<size_t> BigLockFs::Write(const Path& path, uint64_t offset,
                                std::span<const std::byte> data) {
  return Locked(
      [&] {
        return OpCall::WriteOf(path, offset, std::vector<std::byte>(data.begin(), data.end()));
      },
      [&] { return inner_.Write(path, offset, data); });
}

Status BigLockFs::Truncate(const Path& path, uint64_t size) {
  return Locked([&] { return OpCall::TruncateOf(path, size); },
                [&] { return inner_.Truncate(path, size); });
}

}  // namespace atomfs
