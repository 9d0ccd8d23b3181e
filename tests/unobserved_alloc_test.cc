// With no observer attached, AtomFS builds no OpCall or OpResult, so the
// hot read and overwrite paths make no heap allocation at all; with one
// attached, the observer still sees exact copies of every payload.
//
// This binary replaces the global operator new to count allocations, except
// under ThreadSanitizer, whose runtime keeps its own operator new (a
// replacement there counted nothing, then crashed freeing the runtime's
// blocks). The counting tests skip there; the observed-path test still runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/biglock/big_lock_fs.h"
#include "src/core/atom_fs.h"
#include "src/workload/trace.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

#if !defined(ATOMFS_SANITIZE_THREAD)
namespace {

void* CountedAlloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Out of line, so that the compiler never sees a pointer from operator new
// reach free() (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
#endif  // !ATOMFS_SANITIZE_THREAD

namespace atomfs {
namespace {

bool CountsAllocations() {
#if defined(ATOMFS_SANITIZE_THREAD)
  return false;
#else
  return true;
#endif
}

template <typename Fn>
uint64_t AllocationsOf(Fn&& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Stat, a 4 KiB read and a 4 KiB overwrite of an existing file, each on an
// already parsed path, after one warm-up round on this thread (which claims
// the thread's id and its reclaimer epoch slot).
void ExpectNoAllocations(FileSystem& fs) {
  const Path file = ParsePath("/a/b/c/f").value();
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b/c").ok());
  ASSERT_TRUE(fs.Mknod(file).ok());
  const std::vector<std::byte> payload(4096, std::byte{0x5a});
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(fs.Write(file, 0, payload).ok());

  bool ok = true;
  auto round = [&] {
    ok = fs.Stat(file).ok() && fs.Read(file, 0, buf).ok() && fs.Write(file, 0, payload).ok();
  };
  round();
  ASSERT_TRUE(ok);
  const uint64_t stat = AllocationsOf([&] { ok &= fs.Stat(file).ok(); });
  const uint64_t read = AllocationsOf([&] { ok &= fs.Read(file, 0, buf).ok(); });
  const uint64_t write = AllocationsOf([&] { ok &= fs.Write(file, 0, payload).ok(); });
  ASSERT_TRUE(ok);
  EXPECT_EQ(stat, 0u);
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(write, 0u);
  EXPECT_EQ(buf, payload);
}

TEST(UnobservedAllocTest, AtomFsStatReadAndOverwriteAllocateNothing) {
  if (!CountsAllocations()) {
    GTEST_SKIP() << "operator new is not replaced under TSan";
  }
  AtomFs fs;
  ExpectNoAllocations(fs);
}

TEST(UnobservedAllocTest, BigLockFsStatReadAndOverwriteAllocateNothing) {
  if (!CountsAllocations()) {
    GTEST_SKIP() << "operator new is not replaced under TSan";
  }
  BigLockFs fs;
  ExpectNoAllocations(fs);
}

TEST(UnobservedAllocTest, CountingSeesAnAllocation) {
  if (!CountsAllocations()) {
    GTEST_SKIP() << "operator new is not replaced under TSan";
  }
  // Guards the tests above against a replacement that is never called. The
  // volatile store keeps the compiler from eliding the new/delete pair.
  static int* volatile sink = nullptr;
  EXPECT_EQ(AllocationsOf([] {
              sink = new int(1);
              delete sink;
            }),
            1u);
}

// Keeps every OpResult an observer receives, in completion order.
class ResultLog : public FsObserver {
 public:
  void OnOpEnd(Tid tid, const OpResult& result) override {
    (void)tid;
    results.push_back(result);
  }
  std::vector<OpResult> results;
};

TEST(UnobservedAllocTest, ObserverSeesExactPayloadAndBytes) {
  TraceRecorder recorder;
  ResultLog log;
  TeeObserver tee(&recorder, &log);
  AtomFs::Options opts;
  opts.observer = &tee;
  AtomFs fs(std::move(opts));
  const Path file = ParsePath("/d/f").value();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mknod(file).ok());
  std::vector<std::byte> payload(5000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  }
  ASSERT_EQ(fs.Write(file, 100, payload).value(), payload.size());
  std::vector<std::byte> buf(payload.size());
  ASSERT_EQ(fs.Read(file, 100, buf).value(), payload.size());
  ASSERT_TRUE(fs.Mknod("/d/a").ok());
  auto entries = fs.ReadDir("/d");
  ASSERT_TRUE(entries.ok());

  const std::vector<OpCall> calls = recorder.Take();
  ASSERT_EQ(calls.size(), 6u);
  EXPECT_EQ(calls[2].kind, OpKind::kWrite);
  EXPECT_EQ(calls[2].a, file);
  EXPECT_EQ(calls[2].offset, 100u);
  EXPECT_EQ(calls[2].data, payload);
  EXPECT_EQ(calls[3].kind, OpKind::kRead);
  EXPECT_EQ(calls[3].len, payload.size());

  ASSERT_EQ(log.results.size(), 6u);
  EXPECT_EQ(log.results[2].nbytes, payload.size());
  EXPECT_EQ(log.results[3].nbytes, payload.size());
  EXPECT_EQ(log.results[3].data, payload);
  // The observer gets the readdir result sorted, as the caller does.
  ASSERT_EQ(log.results[5].entries.size(), 2u);
  EXPECT_EQ(log.results[5].entries[0].name, "a");
  EXPECT_EQ(log.results[5].entries[1].name, "f");
  EXPECT_EQ(log.results[5].entries.size(), entries->size());
}

}  // namespace
}  // namespace atomfs
