// Functional tests for AtomFS (single-threaded semantics) plus a
// differential sweep against the abstract specification: random operation
// sequences must produce identical results and identical final trees.

#include "src/core/atom_fs.h"

#include <gtest/gtest.h>

#include "src/afs/op.h"
#include "src/afs/spec_fs.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

std::span<const std::byte> Bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

class AtomFsTest : public ::testing::Test {
 protected:
  AtomFs fs_;
};

TEST_F(AtomFsTest, BasicTree) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/a/b").ok());
  EXPECT_TRUE(fs_.Mknod("/a/b/f").ok());
  auto attr = fs_.Stat("/a/b/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kFile);
  auto dir_attr = fs_.Stat("/a");
  ASSERT_TRUE(dir_attr.ok());
  EXPECT_EQ(dir_attr->type, FileType::kDir);
  EXPECT_EQ(dir_attr->size, 1u);
}

TEST_F(AtomFsTest, ErrorsMatchSpecSemantics) {
  EXPECT_EQ(fs_.Mkdir("/").code(), Errc::kExist);
  EXPECT_EQ(fs_.Mkdir("/x/y").code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_EQ(fs_.Mkdir("/f/y").code(), Errc::kNotDir);
  EXPECT_EQ(fs_.Rmdir("/f").code(), Errc::kNotDir);
  EXPECT_EQ(fs_.Unlink("/nope").code(), Errc::kNoEnt);
  EXPECT_EQ(fs_.Rmdir("/").code(), Errc::kBusy);
  EXPECT_EQ(fs_.Unlink("/").code(), Errc::kIsDir);
}

TEST_F(AtomFsTest, ReadWrite) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  ASSERT_TRUE(fs_.Write("/f", 0, Bytes("data!")).ok());
  auto text = ReadString(fs_, "/f");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "data!");
  EXPECT_TRUE(fs_.Truncate("/f", 2).ok());
  EXPECT_EQ(ReadString(fs_, "/f").value(), "da");
}

TEST_F(AtomFsTest, RenameBasic) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/b").ok());
  EXPECT_TRUE(fs_.Mknod("/a/f").ok());
  ASSERT_TRUE(fs_.Write("/a/f", 0, Bytes("move me")).ok());
  EXPECT_TRUE(fs_.Rename("/a/f", "/b/g").ok());
  EXPECT_EQ(fs_.Stat("/a/f").status().code(), Errc::kNoEnt);
  EXPECT_EQ(ReadString(fs_, "/b/g").value(), "move me");
}

TEST_F(AtomFsTest, RenameDirSubtree) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/a/deep").ok());
  EXPECT_TRUE(fs_.Mknod("/a/deep/f").ok());
  EXPECT_TRUE(fs_.Mkdir("/target").ok());
  EXPECT_TRUE(fs_.Rename("/a", "/target/moved").ok());
  EXPECT_TRUE(fs_.Stat("/target/moved/deep/f").ok());
}

TEST_F(AtomFsTest, RenameSameParent) {
  EXPECT_TRUE(fs_.Mkdir("/d").ok());
  EXPECT_TRUE(fs_.Mknod("/d/a").ok());
  EXPECT_TRUE(fs_.Rename("/d/a", "/d/b").ok());
  EXPECT_TRUE(fs_.Stat("/d/b").ok());
  EXPECT_EQ(fs_.Stat("/d/a").status().code(), Errc::kNoEnt);
}

TEST_F(AtomFsTest, RenameIntoOwnSubtreeRejected) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/a/b").ok());
  EXPECT_EQ(fs_.Rename("/a", "/a/b/c").code(), Errc::kInval);
  EXPECT_EQ(fs_.Rename("/a/b", "/a").code(), Errc::kNotEmpty);
}

TEST_F(AtomFsTest, RenameReplacesEmptyDir) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mknod("/a/f").ok());
  EXPECT_TRUE(fs_.Mkdir("/b").ok());
  EXPECT_TRUE(fs_.Rename("/a", "/b").ok());
  EXPECT_TRUE(fs_.Stat("/b/f").ok());
}

TEST_F(AtomFsTest, RenameToSelf) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_TRUE(fs_.Rename("/f", "/f").ok());
  EXPECT_TRUE(fs_.Stat("/f").ok());
}

TEST_F(AtomFsTest, SnapshotMatchesSpecReplay) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mknod("/a/f").ok());
  ASSERT_TRUE(fs_.Write("/a/f", 0, Bytes("zz")).ok());
  SpecFs spec;
  EXPECT_TRUE(spec.Mkdir("/a").ok());
  EXPECT_TRUE(spec.Mknod("/a/f").ok());
  ASSERT_TRUE(spec.Write("/a/f", 0, Bytes("zz")).ok());
  EXPECT_TRUE(StructurallyEqual(fs_.SnapshotSpec(), spec));
}

TEST_F(AtomFsTest, InodeCountTracksLiveInodes) {
  EXPECT_EQ(fs_.InodeCount(), 1u);
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mknod("/a/f").ok());
  EXPECT_EQ(fs_.InodeCount(), 3u);
  EXPECT_TRUE(fs_.Unlink("/a/f").ok());
  EXPECT_TRUE(fs_.Rmdir("/a").ok());
  EXPECT_EQ(fs_.InodeCount(), 1u);
}

// --- differential testing against the spec ---------------------------------

// Generates a random plausible OpCall over a small name universe (collisions
// with existing paths are likely by construction, so error paths get heavy
// coverage too).
OpCall RandomCall(Rng& rng) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  auto random_path = [&rng]() {
    Path p;
    const size_t depth = rng.Between(1, 3);
    for (size_t i = 0; i < depth; ++i) {
      p.parts.emplace_back(kNames[rng.Below(4)]);
    }
    return p;
  };
  switch (rng.Below(10)) {
    case 0:
      return OpCall::MkdirOf(random_path());
    case 1:
      return OpCall::MknodOf(random_path());
    case 2:
      return OpCall::RmdirOf(random_path());
    case 3:
      return OpCall::UnlinkOf(random_path());
    case 4:
      return OpCall::RenameOf(random_path(), random_path());
    case 5:
      return OpCall::StatOf(random_path());
    case 6:
      return OpCall::ReadDirOf(random_path());
    case 7:
      return OpCall::ReadOf(random_path(), rng.Below(64), rng.Between(1, 64));
    case 8: {
      std::vector<std::byte> payload(rng.Between(1, 64));
      for (auto& b : payload) {
        b = static_cast<std::byte>(rng.Below(256));
      }
      return OpCall::WriteOf(random_path(), rng.Below(64), std::move(payload));
    }
    default:
      return OpCall::TruncateOf(random_path(), rng.Below(128));
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AtomFsRefinesSpecSequentially) {
  Rng rng(GetParam());
  AtomFs fs;
  SpecFs spec;
  for (int i = 0; i < 400; ++i) {
    OpCall call = RandomCall(rng);
    OpResult concrete = RunOp(fs, call);
    OpResult abstract = RunOp(spec, call);
    ASSERT_TRUE(ResultsEquivalent(call.kind, concrete, abstract))
        << call.ToString() << ": concrete=" << concrete.ToString(call.kind)
        << " abstract=" << abstract.ToString(call.kind) << " (step " << i << ")";
  }
  EXPECT_TRUE(StructurallyEqual(fs.SnapshotSpec(), spec));
  EXPECT_TRUE(spec.WellFormed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                           16));

// The optimistic (RCU) walk must be semantically invisible, and
// sequentially it must also decide every single-path op itself: nothing
// mutates concurrently, so every attempt validates on the first try, a
// lookup miss included (it decides ENOENT under the directory's lock), and
// every mutator is adopted. Only a path through a file falls back, because
// deciding ENOTDIR at an interior node is the locked walk's job.
class RcuDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Every single-path op walks optimistically, except an ins/del of the root,
// which fails before it walks; rename and exchange always lock-couple.
bool WalksOptimistically(const OpCall& call) {
  switch (call.kind) {
    case OpKind::kMkdir:
    case OpKind::kMknod:
    case OpKind::kRmdir:
    case OpKind::kUnlink:
      return !call.a.IsRoot();
    case OpKind::kRename:
    case OpKind::kExchange:
      return false;
    default:
      return true;
  }
}

TEST_P(RcuDifferentialTest, RcuWalkRefinesSpecSequentially) {
  Rng rng(GetParam());
  MetricsRegistry registry;
  TracingObserver tracer(&registry);
  AtomFs::Options opts;
  opts.observer = &tracer;
  AtomFs fs(std::move(opts));
  SpecFs spec;
  uint64_t optimistic_ops = 0;
  for (int i = 0; i < 400; ++i) {
    OpCall call = RandomCall(rng);
    const uint64_t fallbacks_before =
        registry.Snapshot().CounterValue("core.rcuwalk.fallbacks");
    OpResult concrete = RunOp(fs, call);
    OpResult abstract = RunOp(spec, call);
    ASSERT_TRUE(ResultsEquivalent(call.kind, concrete, abstract))
        << call.ToString() << ": concrete=" << concrete.ToString(call.kind)
        << " abstract=" << abstract.ToString(call.kind) << " (step " << i << ")";
    optimistic_ops += WalksOptimistically(call) ? 1 : 0;
    if (concrete.status.code() != Errc::kNotDir) {
      EXPECT_EQ(registry.Snapshot().CounterValue("core.rcuwalk.fallbacks"), fallbacks_before)
          << call.ToString() << " fell back (step " << i << ")";
    }
  }
  // The only failed attempts are those of the ops that fell back.
  const MetricsSnapshot snap = registry.Snapshot();
  const uint64_t attempts = snap.CounterValue("core.rcuwalk.attempts");
  const uint64_t failures = snap.CounterValue("core.rcuwalk.validation_failures");
  const uint64_t fallbacks = snap.CounterValue("core.rcuwalk.fallbacks");
  EXPECT_EQ(failures, AtomFs::kRcuWalkAttempts * fallbacks);
  EXPECT_EQ(attempts - failures + fallbacks, optimistic_ops);
  EXPECT_TRUE(StructurallyEqual(fs.SnapshotSpec(), spec));
  EXPECT_TRUE(spec.WellFormed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcuDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Regression test for the version-counter close discipline. Every writer
// opens a directory's version to odd and must close it back to even —
// including the same-parent rename and same-directory exchange paths, where
// source and destination directory are one node and a naive double
// open/close would leave the version odd forever. A leftover odd version is
// observable without exposing the counter: every later optimistic read of
// that directory would fail validation and fall back, so after a quiesced
// mutation storm a stat sweep must produce zero validation failures.
TEST(AtomFsRcuVersions, QuiescedVersionsStayEven) {
  MetricsRegistry registry;
  TracingObserver tracer(&registry);
  AtomFs::Options opts;
  opts.observer = &tracer;
  AtomFs fs(std::move(opts));

  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  ASSERT_TRUE(fs.Mknod("/d/f").ok());
  ASSERT_TRUE(fs.Mknod("/d/g").ok());
  ASSERT_TRUE(fs.Mknod("/e/h").ok());
  ASSERT_TRUE(fs.Rename("/d/f", "/d/f2").ok());   // same-parent rename
  ASSERT_TRUE(fs.Rename("/d/g", "/e/g2").ok());   // cross-parent rename
  ASSERT_TRUE(fs.Exchange("/d/f2", "/e/h").ok()); // cross-directory exchange
  ASSERT_TRUE(fs.Mknod("/e/i").ok());
  ASSERT_TRUE(fs.Exchange("/e/g2", "/e/i").ok()); // same-directory exchange
  ASSERT_TRUE(fs.Unlink("/e/i").ok());

  const uint64_t failures_before =
      registry.Snapshot().CounterValue("core.rcuwalk.validation_failures");
  const char* kPaths[] = {"/d", "/e", "/d/f2", "/e/h", "/e/g2"};
  for (const char* p : kPaths) {
    EXPECT_TRUE(fs.Stat(p).ok()) << p;
  }
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("core.rcuwalk.validation_failures"), failures_before)
      << "a writer left a directory version odd: quiesced optimistic reads "
         "must validate on the first attempt";
  EXPECT_EQ(snap.CounterValue("core.rcuwalk.fallbacks"), 0u);
  EXPECT_EQ(snap.CounterValue("core.rcuwalk.unvalidated_reads"), 0u);
}

}  // namespace
}  // namespace atomfs
