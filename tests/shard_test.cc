// Sharded-namespace tests (docs/SHARDING.md): the ShardRouter, the
// cross-shard extensions of the ghost relations (LinearizeBefore /
// ComputeHelpOrder over Descriptor::shard and ::migration_id), the ShardedFs
// two-shard commit itself, differential sweeps against a single AtomFs
// oracle, the monitored helping protocol end-to-end (ghost events + Perfetto
// flow arrows), and the two VALIDATION-ONLY protocol breaks — a forced stale
// route and an abandoned migration — each of which must surface as a
// refinement divergence with a replayable post-mortem bundle.

#include "src/shard/sharded_fs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/afs/op.h"
#include "src/crlh/bundle.h"
#include "src/crlh/ghost.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/tracer.h"
#include "src/shard/router.h"
#include "src/util/rand.h"
#include "src/workload/filebench.h"

namespace atomfs {
namespace {

// --- ShardRouter ------------------------------------------------------------

TEST(ShardRouter, HashRoutingIsStableAndInRange) {
  ShardRouter r(4);
  // Routing is pure FNV-1a until a name is pinned; the same name must route
  // identically across router instances (the bench and the smoke script rely
  // on these exact homes for the ta/tb/tc/td tenant roots).
  EXPECT_EQ(r.Route("ta"), 0u);
  EXPECT_EQ(r.Route("tb"), 1u);
  EXPECT_EQ(r.Route("tc"), 2u);
  EXPECT_EQ(r.Route("td"), 3u);
  ShardRouter r2(4);
  for (const char* name : {"ta", "tb", "tc", "td", "a", "b", "some-longer-name", ""}) {
    EXPECT_EQ(r.Route(name), r2.Route(name)) << name;
    EXPECT_LT(r.Route(name), 4u) << name;
  }
  ShardRouter one(1);
  EXPECT_EQ(one.Route("anything"), 0u);
}

TEST(ShardRouter, AssignPinsAndEpochAdvances) {
  ShardRouter r(4);
  EXPECT_EQ(r.table_size(), 0u);
  const uint32_t home = r.Route("proj");
  EXPECT_EQ(r.Assign("proj"), home);
  EXPECT_EQ(r.Assign("proj"), home);  // idempotent
  EXPECT_EQ(r.table_size(), 1u);
  EXPECT_EQ(r.Route("proj"), home);  // pinned route == hashed route

  EXPECT_EQ(r.Epoch("proj"), 0u);
  EXPECT_EQ(r.Epoch("never-seen"), 0u);
  r.BumpEpoch("proj");
  r.BumpEpoch("proj");
  EXPECT_EQ(r.Epoch("proj"), 2u);
  r.BumpEpoch("fresh");  // pins the entry as a side effect
  EXPECT_EQ(r.Epoch("fresh"), 1u);
  EXPECT_EQ(r.table_size(), 2u);
}

// --- cross-shard ghost relations --------------------------------------------

LockPath LP(std::initializer_list<Inum> inos) {
  LockPath lp;
  lp.inos = inos;
  return lp;
}

Descriptor SingleOp(OpKind kind, LockPath path) {
  Descriptor d;
  d.call.kind = kind;
  d.path = std::move(path);
  return d;
}

Descriptor RenameOp(LockPath src, LockPath dst) {
  Descriptor d;
  d.call.kind = OpKind::kRename;
  d.src_path = std::move(src);
  d.dst_path = std::move(dst);
  return d;
}

TEST(CrossShardGhost, PrefixRelationOnlyHoldsWithinAShard) {
  // Identical inum sequences on different shards name unrelated inodes, so
  // the LockPath prefix relation must not order them.
  Descriptor rename = RenameOp(LP({1, 2}), LP({1, 5}));
  Descriptor stat = SingleOp(OpKind::kStat, LP({1, 2, 3}));
  rename.shard = 0;
  stat.shard = 1;
  EXPECT_FALSE(LinearizeBefore(stat, rename));
  EXPECT_FALSE(LinearizeBefore(rename, stat));
  stat.shard = 0;
  EXPECT_TRUE(LinearizeBefore(stat, rename));
}

TEST(CrossShardGhost, SharedMigrationLinearizesBeforeTheHelperOp) {
  Descriptor rename = RenameOp(LP({1, 2}), LP({1, 5}));
  rename.shard = 0;
  rename.migration_id = 42;
  Descriptor stat = SingleOp(OpKind::kStat, LP({9, 10}));
  stat.shard = 1;
  stat.migration_id = 42;
  // The routed-in op linearizes before the migration's helper op, never the
  // other way around, and only a *shared* nonzero id creates the edge.
  EXPECT_TRUE(LinearizeBefore(stat, rename));
  EXPECT_FALSE(LinearizeBefore(rename, stat));
  stat.migration_id = 7;
  EXPECT_FALSE(LinearizeBefore(stat, rename));
  stat.migration_id = 0;
  EXPECT_FALSE(LinearizeBefore(stat, rename));
  // Two non-helper ops sharing a migration id have no mutual edge.
  Descriptor other = SingleOp(OpKind::kReadDir, LP({20}));
  other.shard = 2;
  other.migration_id = 42;
  stat.migration_id = 42;
  EXPECT_FALSE(LinearizeBefore(stat, other));
  EXPECT_FALSE(LinearizeBefore(other, stat));
}

TEST(CrossShardGhost, ComputeHelpOrderJoinsFootprintThreadsAsCrossShard) {
  std::map<Tid, Descriptor> pool;
  pool[1] = RenameOp(LP({1, 2}), LP({1, 5}));
  pool[1].shard = 0;
  pool[1].migration_id = 9;
  // Same-shard Step-1 candidate: LockPath under the rename's SrcPath.
  pool[2] = SingleOp(OpKind::kMkdir, LP({1, 2, 3}));
  pool[2].shard = 0;
  // Different-shard thread routed into the migration's footprint.
  pool[3] = SingleOp(OpKind::kStat, LP({7, 8}));
  pool[3].shard = 1;
  pool[3].migration_id = 9;
  // Different-shard bystander: same inums as the Step-1 candidate, no
  // migration — must stay out of the helping set.
  pool[4] = SingleOp(OpKind::kStat, LP({1, 2, 3}));
  pool[4].shard = 2;

  std::map<Tid, HelpReason> reasons;
  auto order = ComputeHelpOrder(1, pool, &reasons);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 2u);
  EXPECT_NE(std::find(order->begin(), order->end(), 2u), order->end());
  EXPECT_NE(std::find(order->begin(), order->end(), 3u), order->end());
  EXPECT_EQ(std::find(order->begin(), order->end(), 4u), order->end());
  EXPECT_EQ(reasons.at(2), HelpReason::kSrcPrefix);
  EXPECT_EQ(reasons.at(3), HelpReason::kCrossShard);
}

// --- ShardedFs basics -------------------------------------------------------

// RCU-walk is on in every AtomFs with inode locks, so both the plain and
// the sharded stack advertise it; only the sharded one adds sharding.
TEST(ShardedFsBasics, CapabilitiesAdvertiseSharding) {
  ShardedFs fs;
  EXPECT_NE(fs.Capabilities() & kFsCapSharding, 0u);
  EXPECT_NE(fs.Capabilities() & kFsCapRcuWalk, 0u);

  AtomFs plain;
  EXPECT_EQ(plain.Capabilities() & kFsCapSharding, 0u);
  EXPECT_NE(plain.Capabilities() & kFsCapRcuWalk, 0u);
}

TEST(ShardedFsBasics, RootViewMergesTheShardRoots) {
  ShardedFs::Options o;
  o.shards = 4;
  ShardedFs fs(std::move(o));
  for (const char* name : {"/ta", "/tb", "/tc", "/td"}) {
    ASSERT_TRUE(fs.Mkdir(name).ok());
  }
  ASSERT_TRUE(WriteString(fs, "/ta/f", "hello").ok());

  // Each tenant landed on its own shard (the router's FNV-1a homes).
  for (uint32_t i = 0; i < 4; ++i) {
    auto entries = fs.shard(i).ReadDir(std::string_view("/"));
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u) << "shard " << i;
  }

  auto root = fs.ReadDir("/");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 4u);
  EXPECT_EQ((*root)[0].name, "ta");  // merged view is name-sorted
  EXPECT_EQ((*root)[3].name, "td");

  auto attr = fs.Stat("/");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDir);
  EXPECT_EQ(attr->size, 4u);

  EXPECT_EQ(fs.Rmdir("/").code(), Errc::kNotEmpty);
  auto back = ReadString(fs, "/ta/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello");
}

TEST(ShardedFsBasics, PerShardOpCountersAccumulate) {
  MetricsRegistry reg;
  ShardedFs::Options o;
  o.shards = 4;
  o.metrics = &reg;
  ShardedFs fs(std::move(o));
  ASSERT_TRUE(fs.Mkdir("/ta").ok());
  ASSERT_TRUE(fs.Mkdir("/tb").ok());
  ASSERT_TRUE(fs.Stat("/ta").ok());
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("shard.ops.s0"), 2u);  // ta → shard 0
  EXPECT_EQ(snap.CounterValue("shard.ops.s1"), 1u);  // tb → shard 1
}

// --- cross-shard migrations (sequential) ------------------------------------

TEST(ShardedFsMigration, CrossShardRenameMovesASubtree) {
  ShardedFs::Options o;
  o.shards = 4;
  o.check_refinement = true;  // sequential harness: completion order is sound
  ShardedFs fs(std::move(o));
  ASSERT_TRUE(fs.Mkdir("/ta").ok());
  ASSERT_TRUE(fs.Mkdir("/tb").ok());
  ASSERT_TRUE(fs.Mkdir("/ta/sub").ok());
  ASSERT_TRUE(WriteString(fs, "/ta/sub/f", "cross-shard payload").ok());

  ASSERT_TRUE(fs.Rename("/ta/sub", "/tb/moved").ok());

  EXPECT_EQ(fs.Stat("/ta/sub").status().code(), Errc::kNoEnt);
  auto back = ReadString(fs, "/tb/moved/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "cross-shard payload");
  EXPECT_EQ(fs.migrations_completed(), 1u);
  EXPECT_EQ(fs.migrations_aborted(), 0u);

  // No staging entry may be visible anywhere: not in the merged root view,
  // and CheckQuiescent scans the shard roots directly.
  auto root = fs.ReadDir("/");
  ASSERT_TRUE(root.ok());
  for (const DirEntry& e : *root) {
    EXPECT_NE(e.name.rfind(kShardStagePrefix, 0), 0u) << e.name;
  }
  EXPECT_TRUE(fs.CheckQuiescent());
  EXPECT_TRUE(fs.ok());
}

TEST(ShardedFsMigration, CrossShardExchangeSwapsContents) {
  ShardedFs::Options o;
  o.shards = 4;
  o.check_refinement = true;
  ShardedFs fs(std::move(o));
  ASSERT_TRUE(fs.Mkdir("/tc").ok());
  ASSERT_TRUE(fs.Mkdir("/td").ok());
  ASSERT_TRUE(WriteString(fs, "/tc/x", "one").ok());
  ASSERT_TRUE(WriteString(fs, "/td/y", "two").ok());

  ASSERT_TRUE(fs.Exchange("/tc/x", "/td/y").ok());

  EXPECT_EQ(*ReadString(fs, "/tc/x"), "two");
  EXPECT_EQ(*ReadString(fs, "/td/y"), "one");
  EXPECT_EQ(fs.migrations_completed(), 1u);
  EXPECT_TRUE(fs.CheckQuiescent());
}

TEST(ShardedFsMigration, DstConflictAbortsAndRollsTheDetachBack) {
  ShardedFs::Options o;
  o.shards = 4;
  o.check_refinement = true;
  ShardedFs fs(std::move(o));
  ASSERT_TRUE(fs.Mkdir("/ta").ok());
  ASSERT_TRUE(fs.Mkdir("/tb").ok());
  ASSERT_TRUE(WriteString(fs, "/ta/f", "survives").ok());
  ASSERT_TRUE(fs.Mkdir("/tb/busy").ok());
  ASSERT_TRUE(WriteString(fs, "/tb/busy/g", "occupant").ok());

  // Attach is where dst-exists semantics resolve: renaming a file over a
  // non-empty directory fails, the detach rolls back, nothing is lost.
  EXPECT_FALSE(fs.Rename("/ta/f", "/tb/busy").ok());
  EXPECT_EQ(fs.migrations_completed(), 0u);
  EXPECT_EQ(fs.migrations_aborted(), 1u);
  EXPECT_EQ(*ReadString(fs, "/ta/f"), "survives");
  EXPECT_EQ(*ReadString(fs, "/tb/busy/g"), "occupant");
  EXPECT_TRUE(fs.CheckQuiescent());
}

// --- differential sweeps against a single AtomFs oracle ---------------------

// Compares the observable slice of two FsOpResults (inums differ between a
// sharded namespace and the oracle, so Attr::ino is out of scope).
void ExpectSameObservable(const FsOp& op, const FsOpResult& got, const FsOpResult& want,
                          size_t step) {
  ASSERT_EQ(got.status.code(), want.status.code())
      << "step " << step << " kind " << static_cast<int>(op.kind);
  ASSERT_NE(got.status.code(), Errc::kShardMoved) << "ESHARDMOVED leaked in safe mode";
  if (!got.status.ok()) {
    return;
  }
  switch (op.kind) {
    case OpKind::kStat:
      EXPECT_EQ(got.attr.type, want.attr.type) << "step " << step;
      EXPECT_EQ(got.attr.size, want.attr.size) << "step " << step;
      break;
    case OpKind::kReadDir: {
      ASSERT_EQ(got.entries.size(), want.entries.size()) << "step " << step;
      for (size_t i = 0; i < got.entries.size(); ++i) {
        EXPECT_EQ(got.entries[i].name, want.entries[i].name) << "step " << step;
      }
      break;
    }
    case OpKind::kRead:
      EXPECT_EQ(got.nbytes, want.nbytes) << "step " << step;
      EXPECT_EQ(got.data, want.data) << "step " << step;
      break;
    case OpKind::kWrite:
      EXPECT_EQ(got.nbytes, want.nbytes) << "step " << step;
      break;
    default:
      break;
  }
}

FsOp MakeOp(OpKind kind, const std::string& a, const std::string& b = "") {
  FsOp op;
  op.kind = kind;
  op.a = *ParsePath(a);
  if (!b.empty()) {
    op.b = *ParsePath(b);
  }
  return op;
}

// A rename/exchange-heavy op stream over four tenant roots. Op choice is a
// pure function of the rng, so the same seed drives the sharded namespace
// and the oracle through the identical sequence.
std::vector<FsOp> RenameHeavyStream(uint64_t seed, size_t count) {
  Rng rng(seed);
  const std::vector<std::string> roots = {"ta", "tb", "tc", "td"};
  auto pick_dir = [&]() {
    return "/" + roots[rng.Below(roots.size())] + "/d" + std::to_string(rng.Below(3));
  };
  auto pick_file = [&]() { return pick_dir() + "/f" + std::to_string(rng.Below(4)); };
  std::vector<FsOp> ops;
  for (const std::string& r : roots) {
    ops.push_back(MakeOp(OpKind::kMkdir, "/" + r));
    for (int d = 0; d < 3; ++d) {
      ops.push_back(MakeOp(OpKind::kMkdir, "/" + r + "/d" + std::to_string(d)));
    }
  }
  // Static so the spans the write ops carry outlive this function.
  static const std::vector<std::byte> payload(64, std::byte{0x5a});
  while (ops.size() < count) {
    switch (rng.Below(10)) {
      case 0:
        ops.push_back(MakeOp(OpKind::kMknod, pick_file()));
        break;
      case 1: {
        FsOp op = MakeOp(OpKind::kWrite, pick_file());
        op.payload = payload;
        ops.push_back(std::move(op));
        break;
      }
      case 2: {
        FsOp op = MakeOp(OpKind::kRead, pick_file());
        op.len = 64;
        ops.push_back(std::move(op));
        break;
      }
      case 3:
        ops.push_back(MakeOp(OpKind::kStat, rng.Chance(1, 4) ? "/" : pick_file()));
        break;
      case 4:
        ops.push_back(MakeOp(OpKind::kReadDir, rng.Chance(1, 4) ? "/" : pick_dir()));
        break;
      case 5:
        ops.push_back(MakeOp(OpKind::kUnlink, pick_file()));
        break;
      case 6:
        ops.push_back(MakeOp(OpKind::kRmdir, pick_dir()));
        break;
      default:
        // 30% renames/exchanges, most of them crossing tenant roots (and
        // therefore shards, at shard counts > 1).
        if (rng.Chance(1, 3)) {
          ops.push_back(MakeOp(OpKind::kExchange, pick_file(), pick_file()));
        } else if (rng.Chance(1, 4)) {
          // Subtree migration: move a whole directory between tenants.
          ops.push_back(MakeOp(OpKind::kRename, pick_dir(), pick_dir()));
        } else {
          ops.push_back(MakeOp(OpKind::kRename, pick_file(), pick_file()));
        }
        break;
    }
  }
  return ops;
}

TEST(ShardedFsDifferential, RenameHeavySweepMatchesTheOracle) {
  for (uint32_t shards = 1; shards <= 4; ++shards) {
    ShardedFs::Options o;
    o.shards = shards;
    o.check_refinement = true;
    ShardedFs sharded(std::move(o));
    AtomFs oracle;
    const std::vector<FsOp> ops = RenameHeavyStream(0x5eed + shards, 400);
    for (size_t i = 0; i < ops.size(); ++i) {
      const FsOpResult got = sharded.Dispatch(ops[i]);
      const FsOpResult want = oracle.Dispatch(ops[i]);
      ExpectSameObservable(ops[i], got, want, i);
    }
    if (shards > 1) {
      EXPECT_GT(sharded.migrations_completed() + sharded.migrations_aborted(), 0u)
          << "sweep never exercised a cross-shard commit at " << shards << " shards";
    }
    EXPECT_TRUE(StructurallyEqual(sharded.SnapshotSpec(), oracle.SnapshotSpec()))
        << shards << " shards";
    EXPECT_TRUE(sharded.CheckQuiescent()) << shards << " shards";
    EXPECT_TRUE(sharded.ok());
  }
}

TEST(ShardedFsDifferential, FileserverProfileMatchesTheOracle) {
  FilebenchProfile base = FilebenchProfile::Fileserver();
  base.dirs = 4;
  base.files = 24;
  base.file_bytes = 256;
  base.io_bytes = 128;
  const std::vector<std::string> tenants = {"/ta", "/tb", "/tc", "/td"};
  for (uint32_t shards = 1; shards <= 4; ++shards) {
    ShardedFs::Options o;
    o.shards = shards;
    ShardedFs sharded(std::move(o));
    AtomFs oracle;
    for (size_t t = 0; t < tenants.size(); ++t) {
      FilebenchProfile p = base;
      p.root = tenants[t];
      FilebenchSetup(sharded, p, /*seed=*/3 + t);
      FilebenchSetup(oracle, p, /*seed=*/3 + t);
      const WorkerStats a = FilebenchWorker(sharded, p, /*seed=*/99 + t, /*op_count=*/120);
      const WorkerStats b = FilebenchWorker(oracle, p, /*seed=*/99 + t, /*op_count=*/120);
      EXPECT_EQ(a.ops, b.ops);
      EXPECT_EQ(a.failures, b.failures);
    }
    EXPECT_TRUE(StructurallyEqual(sharded.SnapshotSpec(), oracle.SnapshotSpec()))
        << shards << " shards";
    EXPECT_TRUE(sharded.CheckQuiescent()) << shards << " shards";
  }
}

// --- the monitored helping protocol end-to-end ------------------------------

TEST(ShardedFsHelping, BlockedSideThreadIsHelpedAcrossShards) {
  MetricsRegistry reg;
  TraceRing ring(1024);
  TracingObserver tracer(&reg, &ring);

  std::mutex mu;
  std::condition_variable cv;
  bool reader_registered = false;
  ShardedFs* served = nullptr;
  std::thread reader;

  ShardedFs::Options o;
  o.shards = 4;
  o.monitored = true;
  o.monitor.obs = &tracer;
  o.extra_observer = &tracer;
  o.obs = &tracer;
  o.metrics = &reg;
  // Park the migration driver inside the detach window until the reader has
  // been routed into the footprint (and is therefore obliged to help). The
  // reader starts from in here, so the migration it must help is already
  // published when it routes.
  o.test_pause_after_detach = [&] {
    // The reader dispatches into the published migration's footprint,
    // records its participation (a stale-route retry), and blocks helping.
    reader = std::thread([&] {
      const Status st = served->Stat("/ta/m").status();
      // The reader linearizes after the migration it helped complete.
      EXPECT_EQ(st.code(), Errc::kNoEnt);
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return reader_registered; });
  };
  ShardedFs fs(std::move(o));
  served = &fs;
  ASSERT_TRUE(fs.Mkdir("/ta").ok());
  ASSERT_TRUE(fs.Mkdir("/tb").ok());
  ASSERT_TRUE(WriteString(fs, "/ta/m", "in flight").ok());

  std::thread driver([&] { ASSERT_TRUE(fs.Rename("/ta/m", "/tb/m").ok()); });

  // Bounded wait: on a timeout the migration is released anyway and the
  // stale-route assertion below reports the failure instead of a hang.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fs.stale_route_retries() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    reader_registered = true;
  }
  cv.notify_all();
  driver.join();
  if (reader.joinable()) {  // not started if the rename never reached detach
    reader.join();
  }

  EXPECT_EQ(fs.migrations_completed(), 1u);
  EXPECT_GE(fs.cross_shard_help_edges(), 1u);
  EXPECT_GE(fs.stale_route_retries(), 1u);
  EXPECT_EQ(reg.Snapshot().CounterValue("shard.cross_help_edges"), fs.cross_shard_help_edges());
  EXPECT_EQ(*ReadString(fs, "/tb/m"), "in flight");
  EXPECT_TRUE(fs.ok()) << fs.violations().front();
  EXPECT_TRUE(fs.CheckQuiescent());
  EXPECT_TRUE(fs.Helplist().empty());  // helped ops retired on completion

  // The ghost trace recorded the cross-shard help edge...
  const std::vector<TraceEvent> events = ring.Snapshot();
  bool saw_cross_shard_help = false;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kHelp && e.ino != 0 &&
        (e.flags & kTraceHelpReasonCrossShard) != 0) {
      saw_cross_shard_help = true;
    }
  }
  EXPECT_TRUE(saw_cross_shard_help);

  // ...and the Perfetto export renders it as a flow arrow with the
  // crossshard reason on the target span.
  const std::string json = ExportChromeTrace(events);
  EXPECT_NE(json.find("crossshard"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

// --- validation-only protocol breaks ----------------------------------------

// Round-trips a post-mortem through the bundle text form and replays it; the
// replay must reproduce the refinement divergence offline.
void ExpectReplayableDivergence(ShardedFs& fs) {
  auto pm = fs.PostMortemState();
  ASSERT_TRUE(pm.has_value());
  const PostMortemBundle bundle = BuildPostMortemBundle(*pm, /*ring_events=*/{});
  const std::string text = FormatBundle(bundle);
  std::istringstream in(text);
  auto parsed = ParseBundle(in);
  ASSERT_TRUE(parsed.ok());
  const BundleReplay replay = ReplayBundle(*parsed);
  EXPECT_TRUE(replay.reproduced) << replay.verdict;
}

TEST(ShardedFsValidation, StaleRouteObservesTheDetachWindow) {
  std::mutex mu;
  std::condition_variable cv;
  bool reader_done = false;

  ShardedFs::Options o;
  o.shards = 4;
  o.check_refinement = true;
  o.unsafe_stale_route = true;
  o.test_pause_after_detach = [&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return reader_done; });
  };
  ShardedFs fs(std::move(o));
  ASSERT_TRUE(fs.Mkdir("/ta").ok());
  ASSERT_TRUE(fs.Mkdir("/tb").ok());
  ASSERT_TRUE(WriteString(fs, "/ta/f", "detached").ok());

  std::thread driver([&] { ASSERT_TRUE(fs.Rename("/ta/f", "/tb/f").ok()); });
  // With the migration gate disabled the reader races straight to the hashed
  // shard and observes the detach window: /ta/f is missing while the rename
  // that will re-create it under /tb has not yet linearized. That transient
  // ENOENT is exactly the stale-route anomaly safe mode absorbs.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fs.stale_route_retries() == 0 && fs.Stat("/ta/f").status().ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const Status raced = fs.Stat("/ta/f").status();
  EXPECT_FALSE(raced.ok());
  {
    std::lock_guard<std::mutex> lk(mu);
    reader_done = true;
  }
  cv.notify_all();
  driver.join();

  // The refinement replay catches it: in the recorded completion order the
  // stat's ENOENT precedes the rename, but abstractly /ta/f still existed.
  EXPECT_FALSE(fs.CheckQuiescent());
  EXPECT_FALSE(fs.ok());
  ExpectReplayableDivergence(fs);
}

TEST(ShardedFsValidation, AbandonedMigrationIsFlaggedAndReplayable) {
  ShardedFs::Options o;
  o.shards = 4;
  o.check_refinement = true;
  o.unsafe_abandon_migration = true;
  ShardedFs fs(std::move(o));
  ASSERT_TRUE(fs.Mkdir("/ta").ok());
  ASSERT_TRUE(fs.Mkdir("/tb").ok());
  ASSERT_TRUE(WriteString(fs, "/ta/f", "stranded").ok());

  // The driver claims success right after detach, leaving the subtree in
  // the source shard's staging entry.
  ASSERT_TRUE(fs.Rename("/ta/f", "/tb/f").ok());
  EXPECT_EQ(fs.Stat("/tb/f").status().code(), Errc::kNoEnt);  // half-applied

  ASSERT_FALSE(fs.CheckQuiescent());
  bool flagged_staging = false;
  for (const std::string& v : fs.violations()) {
    if (v.find("abandoned migration staging") != std::string::npos) {
      flagged_staging = true;
    }
  }
  EXPECT_TRUE(flagged_staging);
  ExpectReplayableDivergence(fs);
}

}  // namespace
}  // namespace atomfs
