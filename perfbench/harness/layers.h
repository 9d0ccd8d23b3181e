// The benchmark's own decorators around each layer's public API. Each one
// times the calls it forwards (a raw latency sample and/or a span) and leaves
// the behaviour of the layer below untouched:
//
//   ProbedFs      any FileSystem: a caller's calls into an AtomFsClient
//                 connection (client.call spans) or into AtomFs in process
//                 (lib.call), core.op spans around the served AtomFs,
//                 txn.direct spans around TxnManager
//   TimedTxnHost  the TxnHost the server drives (txn.begin/apply/commit)
//   LockObserver  an FsObserver counting lock-coupling steps

#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "perfbench/harness/spans.h"
#include "perfbench/harness/stats.h"
#include "src/core/observer.h"
#include "src/net/wire.h"
#include "src/server/txn_host.h"
#include "src/vfs/filesystem.h"

namespace perfbench {

// Requests kept per connection for the codec replay (traced runs).
inline constexpr size_t kMixCap = 4096;

// What one connection (or in-process caller thread) did in the timed window.
struct CallLog {
  std::vector<uint64_t> lat_ns;   // per completed call, when latency_samples
  std::vector<uint64_t> unit_ns;  // per completed unit
  OutcomeCounts outcomes;
  uint64_t flushes = 0;        // frames put on the wire (ClientSession::Flush calls)
  uint64_t payload_bytes = 0;  // user bytes in successful writes
  uint64_t reply_bytes = 0;    // reply frame bytes (measured when pipelined, else modelled)
  uint64_t replies = 0;
  bool latency_samples = true;
  bool capture = false;  // keep the request mix (traced runs)
  std::vector<atomfs::WireRequest> mix;
  // lat_ns / unit_ns sizes at each slice boundary (see SummarizeSlices).
  std::vector<size_t> lat_marks;
  std::vector<size_t> unit_marks;
  int64_t slice_ns = 0;
  int64_t next_mark_ns = 0;

  void Reserve(size_t calls, size_t units_expected) {
    lat_ns.reserve(calls);
    unit_ns.reserve(units_expected);
  }
  void StartSlices(int64_t window_start_ns, int64_t slice) {
    slice_ns = slice;
    next_mark_ns = window_start_ns + slice;
  }
  void Record(int64_t start_ns, int64_t end_ns, atomfs::Errc code) {
    Tick(end_ns);
    if (latency_samples) {
      lat_ns.push_back(static_cast<uint64_t>(end_ns - start_ns));
    }
    outcomes.Add(Classify(code));
  }
  void AddUnit(int64_t start_ns, int64_t end_ns) {
    Tick(end_ns);
    unit_ns.push_back(static_cast<uint64_t>(end_ns - start_ns));
  }
  void Tick(int64_t now_ns) {
    while (slice_ns > 0 && now_ns >= next_mark_ns) {
      lat_marks.push_back(lat_ns.size());
      unit_marks.push_back(unit_ns.size());
      next_mark_ns += slice_ns;
    }
  }
  void Capture(const atomfs::WireRequest& req) {
    if (capture && mix.size() < kMixCap) {
      mix.push_back(req);
    }
  }
};

// The request a path op travels as, with `bytes` standing for a read's count
// or a write's payload size: how a traced run keeps the request mix for the
// codec replay and the session replay.
atomfs::WireRequest MixRequest(atomfs::OpKind kind, const atomfs::Path& path, uint64_t bytes);

inline atomfs::Errc CodeOf(atomfs::Status s) { return s.code(); }
template <typename T>
atomfs::Errc CodeOf(const atomfs::Result<T>& r) {
  return r.status().code();
}

// Forwards the eleven named ops to `inner`'s own methods (no FsOp round
// trip), bracketing each with Probe::Begin(kind, path, bytes) -> guard,
// guard.End(code).
template <typename Probe>
class ProbedFs : public atomfs::FileSystem {
 public:
  ProbedFs(atomfs::FileSystem* inner, Probe probe) : inner_(inner), probe_(std::move(probe)) {}

  uint32_t Capabilities() const override { return inner_->Capabilities(); }

  atomfs::Status Mkdir(const atomfs::Path& p) override {
    return Run(atomfs::OpKind::kMkdir, p, 0, [&] { return inner_->Mkdir(p); });
  }
  atomfs::Status Mknod(const atomfs::Path& p) override {
    return Run(atomfs::OpKind::kMknod, p, 0, [&] { return inner_->Mknod(p); });
  }
  atomfs::Status Rmdir(const atomfs::Path& p) override {
    return Run(atomfs::OpKind::kRmdir, p, 0, [&] { return inner_->Rmdir(p); });
  }
  atomfs::Status Unlink(const atomfs::Path& p) override {
    return Run(atomfs::OpKind::kUnlink, p, 0, [&] { return inner_->Unlink(p); });
  }
  atomfs::Status Rename(const atomfs::Path& s, const atomfs::Path& d) override {
    return Run(atomfs::OpKind::kRename, s, 0, [&] { return inner_->Rename(s, d); });
  }
  atomfs::Status Exchange(const atomfs::Path& a, const atomfs::Path& b) override {
    return Run(atomfs::OpKind::kExchange, a, 0, [&] { return inner_->Exchange(a, b); });
  }
  atomfs::Result<atomfs::Attr> Stat(const atomfs::Path& p) override {
    return Run(atomfs::OpKind::kStat, p, 0, [&] { return inner_->Stat(p); });
  }
  atomfs::Result<std::vector<atomfs::DirEntry>> ReadDir(const atomfs::Path& p) override {
    return Run(atomfs::OpKind::kReadDir, p, 0, [&] { return inner_->ReadDir(p); });
  }
  atomfs::Result<size_t> Read(const atomfs::Path& p, uint64_t off,
                              std::span<std::byte> out) override {
    return Run(atomfs::OpKind::kRead, p, out.size(), [&] { return inner_->Read(p, off, out); });
  }
  atomfs::Result<size_t> Write(const atomfs::Path& p, uint64_t off,
                               std::span<const std::byte> data) override {
    return Run(atomfs::OpKind::kWrite, p, data.size(),
               [&] { return inner_->Write(p, off, data); });
  }
  atomfs::Status Truncate(const atomfs::Path& p, uint64_t size) override {
    return Run(atomfs::OpKind::kTruncate, p, 0, [&] { return inner_->Truncate(p, size); });
  }
  using atomfs::FileSystem::Exchange;
  using atomfs::FileSystem::Mkdir;
  using atomfs::FileSystem::Mknod;
  using atomfs::FileSystem::Read;
  using atomfs::FileSystem::ReadDir;
  using atomfs::FileSystem::Rename;
  using atomfs::FileSystem::Rmdir;
  using atomfs::FileSystem::Stat;
  using atomfs::FileSystem::Truncate;
  using atomfs::FileSystem::Unlink;
  using atomfs::FileSystem::Write;

 private:
  template <typename Fn>
  auto Run(atomfs::OpKind kind, const atomfs::Path& path, uint64_t bytes, Fn&& fn) {
    auto guard = probe_.Begin(kind, path, bytes);
    auto result = fn();
    guard.End(CodeOf(result));
    return result;
  }

  atomfs::FileSystem* inner_;
  Probe probe_;
};

// A span of the given name around every forwarded op (core.op around AtomFs,
// txn.direct around TxnManager).
class SpanProbe {
 public:
  explicit SpanProbe(SpanName name) : name_(name) {}

  class Guard {
   public:
    Guard(SpanName name, atomfs::OpKind kind, const atomfs::Path& path)
        : scope_(name, KindTag(kind), SpanLog::enabled() ? JoinKey(kind, path) : 0) {}
    void End(atomfs::Errc code) { scope_.set_status(code); }

   private:
    SpanLog::Scope scope_;
  };

  Guard Begin(atomfs::OpKind kind, const atomfs::Path& path, uint64_t) {
    return Guard(name_, kind, path);
  }

 private:
  SpanName name_;
};

// One caller's calls: a latency sample and outcome per call into `log`, and
// a span per call, `name` being client.call (carrying a request id and the
// join key) for a wire connection and lib.call for an in-process caller.
// Traced runs also keep the request mix and a reply size modelled from the
// request. A wire connection's synchronous calls flush once each.
class CallProbe {
 public:
  CallProbe(CallLog* log, SpanName name, uint32_t conn) : log_(log), name_(name), conn_(conn) {}

  class Guard {
   public:
    Guard(CallLog* log, SpanName name, atomfs::OpKind kind, const atomfs::Path& path,
          uint64_t bytes, uint64_t req);
    void End(atomfs::Errc code);

   private:
    CallLog* log_;
    atomfs::OpKind kind_;
    uint64_t bytes_;
    bool wire_;
    int64_t t0_;
    SpanLog::Scope scope_;
  };

  Guard Begin(atomfs::OpKind kind, const atomfs::Path& path, uint64_t bytes) {
    return Guard(log_, name_, kind, path, bytes, name_ == SpanName::kClientCall ? NextReq() : 0);
  }

 private:
  // Fresh request id: connection in the top bits, sequence below.
  uint64_t NextReq() { return (uint64_t{conn_ + 1} << 40) | ++seq_; }

  CallLog* log_;
  SpanName name_;
  uint32_t conn_;
  uint64_t seq_ = 0;
};

// The txn layer as the server drives it: spans around TxBegin / TxApply /
// TxCommit of the wrapped host.
class TimedTxnHost : public atomfs::TxnHost {
 public:
  explicit TimedTxnHost(atomfs::TxnHost* inner) : inner_(inner) {}

  atomfs::Result<uint64_t> TxBegin() override;
  atomfs::Status TxCommit(uint64_t txid) override;
  atomfs::Status TxAbort(uint64_t txid) override { return inner_->TxAbort(txid); }
  atomfs::OpResult TxApply(uint64_t txid, const atomfs::OpCall& call) override;
  atomfs::Status TxCheckpoint() override { return inner_->TxCheckpoint(); }

 private:
  atomfs::TxnHost* inner_;
};

// Counts ops, lock acquisitions and hand-over-hand steps (time from one
// acquisition to the next within an op) while SpanLog recording is on.
class LockObserver : public atomfs::FsObserver {
 public:
  struct Totals {
    uint64_t ops = 0;
    uint64_t locks = 0;
    uint64_t steps = 0;
    uint64_t step_ns = 0;
  };

  LockObserver();
  LockObserver(const LockObserver&) = delete;
  LockObserver& operator=(const LockObserver&) = delete;

  void OnOpBegin(atomfs::Tid tid, const atomfs::OpCall& call) override;
  void OnLockAcquired(atomfs::Tid tid, atomfs::Inum ino, atomfs::LockPathRole role) override;

  // Sum over threads. Only while no op runs.
  Totals Collect() const;

 private:
  struct Slot {
    Totals totals;
    int64_t last_acquire_ns = 0;
  };
  Slot& Mine();

  const uint64_t generation_;  // tells this observer's thread slots from a predecessor's
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
