#include "perfbench/harness/layers.h"

#include <algorithm>

namespace perfbench {

using atomfs::Errc;
using atomfs::OpKind;
using atomfs::Path;
using atomfs::Result;
using atomfs::Status;
using atomfs::WireOp;
using atomfs::WireRequest;

// --- wire mapping ------------------------------------------------------------

namespace {

WireOp WireOpOf(OpKind kind) {
  switch (kind) {
    case OpKind::kMkdir:
      return WireOp::kMkdir;
    case OpKind::kMknod:
      return WireOp::kMknod;
    case OpKind::kRmdir:
      return WireOp::kRmdir;
    case OpKind::kUnlink:
      return WireOp::kUnlink;
    case OpKind::kRename:
      return WireOp::kRename;
    case OpKind::kExchange:
      return WireOp::kExchange;
    case OpKind::kStat:
      return WireOp::kStat;
    case OpKind::kReadDir:
      return WireOp::kReadDir;
    case OpKind::kRead:
      return WireOp::kRead;
    case OpKind::kWrite:
      return WireOp::kWrite;
    case OpKind::kTruncate:
      return WireOp::kTruncate;
  }
  return WireOp::kPing;
}

}  // namespace

WireRequest MixRequest(OpKind kind, const Path& path, uint64_t bytes) {
  WireRequest req;
  req.op = WireOpOf(kind);
  req.path_a = path.ToString();
  if (kind == OpKind::kRead) {
    req.count = static_cast<uint32_t>(std::min<uint64_t>(bytes, atomfs::kWireMaxFrameBytes));
  } else if (kind == OpKind::kWrite) {
    req.data.assign(bytes, std::byte{0});
  }
  return req;
}

// --- CallProbe ---------------------------------------------------------------

CallProbe::Guard::Guard(CallLog* log, SpanName name, OpKind kind, const Path& path,
                        uint64_t bytes, uint64_t req)
    : log_(log),
      kind_(kind),
      bytes_(bytes),
      wire_(name == SpanName::kClientCall),
      t0_(NowNs()),
      scope_(name, KindTag(kind), SpanLog::enabled() ? JoinKey(kind, path) : 0, req) {
  if (log_ != nullptr && log_->capture && log_->mix.size() < kMixCap) {
    log_->mix.push_back(MixRequest(kind, path, bytes));
  }
}

void CallProbe::Guard::End(Errc code) {
  scope_.set_status(code);
  if (log_ == nullptr) {
    return;
  }
  log_->Record(t0_, NowNs(), code);
  if (code == Errc::kOk && kind_ == OpKind::kWrite) {
    log_->payload_bytes += bytes_;
  }
  if (wire_) {
    ++log_->flushes;
  }
  if (log_->capture) {
    // What the reply frame carries: u32 length + status, plus a read's blob
    // (u32 + requested bytes), a write's u64 count or a stat's attr.
    uint64_t body = 0;
    if (code == Errc::kOk) {
      body = kind_ == OpKind::kRead ? 4 + bytes_ : kind_ == OpKind::kWrite ? 8
             : kind_ == OpKind::kStat ? 17 : 0;
    }
    log_->reply_bytes += 5 + body;
    ++log_->replies;
  }
}

// --- TimedTxnHost ------------------------------------------------------------

Result<uint64_t> TimedTxnHost::TxBegin() {
  SpanLog::Scope s(SpanName::kTxnBegin);
  auto id = inner_->TxBegin();
  s.set_status(CodeOf(id));
  return id;
}

Status TimedTxnHost::TxCommit(uint64_t txid) {
  SpanLog::Scope s(SpanName::kTxnCommit);
  const Status st = inner_->TxCommit(txid);
  s.set_status(st.code());
  return st;
}

atomfs::OpResult TimedTxnHost::TxApply(uint64_t txid, const atomfs::OpCall& call) {
  SpanLog::Scope s(SpanName::kTxnApply, KindTag(call.kind),
                   SpanLog::enabled() ? JoinKey(call.kind, call.a) : 0);
  atomfs::OpResult r = inner_->TxApply(txid, call);
  s.set_status(r.status.code());
  return r;
}

// --- LockObserver ------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_observer_generation{1};

}  // namespace

LockObserver::LockObserver()
    // Relaxed: unique-id allocation only.
    : generation_(g_observer_generation.fetch_add(1, std::memory_order_relaxed)) {}

LockObserver::Slot& LockObserver::Mine() {
  // Keyed by generation, not address: a later observer may reuse this one's
  // address, and must not inherit its (freed) slot.
  thread_local uint64_t cached_generation = 0;
  thread_local Slot* cached_slot = nullptr;
  if (cached_generation != generation_) {
    auto slot = std::make_unique<Slot>();
    cached_slot = slot.get();
    cached_generation = generation_;
    std::lock_guard<std::mutex> lk(mu_);
    slots_.push_back(std::move(slot));
  }
  return *cached_slot;
}

void LockObserver::OnOpBegin(atomfs::Tid, const atomfs::OpCall&) {
  if (!SpanLog::enabled()) {
    return;
  }
  Slot& s = Mine();
  ++s.totals.ops;
  s.last_acquire_ns = 0;
}

void LockObserver::OnLockAcquired(atomfs::Tid, atomfs::Inum, atomfs::LockPathRole) {
  if (!SpanLog::enabled()) {
    return;
  }
  Slot& s = Mine();
  const int64_t now = NowNs();
  ++s.totals.locks;
  if (s.last_acquire_ns != 0) {
    ++s.totals.steps;
    s.totals.step_ns += static_cast<uint64_t>(now - s.last_acquire_ns);
  }
  s.last_acquire_ns = now;
}

LockObserver::Totals LockObserver::Collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  Totals t;
  for (const auto& s : slots_) {
    t.ops += s->totals.ops;
    t.locks += s->totals.locks;
    t.steps += s->totals.steps;
    t.step_ns += s->totals.step_ns;
  }
  return t;
}

}  // namespace perfbench
