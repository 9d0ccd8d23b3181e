#include "src/crlh/gate.h"

#include <cstdio>
#include <cstdlib>

namespace atomfs {
namespace {

const char* PointName(GateObserver::Point point) {
  switch (point) {
    case GateObserver::Point::kLockAcquired:
      return "lock-acquired";
    case GateObserver::Point::kLockReleased:
      return "lock-released";
    case GateObserver::Point::kLp:
      return "LP";
    case GateObserver::Point::kOpBegin:
      return "op-begin";
    case GateObserver::Point::kOptValidated:
      return "opt-validated";
  }
  return "?";
}

}  // namespace

void GateObserver::Arm(Tid tid, Point point, Inum ino) {
  std::lock_guard<std::mutex> lk(mu_);
  Gate& g = gates_[tid];
  g.point = point;
  g.ino = ino;
  g.armed = true;
  g.parked = false;
  g.open = false;
}

void GateObserver::WaitParked(Tid tid, std::chrono::milliseconds bound) {
  std::unique_lock<std::mutex> lk(mu_);
  if (cv_.wait_for(lk, bound, [&] {
        auto it = gates_.find(tid);
        return it != gates_.end() && it->second.parked;
      })) {
    return;
  }
  auto it = gates_.find(tid);
  const bool armed = it != gates_.end() && it->second.armed;
  std::fprintf(stderr,
               "GateObserver::WaitParked: tid %u never reached its %s gate (ino %llu) within "
               "%lld ms\n",
               static_cast<unsigned>(tid), armed ? PointName(it->second.point) : "unarmed",
               static_cast<unsigned long long>(armed ? it->second.ino : kInvalidInum),
               static_cast<long long>(bound.count()));
  std::abort();
}

void GateObserver::Open(Tid tid) {
  std::lock_guard<std::mutex> lk(mu_);
  Gate& g = gates_[tid];
  g.open = true;
  cv_.notify_all();
}

bool GateObserver::IsParked(Tid tid) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gates_.find(tid);
  return it != gates_.end() && it->second.parked;
}

bool GateObserver::StartOnLockedWalk(OpThread& op, std::function<void()> hold_root) {
  OpThread holder(std::move(hold_root));
  Arm(holder.tid(), Point::kLockAcquired, kRootInum);
  holder.Go();
  WaitParked(holder.tid());
  uint64_t before = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    before = fallbacks_[op.tid()];
  }
  op.Go();
  bool fell_back = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    fell_back = cv_.wait_for(lk, kGateWaitBound,
                             [&] { return fallbacks_[op.tid()] > before; });
  }
  Open(holder.tid());
  holder.Join();
  return fell_back;
}

void GateObserver::MaybePark(Tid tid, Point point, Inum ino) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = gates_.find(tid);
  if (it == gates_.end()) {
    return;
  }
  Gate& g = it->second;
  if (!g.armed || g.point != point) {
    return;
  }
  if (point == Point::kLockAcquired || point == Point::kLockReleased) {
    if (g.ino != kInvalidInum && g.ino != ino) {
      return;
    }
  }
  g.armed = false;  // one-shot
  g.parked = true;
  cv_.notify_all();
  cv_.wait(lk, [&g] { return g.open; });
  g.parked = false;
  g.open = false;
  cv_.notify_all();
}

void GateObserver::OnOpBegin(Tid tid, const OpCall& call) {
  (void)call;
  MaybePark(tid, Point::kOpBegin, kInvalidInum);
}

void GateObserver::OnLockAcquired(Tid tid, Inum ino, LockPathRole role) {
  (void)role;
  MaybePark(tid, Point::kLockAcquired, ino);
}

void GateObserver::OnLockReleased(Tid tid, Inum ino) {
  MaybePark(tid, Point::kLockReleased, ino);
}

void GateObserver::OnLp(Tid tid, Inum created_ino) {
  (void)created_ino;
  MaybePark(tid, Point::kLp, kInvalidInum);
}

void GateObserver::OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) {
  (void)depth;
  if (outcome == OptValidation::kPass) {
    MaybePark(tid, Point::kOptValidated, kInvalidInum);
  }
}

void GateObserver::OnOptWalkFallback(Tid tid) {
  std::lock_guard<std::mutex> lk(mu_);
  ++fallbacks_[tid];
  cv_.notify_all();
}

}  // namespace atomfs
