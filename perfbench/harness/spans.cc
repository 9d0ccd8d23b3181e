#include "perfbench/harness/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

std::atomic<bool> SpanLog::enabled_{false};

namespace {

constexpr size_t kMaxSpansPerThread = 2'000'000;

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSpans>> all;  // guarded by mu
};

Registry& Reg() {
  static Registry registry;
  return registry;
}

// The calling thread's buffer (registered on first use, owned by the
// registry so it outlives the thread) and its stack of open spans.
struct ThreadState {
  ThreadSpans* buf = nullptr;
  std::vector<int32_t> open;
};
thread_local ThreadState t_state;

ThreadSpans* MyBuffer() {
  if (t_state.buf == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    owned->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> lk(Reg().mu);
    owned->thread = static_cast<uint32_t>(Reg().all.size());
    t_state.buf = owned.get();
    Reg().all.push_back(std::move(owned));
  }
  return t_state.buf;
}

bool IsServerRoot(const Span& s) {
  return s.parent == -1 && s.key != 0 && s.end_ns != 0 &&
         (s.name == SpanName::kCoreOp || s.name == SpanName::kTxnDirect ||
          s.name == SpanName::kTxnApply);
}

}  // namespace

std::string_view SpanNameOf(SpanName name) {
  switch (name) {
    case SpanName::kClientCall:
      return "client.call";
    case SpanName::kClientSend:
      return "client.send";
    case SpanName::kClientWait:
      return "client.wait";
    case SpanName::kLibCall:
      return "lib.call";
    case SpanName::kCoreOp:
      return "core.op";
    case SpanName::kTxnDirect:
      return "txn.direct";
    case SpanName::kTxnBegin:
      return "txn.begin";
    case SpanName::kTxnApply:
      return "txn.apply";
    case SpanName::kTxnCommit:
      return "txn.commit";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t JoinKey(atomfs::OpKind kind, const atomfs::Path& path) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  mix(static_cast<unsigned char>(kind));
  for (const std::string& part : path.parts) {
    mix('/');
    for (char c : part) {
      mix(static_cast<unsigned char>(c));
    }
  }
  return h == 0 ? 1 : h;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lk(Reg().mu);
  for (auto& t : Reg().all) {
    t->spans.clear();
  }
}

std::vector<const ThreadSpans*> SpanLog::Threads() {
  std::lock_guard<std::mutex> lk(Reg().mu);
  std::vector<const ThreadSpans*> out;
  for (const auto& t : Reg().all) {
    out.push_back(t.get());
  }
  return out;
}

SpanLog::Scope::Scope(SpanName name, uint8_t kind, uint64_t key, uint64_t req) {
  if (!enabled()) {
    return;
  }
  ThreadSpans* buf = MyBuffer();
  if (buf->spans.size() >= kMaxSpansPerThread) {
    return;  // bounded memory; the analysis sees the earlier spans
  }
  buf_ = buf;
  index_ = buf_->spans.size();
  Span s;
  s.name = name;
  s.kind = kind;
  s.key = key;
  s.req = req;
  s.parent = t_state.open.empty() ? -1 : t_state.open.back();
  s.start_ns = NowNs();
  buf_->spans.push_back(s);
  t_state.open.push_back(static_cast<int32_t>(index_));
}

SpanLog::Scope::~Scope() {
  if (buf_ == nullptr) {
    return;
  }
  buf_->spans[index_].end_ns = NowNs();
  t_state.open.pop_back();
}

void SpanLog::Scope::set_status(atomfs::Errc code) {
  if (buf_ != nullptr) {
    buf_->spans[index_].status = code;
  }
}

void SpanLog::Scope::set_calls(uint32_t calls) {
  if (buf_ != nullptr) {
    buf_->spans[index_].calls = calls;
  }
}

std::array<SpanStats, kSpanNameCount> AnalyzeSpans(const std::vector<const ThreadSpans*>& threads) {
  std::array<SpanStats, kSpanNameCount> out;
  for (const ThreadSpans* t : threads) {
    const std::vector<Span>& v = t->spans;
    std::vector<int64_t> children(v.size(), 0);
    for (const Span& s : v) {
      if (s.parent >= 0 && s.end_ns != 0) {
        children[static_cast<size_t>(s.parent)] += s.Duration();
      }
    }
    for (size_t i = 0; i < v.size(); ++i) {
      const Span& s = v[i];
      if (s.end_ns == 0) {
        continue;  // still open when recording stopped
      }
      const int64_t dur = std::max<int64_t>(0, s.Duration());
      SpanStats& st = out[static_cast<size_t>(s.name)];
      st.dur_ns.push_back(static_cast<uint64_t>(dur));
      st.self_ns.push_back(static_cast<uint64_t>(std::max<int64_t>(0, dur - children[i])));
      st.per_call_ns.push_back(static_cast<uint64_t>(dur) / std::max<uint32_t>(1, s.calls));
    }
  }
  return out;
}

WireJoin JoinAcrossWire(const std::vector<const ThreadSpans*>& threads) {
  struct CallRef {
    int64_t start_ns;
    int64_t end_ns;
    uint64_t req;
  };
  std::unordered_map<uint64_t, std::vector<CallRef>> calls;
  for (const ThreadSpans* t : threads) {
    for (const Span& s : t->spans) {
      if (s.name == SpanName::kClientCall && s.key != 0 && s.end_ns != 0) {
        calls[s.key].push_back(CallRef{s.start_ns, s.end_ns, s.req});
      }
    }
  }
  WireJoin join;
  join.req.resize(threads.size());
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    const std::vector<Span>& v = threads[ti]->spans;
    join.req[ti].assign(v.size(), 0);
    for (size_t i = 0; i < v.size(); ++i) {
      const Span& s = v[i];
      if (!IsServerRoot(s)) {
        continue;
      }
      ++join.server_roots;
      auto it = calls.find(s.key);
      if (it == calls.end()) {
        continue;
      }
      for (const CallRef& c : it->second) {
        if (c.start_ns <= s.start_ns && s.end_ns <= c.end_ns) {
          join.gap_ns.push_back(
              static_cast<uint64_t>(std::max<int64_t>(0, (c.end_ns - c.start_ns) - s.Duration())));
          join.req[ti][i] = c.req;
          ++join.joined;
          break;
        }
      }
    }
  }
  return join;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const ThreadSpans*>& threads,
                      const WireJoin& join, size_t max_spans) {
  struct Ref {
    int64_t start_ns;
    uint32_t t;
    uint32_t i;
  };
  std::vector<Ref> refs;
  for (size_t t = 0; t < threads.size(); ++t) {
    const std::vector<Span>& v = threads[t]->spans;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i].end_ns != 0) {
        refs.push_back(Ref{v[i].start_ns, static_cast<uint32_t>(t), static_cast<uint32_t>(i)});
      }
    }
  }
  auto by_start = [](const Ref& a, const Ref& b) { return a.start_ns < b.start_ns; };
  if (refs.size() > max_spans) {
    std::nth_element(refs.begin(), refs.begin() + static_cast<std::ptrdiff_t>(max_spans),
                     refs.end(), by_start);
    refs.resize(max_spans);
  }
  std::sort(refs.begin(), refs.end(), by_start);
  const int64_t t0 = refs.empty() ? 0 : refs.front().start_ns;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  const char* sep = "\n";
  for (const Ref& r : refs) {
    const ThreadSpans& ts = *threads[r.t];
    const Span& s = ts.spans[r.i];
    const uint64_t id = (uint64_t{ts.thread} << 32) | r.i;
    const int64_t parent =
        s.parent < 0 ? -1
                     : static_cast<int64_t>((uint64_t{ts.thread} << 32) |
                                            static_cast<uint32_t>(s.parent));
    const uint64_t req = s.req != 0 ? s.req : join.req.size() > r.t ? join.req[r.t][r.i] : 0;
    const std::string_view name = SpanNameOf(s.name);
    const std::string_view cat =
        s.kind == 0 ? std::string_view("-")
                    : atomfs::OpKindName(static_cast<atomfs::OpKind>(s.kind - 1));
    const std::string_view status = atomfs::ErrcName(s.status);
    std::fprintf(f,
                 "%s{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%lld,\"req\":%llu,"
                 "\"calls\":%u,\"status\":\"%.*s\"}}",
                 sep, static_cast<int>(name.size()), name.data(), static_cast<int>(cat.size()),
                 cat.data(), ts.thread, static_cast<double>(s.start_ns - t0) / 1000.0,
                 static_cast<double>(s.Duration()) / 1000.0, static_cast<unsigned long long>(id),
                 static_cast<long long>(parent), static_cast<unsigned long long>(req), s.calls,
                 static_cast<int>(status.size()), status.data());
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
