#include "perfbench/harness/probes.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <thread>

namespace perfbench {

using atomfs::Errc;
using atomfs::Path;

namespace {

bool SendAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool RecvAll(int fd, char* p, size_t n) {
  while (n > 0) {
    const ssize_t r = recv(fd, p, n, 0);
    if (r == 0) {
      return false;  // peer shut down
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

FloorResult MeasureFloor(int conns, size_t req_bytes, size_t reply_bytes, double seconds) {
  req_bytes = std::max<size_t>(req_bytes, 1);
  reply_bytes = std::max<size_t>(reply_bytes, 1);
  struct Pair {
    int fd[2] = {-1, -1};
    std::vector<uint64_t> rtt_ns;
  };
  std::vector<Pair> pairs(static_cast<size_t>(conns));
  bool ok = true;
  for (Pair& p : pairs) {
    ok = ok && socketpair(AF_UNIX, SOCK_STREAM, 0, p.fd) == 0;
  }
  if (ok) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (Pair& p : pairs) {
      threads.emplace_back([&p, req_bytes, reply_bytes] {
        std::vector<char> in(req_bytes), out(reply_bytes, 'r');
        while (RecvAll(p.fd[1], in.data(), in.size()) &&
               SendAll(p.fd[1], out.data(), out.size())) {
        }
      });
      threads.emplace_back([&p, req_bytes, reply_bytes, deadline] {
        std::vector<char> out(req_bytes, 'q'), in(reply_bytes);
        p.rtt_ns.reserve(1 << 18);
        while (NowNs() < deadline) {
          const int64_t t0 = NowNs();
          if (!SendAll(p.fd[0], out.data(), out.size()) ||
              !RecvAll(p.fd[0], in.data(), in.size())) {
            break;
          }
          p.rtt_ns.push_back(static_cast<uint64_t>(NowNs() - t0));
        }
        shutdown(p.fd[0], SHUT_WR);  // ends the echo loop
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  std::vector<uint64_t> all;
  for (Pair& p : pairs) {
    for (int fd : p.fd) {
      if (fd >= 0) {
        close(fd);
      }
    }
    all.insert(all.end(), p.rtt_ns.begin(), p.rtt_ns.end());
  }
  FloorResult r;
  r.samples = all.size();
  r.p50_ns = ExactQuantile(all, 0.50);
  return r;
}

CodecResult ReplayCodec(const std::vector<atomfs::WireRequest>& mix, int rounds) {
  CodecResult r;
  if (mix.empty() || rounds <= 0) {
    return r;
  }
  uint64_t bytes = 0;
  uint64_t sink = 0;  // keeps the parse results observable
  const int64_t t0 = NowNs();
  for (int round = 0; round < rounds; ++round) {
    for (const atomfs::WireRequest& req : mix) {
      const std::vector<std::byte> encoded = atomfs::EncodeRequest(req);
      bytes += encoded.size();
      auto parsed = atomfs::ParseRequest(encoded);
      if (!parsed.ok() || parsed->op != req.op) {
        r.ok = false;
        continue;
      }
      sink += parsed->path_a.size() + parsed->data.size();
    }
  }
  const double calls = static_cast<double>(mix.size()) * rounds;
  r.ns_per_request = static_cast<double>(NowNs() - t0) / calls;
  r.mean_request_bytes = static_cast<double>(bytes) / calls;
  r.ok = r.ok && sink > 0;
  return r;
}

CheckedReplay CheckCalls(atomfs::FileSystem& target, atomfs::SpecFs& oracle,
                         const std::vector<atomfs::OpCall>& calls) {
  CheckedReplay r;
  for (const atomfs::OpCall& call : calls) {
    const atomfs::OpResult got = atomfs::RunOp(target, call);
    const atomfs::OpResult want = atomfs::RunOp(oracle, call);
    ++r.ops;
    if (!atomfs::ResultsEquivalent(call.kind, got, want) && r.mismatches++ == 0) {
      r.first_mismatch = call.ToString() + ": got " + got.ToString(call.kind) + ", oracle " +
                         want.ToString(call.kind);
    }
  }
  return r;
}

void ReplaySessions(const std::vector<atomfs::ClientSession*>& sessions,
                    const std::vector<std::vector<atomfs::WireRequest>>& mixes) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < sessions.size() && c < mixes.size(); ++c) {
    threads.emplace_back([s = sessions[c], &mix = mixes[c]] {
      for (const atomfs::WireRequest& req : mix) {
        atomfs::ClientSession::Future f;
        {
          SpanLog::Scope send(SpanName::kClientSend);
          f = s->Submit(req);
          (void)s->Flush();  // a failure resolves `f` with the session's error
        }
        SpanLog::Scope wait(SpanName::kClientWait);
        (void)f.Wait();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

atomfs::Result<atomfs::SpecFs> ReadTree(atomfs::FileSystem& fs) {
  atomfs::SpecFs out;
  std::vector<Path> pending{Path{}};
  std::vector<std::byte> buf;
  while (!pending.empty()) {
    const Path dir = std::move(pending.back());
    pending.pop_back();
    auto entries = fs.ReadDir(dir);
    if (!entries.ok()) {
      return entries.status();
    }
    for (const atomfs::DirEntry& e : *entries) {
      Path child = dir;
      child.parts.push_back(e.name);
      if (e.type == atomfs::FileType::kDir) {
        if (!out.Mkdir(child).ok()) {
          return Errc::kInval;
        }
        pending.push_back(std::move(child));
        continue;
      }
      auto attr = fs.Stat(child);
      if (!attr.ok()) {
        return attr.status();
      }
      buf.resize(attr->size);
      auto n = fs.Read(child, 0, std::span<std::byte>(buf));
      if (!n.ok()) {
        return n.status();
      }
      if (*n != attr->size) {
        return Errc::kIo;
      }
      if (!out.Mknod(child).ok() || !out.Write(child, 0, std::span<const std::byte>(buf)).ok()) {
        return Errc::kInval;
      }
    }
  }
  return out;
}

}  // namespace perfbench
