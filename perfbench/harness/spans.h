// In-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer: name,
// start, end, parent (the enclosing span on the same thread), request id and
// a join key (op kind + path) that lets a server-side span be matched to the
// client call that caused it. Spans go into per-thread buffers, so recording
// takes no lock; buffers are read only while no thread records. Recording is
// off unless SpanLog::Enable(true): a disabled Scope costs one relaxed load.

#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"
#include "src/vfs/filesystem.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kClientCall,  // one wire call (or one pipelined batch): submit to last reply
  kClientSend,  // ClientSession Submit + Flush
  kClientWait,  // Future::Wait
  kLibCall,     // one in-process call into the file system
  kCoreOp,      // the backend AtomFs executing one op
  kTxnDirect,   // TxnManager executing one auto-committed direct op
  kTxnBegin,    // TxnHost::TxBegin
  kTxnApply,    // TxnHost::TxApply
  kTxnCommit,   // TxnHost::TxCommit
};
inline constexpr size_t kSpanNameCount = 9;
std::string_view SpanNameOf(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t req = 0;     // client request id; 0 = none
  uint64_t key = 0;     // JoinKey of the op; 0 = not a path op
  int32_t parent = -1;  // index of the enclosing span in this thread's buffer
  uint32_t calls = 1;   // client calls covered (a pipelined batch covers several)
  SpanName name = SpanName::kCoreOp;
  uint8_t kind = 0;     // KindTag of the op; 0 = not a path op
  atomfs::Errc status = atomfs::Errc::kOk;

  int64_t Duration() const { return end_ns - start_ns; }
};

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

// steady_clock nanoseconds.
int64_t NowNs();

// OpKind + 1, so 0 can mean "no op".
inline uint8_t KindTag(atomfs::OpKind kind) { return static_cast<uint8_t>(kind) + 1; }

// FNV-1a over the op kind and the path components; never 0.
uint64_t JoinKey(atomfs::OpKind kind, const atomfs::Path& path);

class SpanLog {
 public:
  static void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Drops every recorded span. Only while no thread records.
  static void Clear();
  // Every thread's buffer. Only while no thread records.
  static std::vector<const ThreadSpans*> Threads();

  // Records one span from construction to destruction on the calling
  // thread, nested under the thread's innermost open span.
  class Scope {
   public:
    explicit Scope(SpanName name, uint8_t kind = 0, uint64_t key = 0, uint64_t req = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_status(atomfs::Errc code);
    void set_calls(uint32_t calls);

   private:
    ThreadSpans* buf_ = nullptr;  // null when recording was off at construction
    size_t index_ = 0;
  };

 private:
  // Relaxed: a mode switch flipped only while the recording threads are
  // parked between phases; the buffers themselves are per-thread.
  static std::atomic<bool> enabled_;
};

// --- analysis ----------------------------------------------------------------

struct SpanStats {
  std::vector<uint64_t> dur_ns;       // whole span
  std::vector<uint64_t> self_ns;      // span minus its children
  std::vector<uint64_t> per_call_ns;  // whole span / calls covered
};

// Per span name: durations, self times (span minus the part its children on
// the same thread cover) and per-call durations.
std::array<SpanStats, kSpanNameCount> AnalyzeSpans(const std::vector<const ThreadSpans*>& threads);

// Joins server-side root spans (core.op / txn.direct / txn.apply with a join
// key) to the client call that contains them in time and carries the same
// key. `gap_ns` holds client call duration minus server span duration for
// every joined pair; `req` (parallel to the thread buffers) the request id
// each joined server span belongs to.
struct WireJoin {
  uint64_t server_roots = 0;
  uint64_t joined = 0;
  std::vector<uint64_t> gap_ns;
  std::vector<std::vector<uint64_t>> req;
};
WireJoin JoinAcrossWire(const std::vector<const ThreadSpans*>& threads);

// Writes the earliest `max_spans` spans as Chrome trace-event JSON (complete
// "X" events, one track per recording thread). False on an I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<const ThreadSpans*>& threads,
                      const WireJoin& join, size_t max_spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
