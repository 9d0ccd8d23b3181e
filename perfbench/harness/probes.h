// Stand-alone measurements and output checks that sit beside the workloads:
// the kernel floor, the codec and session replays, the differential replay
// against the SpecFs oracle and the tree read-back.

#ifndef PERFBENCH_HARNESS_PROBES_H_
#define PERFBENCH_HARNESS_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness/layers.h"
#include "src/client/client.h"
#include "src/afs/op.h"
#include "src/afs/spec_fs.h"
#include "src/net/wire.h"

namespace perfbench {

// Raw unix-socket ping-pong: `conns` socketpairs, each with an echo thread
// answering every `req_bytes` message with `reply_bytes`, while the other
// end runs a closed loop for `seconds`. No codec, no server, no file system:
// the kernel's cost for the same traffic shape.
struct FloorResult {
  uint64_t samples = 0;
  uint64_t p50_ns = 0;
};
FloorResult MeasureFloor(int conns, size_t req_bytes, size_t reply_bytes, double seconds);

// EncodeRequest + ParseRequest over a recorded request mix, `rounds` times.
struct CodecResult {
  double ns_per_request = 0;
  double mean_request_bytes = 0;  // encoded payload, without the u32 frame header
  bool ok = true;                 // every request parsed back to the same op
};
CodecResult ReplayCodec(const std::vector<atomfs::WireRequest>& mix, int rounds);

// Runs every call on `target` and on the `oracle` and compares the results
// (inode numbers masked, as in the refinement checkers).
struct CheckedReplay {
  uint64_t ops = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};
CheckedReplay CheckCalls(atomfs::FileSystem& target, atomfs::SpecFs& oracle,
                         const std::vector<atomfs::OpCall>& calls);

// Replays each session's recorded requests on that session, all sessions at
// once, as one Submit + Flush (a client.send span) and one Future::Wait (a
// client.wait span) per request. AtomFsClient's synchronous calls, which the
// depth-1 workloads make, do not expose that split.
void ReplaySessions(const std::vector<atomfs::ClientSession*>& sessions,
                    const std::vector<std::vector<atomfs::WireRequest>>& mixes);

// Reads the whole tree through `fs` (ReadDir, Stat, Read) into a SpecFs.
atomfs::Result<atomfs::SpecFs> ReadTree(atomfs::FileSystem& fs);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBES_H_
