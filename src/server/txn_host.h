// TxnHost: the narrow interface the serving layer uses to drive transactions
// (wire ops TXBEGIN / TXCOMMIT / TXABORT and in-transaction execution of the
// path-based FileSystem ops).
//
// This lives in src/server rather than src/txn so that atomfs_net does not
// link the transaction (and hence journal/workload) libraries: the server
// depends only on this pure interface, and a TxnManager (src/txn/txn.h) is
// plugged in by the embedder (tools/atomfsd.cpp) when transactions are
// enabled. A server with no TxnHost answers the transaction opcodes EINVAL.
//
// Threading: all four calls may arrive concurrently from different event-loop
// shards (for different transactions); implementations synchronize
// internally. The server guarantees that calls for one transaction id are
// serialized (a connection's requests all run on its one shard thread).

#ifndef ATOMFS_SRC_SERVER_TXN_HOST_H_
#define ATOMFS_SRC_SERVER_TXN_HOST_H_

#include <cstdint>

#include "src/afs/op.h"
#include "src/util/status.h"

namespace atomfs {

class TxnHost {
 public:
  virtual ~TxnHost() = default;

  // Opens a transaction and returns its id (> 0).
  virtual Result<uint64_t> TxBegin() = 0;
  // Atomically applies the transaction's buffered ops, or rolls the whole
  // transaction back: kTxConflict if it lost an optimistic-concurrency race,
  // the failing op's error if its ops no longer apply cleanly. The
  // transaction is finished either way. kInval for an unknown id.
  virtual Status TxCommit(uint64_t txid) = 0;
  // Discards the transaction; its ops were never visible. kInval for an
  // unknown id.
  virtual Status TxAbort(uint64_t txid) = 0;
  // Executes one op inside the transaction, against its private snapshot
  // (read-your-writes; invisible to other transactions until commit).
  virtual OpResult TxApply(uint64_t txid, const OpCall& call) = 0;
  // Admin: checkpoint + compact the journal now (wire op CHECKPOINT,
  // atomfsd SIGHUP). Non-pure so hosts without a journal keep compiling;
  // the default answers kInval, a journaled host kIo on a failed write.
  virtual Status TxCheckpoint() { return Status(Errc::kInval); }
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_SERVER_TXN_HOST_H_
