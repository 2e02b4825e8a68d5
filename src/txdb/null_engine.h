#ifndef CPR_TXDB_NULL_ENGINE_H_
#define CPR_TXDB_NULL_ENGINE_H_

#include "txdb/db.h"
#include "util/clock.h"

namespace cpr::txdb {

// No durability: plain strict-2PL/NO-WAIT execution. Baseline for measuring
// the overhead the durability engines add.
class NullEngine : public Engine {
 public:
  explicit NullEngine(TransactionalDb& db) : Engine(db) {}

  TxnResult Execute(ThreadContext& ctx, const Transaction& txn) override {
    const uint64_t start = NowNanos();
    if (!AcquireLocks(txn, ctx)) {
      ctx.counters.abort_ns += NowNanos() - start;
      ctx.counters.aborted_txns += 1;
      return TxnResult::kAbortedConflict;
    }
    ApplyOps(txn, ctx);
    ReleaseLocks(ctx);
    ctx.serial.fetch_add(1, std::memory_order_release);
    ctx.counters.exec_ns += NowNanos() - start;
    ctx.counters.committed_txns += 1;
    return TxnResult::kCommitted;
  }

  uint64_t RequestCommit(CommitCallback) override { return 0; }
  Status WaitForCommit(uint64_t) override { return Status::Ok(); }
  bool CommitInProgress() const override { return false; }
  Status Recover(std::vector<CommitPoint>*) override {
    return Status::InvalidArgument("no durability engine configured");
  }
};

}  // namespace cpr::txdb

#endif  // CPR_TXDB_NULL_ENGINE_H_
