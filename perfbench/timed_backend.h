#ifndef CPR_PERFBENCH_TIMED_BACKEND_H_
#define CPR_PERFBENCH_TIMED_BACKEND_H_

// kv::Backend decorator that times every data-path call into the wrapped
// backend, from outside the program: the server is handed this object and
// never downcasts its backend, so the decorator is transparent. Sessions are
// the inner backend's own objects, passed through untouched.
//
// Each server worker thread appends to its own CallLog (no sharing on the
// hot path); Merge() may only run once the server has stopped.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "shard/backend.h"
#include "util/clock.h"

namespace perfbench {

// One sampled backend call, joinable with the client op by (guid, serial).
struct BackendSpan {
  uint64_t guid = 0;
  uint64_t serial = 0;
  uint64_t start_ns = 0;
  uint32_t dur_ns = 0;
  uint32_t thread = 0;  // CallLog::thread
  char op = 'r';        // r(ead) m(rmw) u(psert) t(xn)
};

struct CallLog {
  uint32_t thread = 0;
  std::vector<uint32_t> read_ns, rmw_ns, upsert_ns, txn_ns;
  uint64_t data_calls = 0;  // Read/Upsert/Rmw/Txn
  uint64_t data_call_ns = 0;
  uint64_t pending = 0;     // single-key calls that returned kPending
  uint64_t refresh_calls = 0, refresh_ns = 0;
  // CompletePending calls that completed at least one op (the others are
  // the per-loop no-op polls).
  uint64_t complete_busy_calls = 0, complete_busy_ns = 0;
  uint64_t txn_conflicts = 0;
  std::vector<BackendSpan> spans;  // calls with serial % span_every == 0

  void Append(const CallLog& o);
};

class TimedBackend final : public cpr::kv::Backend {
 public:
  // `inner` must outlive this object. Calls are timed only while
  // recording(); spans are kept for serials divisible by `span_every`.
  TimedBackend(cpr::kv::Backend* inner, uint64_t span_every);

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  // Sum of every worker's log. Only after the server has stopped.
  CallLog Merge() const;

  // -- Timed data path --------------------------------------------------
  cpr::faster::OpStatus Read(cpr::kv::Session& s, uint64_t key,
                             void* value_out) override;
  cpr::faster::OpStatus Upsert(cpr::kv::Session& s, uint64_t key,
                               const void* value) override;
  cpr::faster::OpStatus Rmw(cpr::kv::Session& s, uint64_t key,
                            int64_t delta) override;
  void Refresh(cpr::kv::Session& s) override;
  size_t CompletePending(cpr::kv::Session& s, bool wait_for_all) override;
  cpr::kv::TxnStatus Txn(cpr::kv::Session& s,
                         const std::vector<cpr::kv::TxnOp>& ops,
                         std::vector<std::vector<char>>* reads) override;

  // -- Forwarded untouched (the workloads never delete) -------------------
  cpr::faster::OpStatus Delete(cpr::kv::Session& s, uint64_t key) override {
    return inner_->Delete(s, key);
  }
  cpr::kv::Session* StartSession(uint64_t guid) override {
    return inner_->StartSession(guid);
  }
  void StopSession(cpr::kv::Session* s) override { inner_->StopSession(s); }
  cpr::Status DurableCommitPoint(uint64_t guid,
                                 uint64_t* serial) const override {
    return inner_->DurableCommitPoint(guid, serial);
  }
  uint64_t LastCheckpointToken() const override {
    return inner_->LastCheckpointToken();
  }
  uint64_t LastFinishedToken() const override {
    return inner_->LastFinishedToken();
  }
  uint64_t CheckpointFailures() const override {
    return inner_->CheckpointFailures();
  }
  cpr::Status Dump(uint32_t table, uint64_t start_row, uint32_t max_rows,
                   uint32_t max_bytes, uint32_t* value_size,
                   uint64_t* rows_total, uint64_t* next_row,
                   std::vector<cpr::kv::DumpRow>* rows) override {
    return inner_->Dump(table, start_row, max_rows, max_bytes, value_size,
                        rows_total, next_row, rows);
  }
  bool Checkpoint(cpr::faster::CommitVariant variant, bool include_index,
                  uint64_t* token_out) override {
    return inner_->Checkpoint(variant, include_index, token_out);
  }
  bool CheckpointInProgress() const override {
    return inner_->CheckpointInProgress();
  }
  cpr::Status WaitForCheckpoint(uint64_t token) override {
    return inner_->WaitForCheckpoint(token);
  }
  cpr::Status Recover() override { return inner_->Recover(); }
  cpr::Status StartRecovery() override { return inner_->StartRecovery(); }
  bool Recovering() const override { return inner_->Recovering(); }
  bool ShardReady(uint32_t shard) const override {
    return inner_->ShardReady(shard);
  }
  uint32_t ShardOfKey(uint64_t key) const override {
    return inner_->ShardOfKey(key);
  }
  void PrioritizeShard(uint32_t shard) override {
    inner_->PrioritizeShard(shard);
  }
  cpr::Status WaitForRecovery() override { return inner_->WaitForRecovery(); }
  uint64_t SkipSerial(cpr::kv::Session& s) override {
    return inner_->SkipSerial(s);
  }
  cpr::durability::ProviderKind Provider() const override {
    return inner_->Provider();
  }
  cpr::Status SwitchProvider(cpr::durability::ProviderKind target) override {
    return inner_->SwitchProvider(target);
  }
  bool RequestProviderSwitch(cpr::durability::ProviderKind target) override {
    return inner_->RequestProviderSwitch(target);
  }
  bool ProviderSwitchPending() const override {
    return inner_->ProviderSwitchPending();
  }
  uint64_t ProviderSwitches() const override {
    return inner_->ProviderSwitches();
  }
  uint64_t ProviderLastBoundary() const override {
    return inner_->ProviderLastBoundary();
  }
  uint32_t value_size() const override { return inner_->value_size(); }
  uint32_t num_shards() const override { return inner_->num_shards(); }
  uint64_t ShardOpCount(uint32_t shard) const override {
    return inner_->ShardOpCount(shard);
  }

 private:
  bool recording() const {
    return recording_.load(std::memory_order_acquire);
  }
  CallLog& ThisThreadLog();
  // Books one timed single-key call.
  void NoteKeyCall(cpr::kv::Session& s, char op, std::vector<uint32_t> CallLog::*
                   samples, uint64_t start, cpr::faster::OpStatus st);

  cpr::kv::Backend* const inner_;
  const uint64_t span_every_;
  const uint64_t id_;  // tells apart decorators that reuse an address
  std::atomic<bool> recording_{false};
  mutable std::mutex logs_mu_;
  std::vector<std::unique_ptr<CallLog>> logs_;
};

}  // namespace perfbench

#endif  // CPR_PERFBENCH_TIMED_BACKEND_H_
