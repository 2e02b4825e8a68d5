#include "txdb/calc_engine.h"

#include <cstring>

#include "txdb/checkpoint_io.h"
#include "util/clock.h"

namespace cpr::txdb {

CalcEngine::CalcEngine(TransactionalDb& db)
    : Engine(db), state_(Pack(false, 1)), point_lsn_(0) {
  uint64_t entries = db.options().calc_log_entries;
  // Round up to a power of two for cheap masking.
  uint64_t pow2 = 1;
  while (pow2 < entries) pow2 <<= 1;
  log_mask_ = pow2 - 1;
  log_slots_.reset(new std::atomic<uint64_t>[pow2]());
  checkpoint_thread_ = std::thread([this] { CheckpointThreadLoop(); });
}

CalcEngine::~CalcEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  capture_cv_.notify_all();
  checkpoint_thread_.join();
}

TxnResult CalcEngine::Execute(ThreadContext& ctx, const Transaction& txn) {
  const uint64_t start = NowNanos();
  if (!AcquireLocks(txn, ctx)) {
    ctx.counters.abort_ns += NowNanos() - start;
    ctx.counters.aborted_txns += 1;
    return TxnResult::kAbortedConflict;
  }
  const uint64_t exec_end_locks = NowNanos();
  ctx.counters.exec_ns += exec_end_locks - start;

  // Atomic commit log append — CALC does this for *every* transaction,
  // including read-only ones; this is the measured serial bottleneck.
  const uint64_t t0 = NowNanos();
  const uint64_t lsn = log_tail_.fetch_add(1, std::memory_order_seq_cst);
  log_slots_[lsn & log_mask_].store(
      (static_cast<uint64_t>(ctx.thread_id) << 48) |
          ctx.serial.load(std::memory_order_relaxed),
      std::memory_order_release);
  ctx.counters.tail_contention_ns += NowNanos() - t0;

  const uint64_t exec_start2 = NowNanos();
  const uint64_t s = state_.load(std::memory_order_seq_cst);
  // With the commit machine at rest, any future point is chosen from a log
  // tail past this LSN, so the transaction lands before it. While a capture
  // is active the LSN-vs-point comparison decides.
  bool covered = true;
  if (ActiveOf(s)) {
    const uint64_t v = VersionOf(s);
    if (lsn >= point_lsn_.load(std::memory_order_acquire)) {
      // Not part of the checkpoint: preserve the pre-point value. The
      // thread's point stays put until the capture concludes (OnRefresh
      // then republishes the full serial).
      covered = false;
      for (const LockedRecord& lr : ctx.locked) {
        RecordHeader& h = lr.table->header(lr.row);
        if (h.version.load(std::memory_order_acquire) < v + 1) {
          lr.table->PreserveStable(lr.row);
          h.version.store(static_cast<uint32_t>(v + 1),
                          std::memory_order_release);
        }
      }
    }
  }

  ApplyOps(txn, ctx);
  const uint64_t done = ctx.serial.load(std::memory_order_relaxed) + 1;
  ctx.serial.store(done, std::memory_order_release);
  if (covered) {
    // Publish the point before releasing locks: a pre-point transaction held
    // its record latches before the capture began, so the capture's row copy
    // (latch-ordered after this release) and the point collection behind it
    // observe this store — per-thread points stay exact for writers.
    ctx.cpr_point_serial.store(done, std::memory_order_release);
  }
  ReleaseLocks(ctx);
  ctx.counters.exec_ns += NowNanos() - exec_start2;
  ctx.counters.committed_txns += 1;
  return TxnResult::kCommitted;
}

void CalcEngine::OnRefresh(ThreadContext& ctx) {
  // No phase machine to drive — a CALC refresh only republishes the thread's
  // committed prefix. Observing the commit machine at rest proves every
  // transaction this thread committed precedes any future capture point, so
  // its point is its serial. This is what lets an idle session's durable
  // acks release on the next checkpoint (transactions that rode in behind an
  // in-flight point advance here once that capture concludes).
  if (!ActiveOf(state_.load(std::memory_order_seq_cst))) {
    ctx.cpr_point_serial.store(ctx.serial.load(std::memory_order_relaxed),
                               std::memory_order_release);
  }
}

uint64_t CalcEngine::RequestCommit(CommitCallback callback) {
  uint64_t expected = state_.load(std::memory_order_acquire);
  if (ActiveOf(expected)) return 0;
  const uint64_t v = VersionOf(expected);
  {
    std::lock_guard<std::mutex> lock(mu_);
    callback_ = std::move(callback);
  }
  // Activate first, then choose the point: any transaction whose LSN lands
  // at or after the point is guaranteed to observe active (seq_cst
  // ordering), so every post-point transaction preserves stable values.
  if (!state_.compare_exchange_strong(expected, Pack(true, v),
                                      std::memory_order_seq_cst)) {
    return 0;
  }
  point_lsn_.store(log_tail_.load(std::memory_order_seq_cst),
                   std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mu_);
    capture_version_ = v;
  }
  capture_cv_.notify_one();
  return v;
}

void CalcEngine::CheckpointThreadLoop() {
  while (true) {
    uint64_t v = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      capture_cv_.wait(lock, [this] { return stop_ || capture_version_ != 0; });
      if (stop_) return;
      v = capture_version_;
      capture_version_ = 0;
    }
    CaptureAndPersist(v);
  }
}

void CalcEngine::CaptureAndPersist(uint64_t v) {
  Storage& storage = db_.storage();
  CheckpointMeta meta;
  meta.version = v;

  std::vector<char> data;
  for (uint32_t t = 0; t < storage.num_tables(); ++t) {
    Table& table = storage.table(t);
    meta.table_schemas.emplace_back(table.rows(), table.value_size());
    const uint32_t vsize = table.value_size();
    for (uint64_t row = 0; row < table.rows(); ++row) {
      RecordHeader& h = table.header(row);
      h.latch.Lock();
      const char* src =
          h.version.load(std::memory_order_acquire) == v + 1
              ? static_cast<const char*>(table.stable(row))
              : static_cast<const char*>(table.live(row));
      data.insert(data.end(), src, src + vsize);
      h.latch.Unlock();
    }
  }

  // Collect points AFTER the row copy: a pre-point writer published its
  // point before releasing the latches the copy just took, so the serials
  // read here cover everything the captured image contains.
  for (const auto& ctx : db_.contexts()) {
    if (ctx != nullptr) {
      meta.points.push_back(CommitPoint{
          ctx->thread_id,
          ctx->cpr_point_serial.load(std::memory_order_acquire), ctx->guid});
    }
  }

  const TransactionalDb::Options& opts = db_.options();
  const Status s = WriteCheckpointWithRetry(
      opts.durability_dir, meta, data, opts.sync_to_disk,
      opts.checkpoint_retry_attempts, opts.checkpoint_retry_backoff_ms);
  if (s.ok()) {
    RetainCheckpoints(opts.durability_dir, opts.retain_checkpoints);
  }
  CommitCallback cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) last_durable_version_ = v;
    last_finished_version_ = v;
    last_checkpoint_status_ = s;
    cb = std::move(callback_);
    callback_ = nullptr;
  }
  state_.store(Pack(false, v + 1), std::memory_order_seq_cst);
  durable_cv_.notify_all();
  if (cb) cb(v, s, meta.points);
}

Status CalcEngine::WaitForCommit(uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [this, version] {
    return last_finished_version_ >= version;
  });
  if (last_durable_version_ >= version) return Status::Ok();
  return Status::IoError("checkpoint v" + std::to_string(version) +
                         " failed: " + last_checkpoint_status_.message());
}

bool CalcEngine::CommitInProgress() const {
  return ActiveOf(state_.load(std::memory_order_acquire));
}

uint64_t CalcEngine::CurrentVersion() const {
  return VersionOf(state_.load(std::memory_order_acquire));
}

Status CalcEngine::Recover(std::vector<CommitPoint>* points) {
  const std::string& dir = db_.options().durability_dir;
  std::vector<uint64_t> candidates;
  Status s = ListRecoveryCandidates(dir, &candidates);
  if (!s.ok()) return s;
  if (candidates.empty()) {
    return Status::NotFound("no checkpoint published in " + dir);
  }
  Storage& storage = db_.storage();
  // CALC captures are always full images, so each candidate stands alone;
  // walk newest-first until one verifies and applies.
  Status last = Status::Corruption("no valid checkpoint generation in " + dir);
  for (uint64_t candidate : candidates) {
    CheckpointMeta meta;
    std::vector<char> data;
    s = ReadCheckpointAt(dir, candidate, &meta, &data);
    if (s.ok()) s = ApplyCheckpointData(storage, meta, data);
    if (!s.ok()) {
      last = s;
      continue;
    }
    state_.store(Pack(false, meta.version + 1), std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_durable_version_ = meta.version;
      last_finished_version_ = meta.version;
    }
    *points = meta.points;
    return Status::Ok();
  }
  if (last.code() != Status::Code::kCorruption) return last;
  return Status::Corruption("no valid checkpoint generation in " + dir +
                            " (last error: " + last.message() + ")");
}

}  // namespace cpr::txdb
