#include "txdb/wal_engine.h"

#include <chrono>
#include <cstring>

#include "util/clock.h"
#include "util/crc32c.h"

namespace cpr::txdb {

namespace {

std::string LogPath(const std::string& dir) { return dir + "/wal.log"; }

}  // namespace

WalEngine::WalEngine(TransactionalDb& db) : Engine(db) {
  uint64_t cap = db.options().wal_buffer_bytes;
  uint64_t pow2 = 1;
  while (pow2 < cap) pow2 <<= 1;
  capacity_ = pow2;
  mask_ = pow2 - 1;
  ring_.reset(new char[capacity_]);

  CreateDirectories(db.options().durability_dir);
  // Preserve an existing log (recovery path); otherwise start fresh.
  const std::string path = LogPath(db.options().durability_dir);
  const bool exists = FileExists(path);
  Status s = File::Open(path, /*create=*/!exists, &log_file_);
  (void)s;
  flusher_ = std::thread([this] { FlusherLoop(); });
}

WalEngine::~WalEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  flush_cv_.notify_all();
  flusher_.join();
}

uint64_t WalEngine::Reserve(uint64_t size, ThreadContext& ctx) {
  const uint64_t start = tail_.fetch_add(size, std::memory_order_seq_cst);
  // Backpressure: wait until the flusher has persisted enough of the ring
  // that our reservation does not overwrite unflushed bytes.
  while (start + size - flushed_.load(std::memory_order_acquire) >
         capacity_) {
    flush_cv_.notify_one();
    std::this_thread::yield();
    ctx.counters.tail_contention_ns += 100;  // spinning on a full log
  }
  return start;
}

void WalEngine::Publish(uint64_t start, uint64_t size) {
  // Records become visible to the flusher strictly in LSN order; a thread
  // whose predecessor is still copying spins briefly.
  uint64_t expected = start;
  while (!committed_.compare_exchange_weak(expected, start + size,
                                           std::memory_order_acq_rel)) {
    expected = start;
    std::this_thread::yield();
  }
}

void WalEngine::CopyToRing(uint64_t offset, const void* src, uint64_t len) {
  const uint64_t pos = offset & mask_;
  const uint64_t first = std::min(len, capacity_ - pos);
  std::memcpy(ring_.get() + pos, src, first);
  if (first < len) {
    std::memcpy(ring_.get(), static_cast<const char*>(src) + first,
                len - first);
  }
}

TxnResult WalEngine::Execute(ThreadContext& ctx, const Transaction& txn) {
  const uint64_t start_ns = NowNanos();
  if (!AcquireLocks(txn, ctx)) {
    ctx.counters.abort_ns += NowNanos() - start_ns;
    ctx.counters.aborted_txns += 1;
    return TxnResult::kAbortedConflict;
  }
  ApplyOps(txn, ctx);

  // Build the redo record (after-images) while still holding the locks:
  // strict 2PL releases only after the log append.
  uint32_t num_writes = 0;
  uint64_t payload = sizeof(uint32_t) /*thread*/ + sizeof(uint64_t) /*serial*/ +
                     sizeof(uint64_t) /*guid*/ + sizeof(uint32_t) /*num_writes*/;
  Storage& storage = db_.storage();
  for (const TxnOp& op : txn.ops) {
    if (op.type == OpType::kRead) continue;
    ++num_writes;
    payload += sizeof(uint32_t) + sizeof(uint64_t) +
               storage.table(op.table_id).value_size();
  }
  ctx.counters.exec_ns += NowNanos() - start_ns;

  if (num_writes > 0) {
    const uint64_t total = 2 * sizeof(uint32_t) + payload;

    const uint64_t t0 = NowNanos();
    const uint64_t off = Reserve(total, ctx);
    ctx.counters.tail_contention_ns += NowNanos() - t0;

    const uint64_t t1 = NowNanos();
    const uint64_t serial = ctx.serial.load(std::memory_order_relaxed);
    const uint64_t guid = ctx.guid;
    // The checksum accumulates over the same source buffers the ring copy
    // reads, while the record's locks are still held.
    uint32_t crc = kCrc32cInit;
    crc = Crc32cExtend(crc, &ctx.thread_id, sizeof(ctx.thread_id));
    crc = Crc32cExtend(crc, &serial, sizeof(serial));
    crc = Crc32cExtend(crc, &guid, sizeof(guid));
    crc = Crc32cExtend(crc, &num_writes, sizeof(num_writes));
    for (const TxnOp& op : txn.ops) {
      if (op.type == OpType::kRead) continue;
      Table& table = storage.table(op.table_id);
      crc = Crc32cExtend(crc, &op.table_id, sizeof(op.table_id));
      crc = Crc32cExtend(crc, &op.row, sizeof(op.row));
      crc = Crc32cExtend(crc, table.live(op.row), table.value_size());
    }

    uint64_t w = off;
    const uint32_t payload32 = static_cast<uint32_t>(payload);
    CopyToRing(w, &payload32, sizeof(payload32));
    w += sizeof(payload32);
    CopyToRing(w, &crc, sizeof(crc));
    w += sizeof(crc);
    CopyToRing(w, &ctx.thread_id, sizeof(ctx.thread_id));
    w += sizeof(ctx.thread_id);
    CopyToRing(w, &serial, sizeof(serial));
    w += sizeof(serial);
    CopyToRing(w, &guid, sizeof(guid));
    w += sizeof(guid);
    CopyToRing(w, &num_writes, sizeof(num_writes));
    w += sizeof(num_writes);
    for (const TxnOp& op : txn.ops) {
      if (op.type == OpType::kRead) continue;
      Table& table = storage.table(op.table_id);
      CopyToRing(w, &op.table_id, sizeof(op.table_id));
      w += sizeof(op.table_id);
      CopyToRing(w, &op.row, sizeof(op.row));
      w += sizeof(op.row);
      CopyToRing(w, table.live(op.row), table.value_size());
      w += table.value_size();
    }
    Publish(off, total);
    ctx.counters.log_write_ns += NowNanos() - t1;
  }

  ReleaseLocks(ctx);
  ctx.serial.fetch_add(1, std::memory_order_release);
  ctx.counters.committed_txns += 1;
  return TxnResult::kCommitted;
}

void WalEngine::FlusherLoop() {
  const auto interval =
      std::chrono::milliseconds(db_.options().wal_flush_interval_ms);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      flush_cv_.wait_for(lock, interval,
                         [this] { return stop_ || flush_requested_; });
      if (stop_) break;
      flush_requested_ = false;
    }
    {
      std::lock_guard<std::mutex> io_lock(flush_io_mu_);
      FlushNow();
    }
    CommitCallback cb;
    std::vector<CommitPoint> points;
    uint64_t seq = 0;
    Status flush_status;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq = ++flush_seq_;
      flush_status = flush_status_;
      cb = std::move(callback_);
      callback_ = nullptr;
      if (cb && flush_status.ok()) {
        for (const auto& c : db_.contexts()) {
          if (c != nullptr) {
            points.push_back(CommitPoint{
                c->thread_id, c->serial.load(std::memory_order_acquire),
                c->guid});
          }
        }
      }
    }
    durable_cv_.notify_all();
    // The callback fires for failed flushes too (with the sticky flush
    // error and no points) so durable-ack layers can degrade instead of
    // waiting on a durability signal that will never come.
    if (cb) cb(seq, flush_status, points);
  }
  std::lock_guard<std::mutex> io_lock(flush_io_mu_);
  FlushNow();  // final drain so shutdown loses nothing published
}

Status WalEngine::PrepareActivation() {
  // Quiesced by the switch protocol: no writer is appending, and everything
  // the OLD WAL period logged is superseded by the boundary checkpoint the
  // switch materializes. Truncate so recovery never replays stale records on
  // top of it. Crash-safe before the manifest flips: the durable manifest
  // still names the old provider, whose recovery never reads wal.log.
  std::lock_guard<std::mutex> io_lock(flush_io_mu_);
  const std::string path = LogPath(db_.options().durability_dir);
  Status s = File::Open(path, /*create=*/true, &log_file_);
  if (!s.ok()) return s;
  tail_.store(0, std::memory_order_release);
  committed_.store(0, std::memory_order_release);
  flushed_.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  flush_status_ = Status::Ok();  // the old period's sticky error dies with it
  return Status::Ok();
}

void WalEngine::SeedVersion(uint64_t next_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_version > 0 && flush_seq_ < next_version - 1) {
    flush_seq_ = next_version - 1;
  }
}

uint64_t WalEngine::FlushNow() {
  const uint64_t upto = committed_.load(std::memory_order_acquire);
  uint64_t from = flushed_.load(std::memory_order_acquire);
  if (upto <= from) return from;
  // The region cannot exceed the ring capacity (backpressure in Reserve).
  const uint64_t len = upto - from;
  const uint64_t pos = from & mask_;
  const uint64_t first = std::min(len, capacity_ - pos);
  // Bounded retry with exponential backoff: a transient device error must
  // not silently drop a log region.
  const uint32_t attempts =
      std::max<uint32_t>(1, db_.options().checkpoint_retry_attempts);
  uint64_t delay = db_.options().checkpoint_retry_backoff_ms;
  Status s;
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      delay = std::min<uint64_t>(delay * 2, 1000);
    }
    s = log_file_.WriteAt(from, ring_.get() + pos, first);
    if (s.ok() && first < len) {
      s = log_file_.WriteAt(from + first, ring_.get(), len - first);
    }
    if (s.ok() && db_.options().sync_to_disk) s = log_file_.Sync();
    if (s.ok()) break;
  }
  if (!s.ok()) {
    // Degrade: record the failure (sticky) so commit waiters get an explicit
    // error. The ring still advances — the engine stays available for
    // non-durable execution, and recovery's CRC check stops at the hole.
    std::lock_guard<std::mutex> lock(mu_);
    if (flush_status_.ok()) flush_status_ = s;
  }
  flushed_.store(upto, std::memory_order_release);
  return upto;
}

uint64_t WalEngine::RequestCommit(CommitCallback callback) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    callback_ = std::move(callback);
    flush_requested_ = true;
    seq = flush_seq_ + 1;
  }
  flush_cv_.notify_one();
  return seq;
}

Status WalEngine::WaitForCommit(uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [this, version] { return flush_seq_ >= version; });
  return flush_status_;
}

bool WalEngine::CommitInProgress() const { return false; }

uint64_t WalEngine::CurrentVersion() const {
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mu_));
  return flush_seq_ + 1;
}

Status WalEngine::Recover(std::vector<CommitPoint>* points) {
  const uint64_t size = log_file_.Size();
  if (size == 0) return Status::NotFound("empty WAL");
  std::vector<char> buf(size);
  Status s = log_file_.ReadAt(0, buf.data(), size);
  if (!s.ok()) return s;

  Storage& storage = db_.storage();
  std::vector<CommitPoint> last_serial;
  uint64_t off = 0;
  uint64_t replayed = 0;
  while (off + 2 * sizeof(uint32_t) <= size) {
    uint32_t payload = 0;
    uint32_t crc = 0;
    std::memcpy(&payload, buf.data() + off, sizeof(payload));
    std::memcpy(&crc, buf.data() + off + sizeof(payload), sizeof(crc));
    if (payload == 0 || off + 2 * sizeof(uint32_t) + payload > size) break;
    // A checksum mismatch marks the end of the valid durable prefix (torn
    // group-commit flush or bit rot); nothing past it is trusted.
    if (Crc32c(buf.data() + off + 2 * sizeof(uint32_t), payload) != crc) break;
    uint64_t r = off + 2 * sizeof(uint32_t);
    uint32_t thread_id = 0;
    uint64_t serial = 0;
    uint64_t guid = 0;
    uint32_t num_writes = 0;
    std::memcpy(&thread_id, buf.data() + r, sizeof(thread_id));
    r += sizeof(thread_id);
    std::memcpy(&serial, buf.data() + r, sizeof(serial));
    r += sizeof(serial);
    std::memcpy(&guid, buf.data() + r, sizeof(guid));
    r += sizeof(guid);
    std::memcpy(&num_writes, buf.data() + r, sizeof(num_writes));
    r += sizeof(num_writes);
    for (uint32_t i = 0; i < num_writes; ++i) {
      uint32_t table_id = 0;
      uint64_t row = 0;
      std::memcpy(&table_id, buf.data() + r, sizeof(table_id));
      r += sizeof(table_id);
      std::memcpy(&row, buf.data() + r, sizeof(row));
      r += sizeof(row);
      if (table_id >= storage.num_tables()) {
        return Status::Corruption("WAL references unknown table");
      }
      Table& table = storage.table(table_id);
      if (row >= table.rows()) return Status::Corruption("WAL row OOB");
      std::memcpy(table.live(row), buf.data() + r, table.value_size());
      r += table.value_size();
    }
    // Track the highest serial per thread for the recovered points. Records
    // carry the session guid, so a post-crash WAL recovery hands each
    // resuming session its real commit point (without it, replayed durable
    // ops would double-apply).
    bool found = false;
    for (auto& p : last_serial) {
      if (p.thread_id == thread_id) {
        if (serial + 1 > p.serial) {
          p.serial = serial + 1;
          p.guid = guid;
        }
        found = true;
        break;
      }
    }
    if (!found) {
      last_serial.push_back(CommitPoint{thread_id, serial + 1, guid});
    }
    off += 2 * sizeof(uint32_t) + payload;
    ++replayed;
  }
  *points = last_serial;
  // Continue appending after the replayed prefix.
  tail_.store(off, std::memory_order_release);
  committed_.store(off, std::memory_order_release);
  flushed_.store(off, std::memory_order_release);
  return Status::Ok();
}

}  // namespace cpr::txdb
