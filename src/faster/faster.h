#ifndef CPR_FASTER_FASTER_H_
#define CPR_FASTER_FASTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "epoch/epoch.h"
#include "faster/checkpoint_state.h"
#include "faster/hash_index.h"
#include "faster/hybrid_log.h"
#include "faster/record.h"
#include "io/io_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/latch.h"
#include "util/status.h"

namespace cpr::faster {

class FasterKv;

// The CPR commit phases FasterKv times, in commit order. A phase's wall
// time, cumulative over every store in the process, is the registry counter
// CheckpointPhaseNs(phase): cpr_faster_checkpoint_phase_ns_total{phase=...}.
inline constexpr const char* kCheckpointPhaseNames[4] = {
    "prepare", "in_progress", "wait_pending", "wait_flush"};
obs::Counter* CheckpointPhaseNs(const char* phase);

// Result of a user operation. kPending means the operation will complete
// asynchronously (disk read, fuzzy region, or CPR handoff): drive it with
// CompletePending().
enum class OpStatus : uint8_t {
  kOk = 0,
  kNotFound,
  kPending,
};

enum class OpKind : uint8_t { kRead, kUpsert, kRmw, kDelete };

// Delivered through Session::set_async_callback when a pending operation
// completes.
struct AsyncResult {
  OpKind kind = OpKind::kRead;
  uint64_t key = 0;
  uint64_t serial = 0;
  bool found = false;
  std::vector<char> value;  // read result (value_size bytes)
};

// An operation parked for asynchronous completion.
struct PendingOp {
  OpKind kind = OpKind::kRead;
  uint64_t key = 0;
  int64_t delta = 0;          // RMW
  std::vector<char> value;    // Upsert payload / Read result
  uint64_t serial = 0;
  uint32_t version = 0;       // CPR version the operation belongs to
  bool counted = false;       // contributes to the global pending-v counter
  bool holds_latch = false;   // shared bucket latch held (fine-grained)
  uint64_t bucket = 0;

  bool io_issued = false;
  std::atomic<bool> io_done{false};
  Address io_address = kInvalidAddress;
  std::vector<char> io_buffer;
};

// A client session (paper §5.2): operations carry session-local serial
// numbers, and each CPR commit reports a per-session commit point. One
// session binds to one thread.
class Session {
 public:
  uint64_t guid() const { return guid_; }
  uint64_t serial() const { return serial_; }
  Phase phase() const { return phase_; }
  uint32_t version() const { return version_; }
  uint64_t last_commit_point() const {
    return cpr_point_serial_.load(std::memory_order_acquire);
  }
  size_t pending_count() const { return pending_.size(); }

  // Invoked from CompletePending for each asynchronously completed op.
  void set_async_callback(std::function<void(const AsyncResult&)> cb) {
    async_callback_ = std::move(cb);
  }

 private:
  friend class FasterKv;

  uint64_t guid_ = 0;
  int32_t epoch_slot_ = -1;  // this session's entry in the epoch table
  Phase phase_ = Phase::kRest;
  uint32_t version_ = 1;
  uint64_t serial_ = 0;
  // Serial of the operation currently executing inline (0 if none). A
  // version-boundary crossing during an in-flight operation must exclude it
  // from the commit point: the operation re-executes as (v+1).
  uint64_t inflight_serial_ = 0;
  std::atomic<uint64_t> cpr_point_serial_{0};
  std::list<PendingOp> pending_;
  std::function<void(const AsyncResult&)> async_callback_;
  uint32_t ops_since_refresh_ = 0;
};

// FASTER-style concurrent hash key-value store with HybridLog storage and
// CPR-based durability (paper §5–§6, Appendices B–D).
//
//   FasterKv::Options opts;
//   opts.dir = "/tmp/kv";
//   FasterKv kv(opts);
//   Session* s = kv.StartSession();
//   kv.Upsert(*s, key, value);
//   kv.Rmw(*s, key, +5);
//   kv.Checkpoint(CommitVariant::kFoldOver, /*include_index=*/true);
//   ...
//   kv.StopSession(s);
//
// Threading: one session per thread; sessions must call Refresh() (or issue
// operations, which auto-refresh) regularly, or commits cannot make
// progress. Checkpoints are fully asynchronous: no phase blocks user
// operations.
class FasterKv {
 public:
  struct Options {
    std::string dir = "/tmp/cpr_faster";
    uint64_t index_buckets = 1ull << 16;
    uint32_t value_size = 8;
    uint32_t page_bits = 20;
    uint32_t memory_pages = 32;
    uint32_t ro_lag_pages = 4;
    CheckpointLocking locking = CheckpointLocking::kFineGrained;
    uint32_t io_threads = 2;
    uint32_t refresh_interval = 64;  // ops between automatic refreshes
    bool sync_to_disk = false;
    // Checkpoint generations kept on disk (meta/snapshot plus any index
    // image a retained generation references). Recovery walks back to the
    // newest generation whose artifacts all verify. 0 disables GC.
    uint32_t retain_checkpoints = 3;
    // Each checkpoint artifact write is retried this many times with
    // bounded exponential backoff before the checkpoint is declared failed.
    uint32_t checkpoint_retry_attempts = 3;
    uint32_t checkpoint_retry_backoff_ms = 5;
  };

  explicit FasterKv(Options options);
  ~FasterKv();

  FasterKv(const FasterKv&) = delete;
  FasterKv& operator=(const FasterKv&) = delete;

  // -- Sessions ----------------------------------------------------------

  // Starts a session. guid 0 draws a fresh id. Each session owns its own
  // epoch-table slot, so one thread may drive many sessions (e.g. a network
  // worker owning many connections) as long as it refreshes each of them.
  // Returns nullptr when the epoch table is full. Restarting a recovered
  // guid resumes its serial numbering at the recovered commit point.
  Session* StartSession(uint64_t guid = 0);
  void StopSession(Session* session);
  // After Recover(): the CPR point (serial number) the store holds for
  // `guid`; the client replays everything after it.
  Status ContinueSession(uint64_t guid, uint64_t* recovered_serial) const;

  // The durable commit point for `guid`: every operation with serial <= the
  // returned value is covered by a completed checkpoint (or by the
  // checkpoint we recovered from). kNotFound until a checkpoint has
  // included the session.
  Status DurableCommitPoint(uint64_t guid, uint64_t* serial) const;

  // Token of the most recently completed checkpoint (monotonic; 0 if none).
  uint64_t LastCheckpointToken() const {
    return last_completed_token_.load(std::memory_order_acquire);
  }

  // Token of the most recently *concluded* checkpoint attempt, successful or
  // failed. last_finished > last_completed means the newest attempt failed.
  uint64_t LastFinishedToken() const {
    return last_finished_token_.load(std::memory_order_acquire);
  }

  // Count of checkpoint attempts that failed persistently (after retries).
  // Serving layers use deltas of this to convert held durable-acks into
  // explicit "not durable" errors instead of waiting forever.
  uint64_t CheckpointFailures() const {
    return checkpoint_failures_.load(std::memory_order_acquire);
  }

  // -- Operations --------------------------------------------------------

  // Copies the value into `value_out` (value_size bytes).
  OpStatus Read(Session& session, uint64_t key, void* value_out);
  // Blind write of value_size bytes.
  OpStatus Upsert(Session& session, uint64_t key, const void* value);
  // Read-modify-write: adds `delta` to the first 8 bytes of the value
  // (the paper's running-sum RMW); absent keys start at zero.
  OpStatus Rmw(Session& session, uint64_t key, int64_t delta);
  // Writes a tombstone.
  OpStatus Delete(Session& session, uint64_t key);

  // Epoch + CPR state synchronization; call periodically (automatic every
  // refresh_interval operations).
  void Refresh(Session& session);

  // Advances the session's serial counter to `serial` (no-op when it is
  // already past it) without executing an operation, as if the intervening
  // serials had been consumed elsewhere. Layers that stripe one logical
  // session across several stores (src/shard) use this to keep every
  // store's per-session commit point in the shared serial space: the next
  // operation issued here gets serial+1, and a commit point taken after the
  // advance covers the whole shared prefix. Must be called by the session's
  // owning thread, never from inside an operation.
  void AdvanceSerial(Session& session, uint64_t serial);

  // Drives this session's pending operations; returns how many completed.
  // With wait_for_all, loops (refreshing) until none remain.
  size_t CompletePending(Session& session, bool wait_for_all = false);

  // -- Checkpoints -------------------------------------------------------

  // Starts an asynchronous CPR commit. Returns false if one is already in
  // flight. `include_index` also takes a fuzzy index checkpoint (otherwise
  // the most recent one is reused — the paper's cheaper "log-only" commit;
  // forced on the first commit). The callback fires when durable.
  bool Checkpoint(CommitVariant variant, bool include_index,
                  CheckpointCallback callback = nullptr,
                  uint64_t* token_out = nullptr);

  // Standalone fuzzy index checkpoint (REST phase only).
  bool CheckpointIndex(uint64_t* token_out = nullptr);

  // Coordinator-side wait; safe to call from an unregistered thread.
  Status WaitForCheckpoint(uint64_t token);

  bool CheckpointInProgress() const;
  uint32_t CurrentVersion() const;
  Phase CurrentPhase() const;

  // Attempts the non-epoch-gated state transitions (wait-pending and
  // wait-flush exits). Called from Refresh; exposed for drivers.
  void TickStateMachine();

  // -- Recovery ----------------------------------------------------------

  // Rebuilds the store from the latest completed checkpoint in `dir`.
  // Call before any sessions start.
  Status Recover();

  // Rebuilds the store from one specific checkpoint generation, even when
  // newer generations exist on disk. Coordinated multi-store recovery
  // (src/shard) uses this to roll every store back to the tokens named by a
  // cross-shard manifest, so no store runs ahead of the global commit
  // point. Call before any sessions start.
  Status Recover(uint64_t token);

  // Cheap structural preflight of one checkpoint generation: loads the
  // (small, checksummed) metadata blob, then probes the index image and
  // snapshot artifacts it references — header magic/version/length only, no
  // payload reads or CRC work, so it is O(1) in the store size. Recovery
  // coordinators use it to pick a candidate generation up front without
  // paying for a full restore attempt per candidate. A passing probe does
  // not guarantee the payloads are intact (bit-flips surface later, in
  // Recover(token)); a failing probe guarantees Recover(token) would fail.
  Status ValidateCheckpoint(uint64_t token);

  // Pins checkpoint generations against checkpoint GC, in addition to the
  // newest retain_checkpoints. Coordinated multi-store recovery (src/shard)
  // pins every token named by a retained cross-shard manifest, so failed
  // coordinated rounds — which advance this store's generations without
  // advancing manifests — can never GC a generation an older retained
  // manifest still references. Replaces the previous pin set.
  void PinCheckpointTokens(std::set<uint64_t> tokens);

  // Debug aid: prints one line per parked operation of `session` (key,
  // version, latch/IO state, and the key's current chain-head record).
  void DebugDumpPending(Session& session) const;

  // -- Log maintenance -----------------------------------------------------

  // Truncates the log: records below `until` become unreachable (keys whose
  // chains end below it read as absent). Only the disk-resident region can
  // be truncated. The watermark is persisted by the next checkpoint. This is
  // the primitive behind expiration-based garbage collection (§7.1).
  Status TruncateLogUntil(Address until);

  // Visits every record in [begin, tail) in log order: live chain members,
  // superseded older versions, and tombstones alike (invalid/orphaned slots
  // are skipped). The visitor returns false to stop early. Concurrent with
  // normal operation the scan is fuzzy near the tail. `value` points at
  // value_size bytes.
  using ScanVisitor =
      std::function<bool(Address address, const Record& record,
                         const char* value)>;
  Status ScanLog(const ScanVisitor& visitor);

  // Compacts the log prefix [begin, until): every record that is still the
  // latest version of its key is rewritten at the tail, then the log is
  // truncated to `until`. Requires a session (the rewrites are ordinary
  // inserts under the CPR rules); concurrent updates win any races. Returns
  // the number of records relocated via `relocated` (optional).
  Status CompactLog(Session& session, Address until,
                    uint64_t* relocated = nullptr);

  // -- Introspection -----------------------------------------------------

  uint32_t value_size() const { return options_.value_size; }
  uint64_t LogBytes() const { return hlog_->TailMinusBegin(); }
  HybridLog& hlog() { return *hlog_; }
  HashIndex& index() { return *index_; }
  EpochFramework& epoch() { return epoch_; }
  uint64_t pending_v_ops(uint32_t version) const {
    return pending_count_[version & 1].load(std::memory_order_acquire);
  }

 private:
  enum class OpOutcome : uint8_t {
    kDone,
    kNotFound,
    kPendingIo,     // needs a disk read at op.io_address
    kPendingRetry,  // parked on fuzzy region / latch / CPR handoff
    kShift,         // CPR version shift detected; refresh and re-pin
    kAllocStall,    // log page rollover in progress; refresh and retry
  };

  // Executes one attempt of an operation under the CPR phase rules
  // (Algorithms 4 & 5 for fine-grained; Appendix C for coarse).
  // `fresh` marks an operation not yet parked (it may still shift versions).
  OpOutcome TryOp(Session& session, PendingOp& op, bool fresh,
                  void* read_out);

  // Appends a record (new version of `key`) based on `base` (may be null)
  // and links it into the chain via CAS on `entry`. Returns kDone,
  // kAllocStall, or kPendingRetry (CAS raced; caller re-runs).
  OpOutcome CreateRecord(PendingOp& op, uint32_t record_version,
                         std::atomic<uint64_t>* entry, uint64_t entry_word,
                         const Record* base);

  void ApplyInPlace(PendingOp& op, Record* rec);
  void FillValue(PendingOp& op, const Record* base, char* value_out);

  OpStatus DriveFreshOp(Session& session, PendingOp& op, void* read_out);
  void ParkOp(Session& session, PendingOp& op);
  void IssueIo(PendingOp& op);
  void FinalizeOp(Session& session, PendingOp& op, bool found);

  // State machine internals.
  void EnterWaitFlush(uint64_t state);
  void FinalizeCheckpoint(uint64_t state);
  bool DoIndexCheckpoint(uint64_t* token_out);
  std::vector<SessionCommitPoint> CollectCommitPoints();

  Status LoadCheckpointMetadata(uint64_t token, CheckpointMetadata* meta);
  Status PersistCheckpointMetadata(const CheckpointMetadata& meta);

  // One recovery attempt against a specific checkpoint generation; Recover()
  // walks the candidates newest-first until one succeeds.
  Status RecoverFromToken(uint64_t token);

  // Deletes checkpoint artifacts beyond the newest retain_checkpoints
  // generations (keeping index images still referenced by a retained one).
  void GarbageCollectCheckpoints();

  // Runs `attempt` up to checkpoint_retry_attempts times with bounded
  // exponential backoff; returns the last status.
  Status RetryIo(const std::function<Status()>& attempt);

  // Closes the in-flight checkpoint's current phase at `now`: emits a
  // complete tracer span (cat "faster", id = checkpoint token), adds the
  // duration to the per-phase ns counter, and restarts the phase clock.
  void ClosePhaseSpan(const char* phase_name, obs::Counter* phase_ns,
                      uint64_t now);

  Options options_;
  EpochFramework epoch_;
  IoPool io_;
  std::unique_ptr<HashIndex> index_;
  std::unique_ptr<HybridLog> hlog_;
  std::unique_ptr<SharedLatch[]> bucket_latches_;
  uint32_t record_size_;

  std::atomic<uint64_t> state_;  // packed SystemState
  std::atomic<uint64_t> pending_count_[2];

  // Active checkpoint bookkeeping (valid while not in REST).
  std::mutex ckpt_mu_;
  CheckpointMetadata ckpt_;
  CheckpointCallback ckpt_callback_;
  // Token of the most recently *completed* index checkpoint write; the
  // active commit is gated on this matching ckpt_.index_token.
  std::atomic<uint64_t> index_completed_token_{0};
  std::atomic<bool> snapshot_done_{false};
  // Artifact failures of the in-flight checkpoint: set by the async snapshot
  // / index writers, examined in FinalizeCheckpoint. The state machine still
  // advances so a broken device fails the checkpoint instead of wedging it.
  std::atomic<bool> snapshot_failed_{false};
  std::atomic<bool> index_failed_{false};
  std::atomic<uint64_t> last_completed_token_{0};
  std::atomic<uint64_t> last_finished_token_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  uint64_t last_index_token_ = 0;  // guarded by ckpt_mu_
  Address last_index_li_ = 0;      // guarded by ckpt_mu_
  // Generations checkpoint GC must keep beyond the retain count (see
  // PinCheckpointTokens); guarded by ckpt_mu_.
  std::set<uint64_t> pinned_tokens_;

  // Durable per-session commit points: refreshed by every completed
  // checkpoint and by Recover(). Queried by serving layers to decide when
  // an operation may be acknowledged as durable.
  mutable std::mutex durable_mu_;
  std::map<uint64_t, uint64_t> durable_points_;

  // Sessions.
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<SessionCommitPoint> parted_points_;
  std::map<uint64_t, uint64_t> recovered_points_;
  std::atomic<uint64_t> next_guid_{1};

  // Observability. Phase transitions record spans into the process tracer
  // and fold the duration into shared per-phase counters (same handle
  // across instances, so shards aggregate). The phase clock is only written
  // by whichever thread drives a transition; transitions are already
  // serialized by the state machine, so relaxed atomics suffice.
  std::atomic<uint64_t> phase_start_ns_{0};
  std::atomic<uint64_t> trace_token_{0};
  obs::Counter* const phase_prepare_ns_;
  obs::Counter* const phase_in_progress_ns_;
  obs::Counter* const phase_wait_pending_ns_;
  obs::Counter* const phase_wait_flush_ns_;
  obs::Counter* const ckpts_started_total_;
  obs::Counter* const ckpt_failures_total_;
  uint64_t epoch_collector_id_ = 0;  // this store's epoch-table collector
};

}  // namespace cpr::faster

#endif  // CPR_FASTER_FASTER_H_
