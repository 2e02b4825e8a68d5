#ifndef CPR_CLIENT_CLIENT_H_
#define CPR_CLIENT_CLIENT_H_

// CprClient: a small C++ client for the CPR KV serving layer.
//
// One CprClient owns one TCP connection bound to one durable CPR session.
// Requests can be pipelined: Enqueue* queues frames locally, Flush() writes
// them in one burst, Drain() collects the (in-order) responses. The sync
// helpers (Read/Upsert/...) are one-op pipelines. Consecutive data ops
// (READ/UPSERT/RMW/DELETE) travel coalesced in BATCH frames of up to
// kBatchMaxOps — one frame, one decode pass and one response frame per
// group; a lone data op goes out as its plain frame. The grouping is
// transport-only: per-op seq/serial/replay semantics are those of
// standalone frames.
//
// The client implements the paper's client-side durability contract:
// update operations are kept in a replay buffer until they are known
// durable — via a DURABLE-mode acknowledgement, a CHECKPOINT/COMMIT_POINT
// response, or the recovered serial reported at reconnect. After a server
// crash, Reconnect() re-HELLOs with the session guid, prunes the replay
// buffer at the recovered commit point, and re-issues everything after it,
// so no acknowledged-durable operation is ever lost and every lost-but-
// unacknowledged update is re-applied exactly once.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "certify/history.h"
#include "server/wire.h"
#include "util/status.h"

namespace cpr::client {

class CprClient {
 public:
  // Sub-ops per BATCH frame (at most net::kMaxBatchOps).
  static constexpr uint32_t kBatchMaxOps = 64;
  static_assert(kBatchMaxOps <= net::kMaxBatchOps);

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint64_t guid = 0;  // 0: ask the server for a fresh session
    net::AckMode ack_mode = net::AckMode::kExecuted;
    int recv_timeout_ms = 10'000;
    // Bound on waiting for the socket to accept outgoing bytes (SO_SNDTIMEO
    // plus the POLLOUT wait when the send buffer is full). <= 0: wait
    // forever.
    int send_timeout_ms = 10'000;
    // > 0: override the kernel send-buffer size (SO_SNDBUF). Mainly for
    // tests exercising partial-send/backpressure paths.
    int so_sndbuf = 0;
    int connect_attempts = 10;
    // Per-attempt connect(2) timeout (non-blocking connect + poll). <= 0
    // falls back to a blocking connect.
    int connect_timeout_ms = 1'000;
    // Backoff between attempts doubles from connect_backoff_ms up to
    // max_connect_backoff_ms, with random jitter so a fleet of reconnecting
    // clients does not stampede the server.
    int connect_backoff_ms = 50;
    int max_connect_backoff_ms = 1'000;
    // Keep un-durable updates for replay on reconnect.
    bool track_replay = true;
    // RECOVERING handling: a server restoring a shard may reject an op with
    // the retryable RECOVERING status once its parking queue is full. The
    // sync helpers retry the op (it consumed a burned, effect-free serial;
    // the replay slot is neutralized automatically) with capped-jitter
    // backoff, surfacing Busy only after recovering_retry_attempts.
    int recovering_retry_attempts = 64;
    int recovering_backoff_ms = 1;
    int max_recovering_backoff_ms = 100;
    // Optional crash-consistency journal: every client-observed event
    // (HELLO results, serial-consuming acks incl. TXN_CONFLICT and
    // NOT_DURABLE, commit-point notifications) is recorded for the offline
    // certifier (src/certify). Must outlive the client; not owned.
    certify::HistoryRecorder* recorder = nullptr;
  };

  // Cumulative client-side robustness counters (single-threaded, like the
  // client itself).
  struct Stats {
    uint64_t connect_attempts = 0;  // ConnectOnce calls (incl. first tries)
    uint64_t connect_retries = 0;   // attempts after a failure
    uint64_t reconnects = 0;        // successful Reconnect() calls
    uint64_t replayed_ops = 0;      // data ops re-issued after reconnect
    uint64_t not_durable_acks = 0;  // NOT_DURABLE responses received
    uint64_t txn_conflicts = 0;     // TXN_CONFLICT responses received
    uint64_t recovering_rejections = 0;  // RECOVERING responses received
    uint64_t recovering_retries = 0;     // sync-helper retries after them
    uint64_t max_inflight = 0;      // peak pipeline depth
  };

  // A response is the result: op, status, seq, serial and the op's payload
  // (READ value, TXN reads, STATS text, DUMP rows, PROVIDER report, ...).
  using Result = net::Response;

  // Durability-provider report (PROVIDER op). `kind` is always the CURRENT
  // provider — a SWITCH is asynchronous, completed at the next checkpoint
  // boundary; poll ProviderInfo until `kind` flips / `switches` advances.
  struct ProviderStatus {
    durability::ProviderKind kind = durability::ProviderKind::kCpr;
    bool pending = false;          // a switch is queued but not yet done
    uint64_t switches = 0;         // completed live switches
    uint64_t last_boundary = 0;    // boundary checkpoint version of the last
  };

  explicit CprClient(Options options);
  ~CprClient();

  CprClient(const CprClient&) = delete;
  CprClient& operator=(const CprClient&) = delete;

  // Establishes the connection and performs HELLO. On success guid() is the
  // session id and recovered_serial() the serial the session resumed at.
  Status Connect();
  // Drops the connection (if any), reconnects with the session guid, prunes
  // the replay buffer at the recovered commit point, and re-issues every
  // update past it. In-flight requests without responses are failed.
  Status Reconnect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  uint64_t guid() const { return guid_; }
  uint64_t recovered_serial() const { return recovered_serial_; }
  uint32_t value_size() const { return value_size_; }
  // Highest serial known durable (from durable acks, checkpoint responses,
  // commit-point queries, or reconnect).
  uint64_t durable_serial() const { return durable_serial_; }
  size_t inflight() const { return inflight_.size(); }
  size_t replay_backlog() const { return replay_.size(); }
  const Stats& stats() const { return stats_; }

  // -- Pipelined interface -------------------------------------------------

  void EnqueueRead(uint64_t key);
  void EnqueueUpsert(uint64_t key, const void* value);
  void EnqueueRmw(uint64_t key, int64_t delta);
  void EnqueueDelete(uint64_t key);
  // Multi-key transaction (requires a transactional backend server-side).
  // A TXN consumes exactly one session serial whether it commits or hits a
  // NO-WAIT conflict; on a conflict ack the replay entry is neutralized to
  // an effect-free read set so a post-crash replay still regenerates the
  // same serial without re-running the (never-applied) updates.
  // Op sets larger than net::kMaxTxnOps travel as chunked TXN frames
  // (TXN_CHUNK continuations + one final TXN, one serial, one response);
  // the logical set must stay within net::kMaxTxnOpsLogical with at most
  // net::kMaxTxnOps read ops.
  void EnqueueTxn(const std::vector<net::TxnWireOp>& ops);
  // Sessionless table scan (requires a dumpable backend; only meaningful on
  // a quiesced server). max_rows caps rows per response frame.
  void EnqueueDump(uint32_t table, uint64_t start_row, uint32_t max_rows);
  void EnqueueCheckpoint(bool snapshot = false, bool include_index = false);
  void EnqueueCommitPoint();
  void EnqueueStats(net::StatsKind kind = net::StatsKind::kMetricsText);
  // Sessionless durability-provider query/switch (see ProviderStatus).
  void EnqueueProvider(net::ProviderAction action,
                       durability::ProviderKind kind =
                           durability::ProviderKind::kCpr);

  // Writes all queued frames to the socket.
  Status Flush();
  // Reads responses until `count` arrive (default: all in flight).
  // Results are appended in request order. `out` may be null.
  Status Drain(std::vector<Result>* out, size_t count = 0);
  // Non-blocking drain: consumes every response already readable, never
  // waits for more. Lets a durable-ack pipeline stay full across checkpoint
  // epochs — acks held back by the durability gate arrive whenever the
  // covering checkpoint completes, and the caller keeps enqueueing instead
  // of stalling on a synchronous Drain. `processed` (optional) reports how
  // many responses were consumed.
  Status TryDrain(std::vector<Result>* out, size_t* processed = nullptr);

  // -- Synchronous helpers ---------------------------------------------------

  Status Read(uint64_t key, void* value_out, bool* found);
  // Executes a multi-key transaction; on commit, `reads` (if non-null)
  // receives one value per read op in op order. A NO-WAIT conflict returns
  // Busy — retry the whole transaction.
  Status Txn(const std::vector<net::TxnWireOp>& ops,
             std::vector<std::vector<char>>* reads = nullptr);
  Status Upsert(uint64_t key, const void* value);
  Status Rmw(uint64_t key, int64_t delta);
  Status Delete(uint64_t key, bool* found = nullptr);
  // Requests a checkpoint and waits until it is durable; commit_serial
  // reports this session's committed prefix.
  Status Checkpoint(uint64_t* token = nullptr, uint64_t* commit_serial = nullptr,
                    bool snapshot = false, bool include_index = false);
  Status CommitPoint(uint64_t* commit_serial);
  // Scrapes the server's metrics text exposition (Prometheus style). Works
  // before HELLO — monitoring needs no session.
  Status ServerStats(std::string* text);
  // Fetches the server's checkpoint lifecycle trace (Chrome trace_event
  // JSON; open in Perfetto).
  Status ServerTrace(std::string* json);
  // Fetches the watchdog health record (JSON: overall health, per-check
  // escalation state). Works before HELLO — monitoring needs no session.
  Status ServerHealth(std::string* json);
  // Fetches the per-op critical-path latency breakdown (JSON: p50/p99 per
  // stage — decode/park/execute/durable_gate/ack/write — plus end-to-end).
  // Works before HELLO.
  Status ServerBreakdown(std::string* json);
  // Reports the backend's current durability provider. Works before HELLO —
  // durability control needs no session.
  Status ProviderInfo(ProviderStatus* out);
  // Queues a live switch to `target`; `out` (optional) receives the report
  // at queue time (kind still the pre-switch provider). Returns an error if
  // the backend cannot switch providers.
  Status SwitchProvider(durability::ProviderKind target,
                        ProviderStatus* out = nullptr);
  // Captures every backend table over DUMP, paging rows until each table is
  // exhausted and probing table ids until the server answers NOT_FOUND.
  // Works before HELLO — certification needs no session. Only meaningful on
  // a quiesced server.
  Status DumpState(certify::StateDump* out);

 private:
  struct InFlight {
    net::Op op = net::Op::kRead;
    uint32_t seq = 0;
    uint64_t predicted_serial = 0;  // data ops only
    // TXN only: carries at least one write/add. A durable-mode ack for a
    // read-only TXN proves nothing about its own serial (same rule as READ).
    bool txn_update = false;
    // Request copy for the history recorder (filled only when recording).
    net::Request req;
  };

  Status ConnectOnce();
  Status Hello();
  void EnqueueRequest(const net::Request& req);
  Status ReadResponse(net::Response* resp);
  // Dispatches one response frame: a BATCH frame unpacks into its
  // sub-responses (each consuming one in-flight op), anything else consumes
  // exactly one. `n_processed` (optional) reports how many in-flight ops
  // were consumed.
  Status ProcessResponse(net::Response resp, std::vector<Result>* out,
                         size_t* n_processed = nullptr);
  // The single-response core: matches, records, and resolves exactly one
  // in-flight op.
  Status ProcessOne(net::Response resp, std::vector<Result>* out);
  Status SendAll(const char* data, size_t size);
  // Extracts + decodes the next complete frame already buffered in recvbuf_
  // (shared by ReadResponse and TryDrain; advances recv_off_ rather than
  // erasing per frame, which was quadratic across an ack burst).
  net::FrameResult NextBufferedFrame(net::Response* resp, Status* error);
  // Drops recvbuf_'s consumed prefix; cheap full clear when everything was
  // consumed.
  void CompactRecvBuf();
  // Seals the staged batch (if any) into sendbuf_ as one BATCH frame (a
  // single staged op is emitted as its plain standalone frame).
  void FlushBatchStage();
  // One STATS round trip; `out` receives the payload text.
  Status FetchStats(net::StatsKind kind, std::string* out);
  void RecordOp(const InFlight& inf, const net::Response& resp);
  void RecordResolvedPrefix(uint64_t recovered);
  void NoteDurable(uint64_t serial);
  // Strips the effects of the replay entry holding `serial` (a serial the
  // server consumed with zero effects: TXN conflict or a RECOVERING
  // rejection) so a post-crash replay regenerates the serial as a no-op.
  void NeutralizeReplay(uint64_t serial);
  Status ReplayAfter(uint64_t recovered);
  void FailInflight();
  // One-op pipeline with RECOVERING retry: re-enqueues via `enqueue` until
  // the response is anything but RECOVERING (or attempts run out), backing
  // off with capped jitter between tries.
  Status RunRetryable(const std::function<void()>& enqueue, Result* out);
  // Advances the jittered exponential backoff: returns a sleep in
  // [delay/2, delay] and doubles delay up to cap.
  int JitteredBackoffMs(int& delay_ms, int cap_ms);

  Options options_;
  Stats stats_;
  uint32_t jitter_state_ = 0x9e3779b9u;  // xorshift state for backoff jitter
  int fd_ = -1;
  uint64_t guid_ = 0;
  uint64_t recovered_serial_ = 0;
  uint32_t value_size_ = 0;
  uint64_t durable_serial_ = 0;
  // Serial the server will assign to the next data op (server serials are
  // deterministic per session: +1 per data op).
  uint64_t next_serial_ = 0;
  uint32_t next_seq_ = 1;
  // Highest serial the recorder has seen an ack for (recording only). At
  // reconnect, replay-buffer serials above this but at or below the
  // recovered commit point were committed without their acks ever reaching
  // the client — those are journaled as resolved-by-recovery events.
  uint64_t max_recorded_serial_ = 0;

  std::vector<char> sendbuf_;
  std::vector<char> recvbuf_;
  // Consumed prefix of recvbuf_ (read offset; compacted once per call).
  size_t recv_off_ = 0;
  // BATCH staging: pre-encoded frames of coalescable data ops awaiting the
  // seal into one BATCH frame. A standalone frame (u32 len + payload) is
  // byte-identical to a BATCH sub-message, so staging is just encoding.
  std::vector<char> batch_stage_;
  uint32_t batch_stage_ops_ = 0;
  uint32_t batch_stage_seq_ = 0;  // outer frame's seq = first staged op's
  std::deque<InFlight> inflight_;
  // Data ops not yet covered by a known-durable serial, in serial order.
  // Reads are kept too — not for their results, but so a replay re-issues
  // the exact pre-crash request sequence and every op regenerates the same
  // serial it had before the crash. Sharded backends rely on that identity
  // to deduplicate replayed ops per shard.
  std::deque<net::Request> replay_;
  std::deque<uint64_t> replay_serials_;
};

}  // namespace cpr::client

#endif  // CPR_CLIENT_CLIENT_H_
