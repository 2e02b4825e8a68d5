#ifndef CPR_SERVER_WIRE_H_
#define CPR_SERVER_WIRE_H_

// Wire protocol for the CPR KV serving layer.
//
// Every message is a frame: a 4-byte little-endian payload length followed
// by that many payload bytes. Payloads start with a fixed header; all
// integers are little-endian, fixed width.
//
//   request payload:  u8 op | u32 seq | body
//   response payload: u8 op | u8 status | u32 seq | u64 serial | body
//
// `seq` is a client-chosen cookie echoed verbatim (pipelining correlation /
// desync detection). `serial` is the CPR session serial the server assigned
// to the operation (0 for non-data ops). Bodies per op:
//
//   op            request body                  response body
//   HELLO         u64 guid, u8 ack_mode         u64 guid, u64 recovered_serial,
//                                               u32 value_size
//   READ          u64 key                       value bytes (iff status OK)
//   UPSERT        u64 key, value bytes          —
//   RMW           u64 key, i64 delta            —
//   DELETE        u64 key                       —
//   CHECKPOINT    u8 variant, u8 include_index  u64 token, u64 commit_serial
//   COMMIT_POINT  —                             u64 commit_serial
//   STATS         u8 stats_kind                 u32 size, size bytes
//   TXN           u32 n_ops, n × op             u32 n_reads, n × (u32 len,
//                 (see below)                   len bytes) (iff status OK)
//   TXN_CHUNK     u32 chunk_index, u32 n_ops,   — (no response on success;
//                 n × op                        errors answer as op TXN)
//   DUMP          u32 table, u64 start_row,     u32 value_size, u64 rows_total,
//                 u32 max_rows                  u64 next_row, u32 n,
//                                               n × (u64 row, value_size bytes)
//   PROVIDER      u8 action (0 query,           u8 kind, u8 pending,
//                 1 switch), u8 kind            u64 switches, u64 last_boundary
//   BATCH         u32 n, n × (u32 len,          u32 n, n × (u32 len,
//                 len-byte sub-request)         len-byte sub-response)
//                                               (iff status OK)
//
// A BATCH frame carries N data operations (READ/UPSERT/RMW/DELETE only —
// nothing else, and in particular no nested BATCH) under one length prefix:
// one syscall and one decode/dispatch pass per side instead of N. Each
// sub-request/sub-response is a complete, self-contained payload in the
// formats above (own op, seq and serial), preceded by a u32 length — i.e.
// byte-identical to a standalone frame — so batching changes *transport
// grouping only*: per-op serials, replay bookkeeping, RECOVERING /
// NOT_DURABLE / exactly-once semantics are exactly those of the equivalent
// unbatched frames. The server executes the sub-ops in order as one serial
// range and answers with one BATCH response once every sub-op can release;
// with DURABLE acks that means the batch releases when a checkpoint covers
// its highest update serial (the outer `serial` field reports that maximum
// covered serial; sub-responses carry their own). During instant restart a
// batch touching a still-restoring shard parks whole before any sub-op
// executes; only when parking is refused (queue full, shard failed) are the
// restoring sub-ops answered RECOVERING inline.
//
// A TXN request carries a multi-key read/write set executed atomically by a
// transactional backend. Each op is:
//
//   u8 kind | u32 table | u64 row | payload
//
// kind 0 = READ (no payload), kind 1 = WRITE (u32 len, len value bytes),
// kind 2 = ADD (i64 delta). The response body carries the read results in
// op order only when the transaction committed (status OK). A NO-WAIT lock
// conflict aborts the transaction and answers TXN_CONFLICT: nothing was
// applied and the client may retry. The transaction still consumes one
// session serial either way, so replayed serials line up across recovery.
//
// A logical transaction whose op set exceeds kMaxTxnOps travels chunked:
// zero or more TXN_CHUNK frames (chunk_index 0, 1, ...) followed by one
// final TXN frame, all carrying the SAME seq. The server stages chunk ops
// per connection and prepends them to the final TXN, which executes as one
// atomic transaction consuming one serial and producing one response.
// Successful chunks get no response. Any staging violation (chunk out of
// order, seq mismatch, staged ops over kMaxTxnOpsLogical, another op
// arriving mid-staging) answers BAD_REQUEST with op TXN and the staged seq,
// then closes the connection. Per-frame op counts stay within kMaxTxnOps;
// read ops per logical transaction stay within kMaxTxnOps so the single
// response frame always fits (chunking exists for large write sets).
//
// DUMP scans a backend table without a session (like STATS): it returns up
// to max_rows live rows starting at start_row, skipping all-zero rows, and
// reports next_row to resume from (0 once the table is exhausted) plus the
// table's total row count. A table id out of range answers NOT_FOUND, which
// lets a client enumerate tables 0..n by probing. Only meaningful on a
// quiesced server; backends without dump support answer BAD_REQUEST. The
// offline crash-consistency certifier (src/certify) uses DUMP to capture
// the recovered state it checks client histories against.
//
// STATS scrapes the server's observability state without a session:
// stats_kind 0 returns the Prometheus-style metrics text exposition
// (prefixed with a scrape sequence number and the server's monotonic clock
// so scrapers detect restarts and compute rates), stats_kind 1 returns the
// checkpoint lifecycle trace as Chrome trace_event JSON (capped below
// kMaxFrameBytes; newest spans win), stats_kind 2 returns the watchdog's
// health record as JSON (overall OK/WARN/STALL plus per-check evidence),
// and stats_kind 3 returns the per-request stage latency breakdown as JSON
// (decode/park/execute/durable_gate/ack/write count/p50/p99 + end-to-end).
//
// PROVIDER inspects or switches the backend's durability provider without a
// session. action 0 (QUERY) reports the current provider kind, whether a
// switch is pending, the completed-switch count, and the last boundary
// version. action 1 (SWITCH) queues an asynchronous live switch to `kind`
// and answers with the same report (kind still the CURRENT provider — poll
// QUERY to observe the flip); backends that cannot switch answer ERROR.
//
// HELLO must be the first request on a connection. guid 0 asks for a fresh
// session; a nonzero guid resumes a live (detached) or recovered session,
// and `recovered_serial` reports the serial the session resumes at — the
// client replays every operation after it. With ack_mode DURABLE the server
// withholds responses until a completed checkpoint covers the operation's
// serial, so an acknowledgement means "committed", not just "executed".

#include <cstdint>
#include <string_view>
#include <vector>

#include "durability/provider.h"

namespace cpr::net {

// Hard ceiling on a frame payload; anything larger is a protocol error.
constexpr uint32_t kMaxFrameBytes = 1u << 20;
constexpr uint32_t kFrameHeaderBytes = 4;

enum class Op : uint8_t {
  kHello = 1,
  kRead = 2,
  kUpsert = 3,
  kRmw = 4,
  kDelete = 5,
  kCheckpoint = 6,
  kCommitPoint = 7,
  kStats = 8,
  kTxn = 9,
  kTxnChunk = 10,
  kDump = 11,
  kProvider = 12,
  kBatch = 13,
};

// TXN op kinds (`TxnWireOp::kind`).
enum class TxnOpKind : uint8_t {
  kRead = 0,
  kWrite = 1,
  kAdd = 2,
};
constexpr uint8_t kMaxTxnOpKind = static_cast<uint8_t>(TxnOpKind::kAdd);

// Hard ceiling on ops per TXN frame; anything larger fails decode.
constexpr uint32_t kMaxTxnOps = 1024;

// Hard ceiling on sub-operations per BATCH frame; anything larger fails
// decode. Sub-ops must be data ops (READ/UPSERT/RMW/DELETE); nested BATCH
// is rejected before recursing so hostile frames cannot nest arbitrarily.
constexpr uint32_t kMaxBatchOps = 256;

// Hard ceiling on ops per logical (possibly chunked) transaction. The
// server rejects staging beyond this; larger write sets must be split into
// separate transactions by the application.
constexpr uint32_t kMaxTxnOpsLogical = 16 * 1024;

// STATS body selector.
enum class StatsKind : uint8_t {
  kMetricsText = 0,   // Prometheus-style text exposition
  kTraceJson = 1,     // Chrome trace_event JSON of checkpoint spans
  kHealth = 2,        // watchdog health record (JSON)
  kReqBreakdown = 3,  // per-request stage latency breakdown (JSON)
};
constexpr uint8_t kMaxStatsKind =
    static_cast<uint8_t>(StatsKind::kReqBreakdown);

// PROVIDER request action. The provider kind itself reuses
// durability::ProviderKind — its values are wire-stable by contract.
enum class ProviderAction : uint8_t {
  kQuery = 0,   // report the current provider
  kSwitch = 1,  // queue an asynchronous live switch to `provider_kind`
};
constexpr uint8_t kMaxProviderAction =
    static_cast<uint8_t>(ProviderAction::kSwitch);

enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,   // READ/DELETE on an absent key
  kBadRequest = 2, // malformed body, wrong value size, HELLO twice, ...
  kNoSession = 3,  // data op before HELLO
  kBusy = 4,       // duplicate live guid / checkpoint already in flight /
                   // session table full
  kError = 5,
  kNotDurable = 6, // durable-ack op executed, but the covering checkpoint
                   // failed persistently: NOT durable, client must replay
  kTxnConflict = 7, // TXN aborted by a NO-WAIT lock conflict: nothing was
                    // applied; retryable
  kRecovering = 8,  // op's shard is still restoring and the parking queue
                    // is full: nothing was applied; retryable. serial != 0
                    // means the server burned that serial for the rejection
                    // (the client neutralizes its replay slot); serial == 0
                    // means no serial was consumed (shutdown drain).
};

constexpr uint8_t kMaxWireStatus =
    static_cast<uint8_t>(WireStatus::kRecovering);

enum class AckMode : uint8_t {
  kExecuted = 0,  // acknowledge as soon as the operation executed
  kDurable = 1,   // acknowledge once a checkpoint covers the serial
};

// One operation of a TXN request's read/write set.
struct TxnWireOp {
  TxnOpKind kind = TxnOpKind::kRead;
  uint32_t table = 0;
  uint64_t row = 0;
  std::vector<char> value;  // WRITE payload
  int64_t delta = 0;        // ADD
};

// One live row returned by DUMP.
struct DumpRow {
  uint64_t row = 0;
  std::vector<char> value;
};

struct Request {
  Op op = Op::kHello;
  uint32_t seq = 0;
  uint64_t guid = 0;              // HELLO
  AckMode ack_mode = AckMode::kExecuted;  // HELLO
  uint64_t key = 0;               // READ/UPSERT/RMW/DELETE
  int64_t delta = 0;              // RMW
  std::vector<char> value;        // UPSERT payload
  uint8_t variant = 0;            // CHECKPOINT: 0 fold-over, 1 snapshot
  bool include_index = false;     // CHECKPOINT
  StatsKind stats_kind = StatsKind::kMetricsText;  // STATS
  std::vector<TxnWireOp> txn_ops;  // TXN / TXN_CHUNK
  uint32_t chunk_index = 0;        // TXN_CHUNK
  uint32_t table = 0;              // DUMP
  uint64_t start_row = 0;          // DUMP
  uint32_t max_rows = 0;           // DUMP
  ProviderAction provider_action = ProviderAction::kQuery;  // PROVIDER
  durability::ProviderKind provider_kind =
      durability::ProviderKind::kCpr;  // PROVIDER (SWITCH target)
  std::vector<Request> batch;      // BATCH sub-requests (data ops only)
};

struct Response {
  Op op = Op::kHello;
  WireStatus status = WireStatus::kOk;
  uint32_t seq = 0;
  uint64_t serial = 0;
  uint64_t guid = 0;              // HELLO
  uint64_t recovered_serial = 0;  // HELLO
  uint32_t value_size = 0;        // HELLO
  uint64_t token = 0;             // CHECKPOINT
  uint64_t commit_serial = 0;     // CHECKPOINT / COMMIT_POINT
  std::vector<char> value;        // READ
  std::vector<char> stats;        // STATS (may legitimately be empty)
  std::vector<std::vector<char>> txn_reads;  // TXN read results, op order
  uint64_t dump_rows_total = 0;   // DUMP: table row count
  uint64_t dump_next_row = 0;     // DUMP: resume cursor (0 = exhausted)
  std::vector<DumpRow> dump_rows; // DUMP (value_size field holds row width)
  durability::ProviderKind provider_kind =
      durability::ProviderKind::kCpr;   // PROVIDER: current provider
  bool provider_pending = false;        // PROVIDER: switch queued
  uint64_t provider_switches = 0;       // PROVIDER: completed switches
  uint64_t provider_last_boundary = 0;  // PROVIDER: last boundary version
  std::vector<Response> batch;          // BATCH sub-responses (iff status OK)
};

// -- Framing ----------------------------------------------------------------

enum class FrameResult : uint8_t {
  kNeedMore,  // buffer holds a partial frame
  kFrame,     // *payload/*consumed describe one complete frame
  kBadFrame,  // zero-length or oversized frame: close the connection
};

// Inspects buffered bytes for one complete frame. On kFrame, `payload`
// points into `data` and `consumed` is the total frame size (header +
// payload) to drop from the buffer.
FrameResult TryExtractFrame(const char* data, size_t size,
                            std::string_view* payload, size_t* consumed);

// -- Encoding (appends one whole frame, header included) --------------------

void EncodeRequest(const Request& req, std::vector<char>* out);
void EncodeResponse(const Response& resp, std::vector<char>* out);

// Encodes a TXN request, splitting op sets larger than kMaxTxnOps into
// TXN_CHUNK frames (all sharing req.seq) followed by the final TXN frame.
// Sets within kMaxTxnOps produce a single plain TXN frame. req.op must be
// kTxn and req.txn_ops must hold 1..kMaxTxnOpsLogical ops.
void EncodeTxnChunked(const Request& req, std::vector<char>* out);

// Incremental BATCH-response writer: appends the outer frame header + batch
// preamble (status OK, sub count `n`) and returns the frame's start offset.
// The caller then appends exactly `n` sub-responses with EncodeResponse —
// a sub-response is byte-identical to its standalone frame — and closes the
// frame with EndBatchResponse, which patches the outer length. This lets the
// server serialize a released batch group straight out of its pending queue
// without assembling an intermediate outer Response.
size_t BeginBatchResponse(uint32_t seq, uint64_t max_serial, uint32_t n,
                          std::vector<char>* out);
void EndBatchResponse(size_t start, std::vector<char>* out);

// -- Decoding (frame payload only; false on any truncated/trailing bytes) ---

bool DecodeRequest(std::string_view payload, Request* out);
bool DecodeResponse(std::string_view payload, Response* out);

const char* OpName(Op op);
const char* StatusName(WireStatus status);

}  // namespace cpr::net

#endif  // CPR_SERVER_WIRE_H_
