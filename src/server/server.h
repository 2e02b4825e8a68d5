#ifndef CPR_SERVER_SERVER_H_
#define CPR_SERVER_SERVER_H_

// Epoll-based (poll(2) fallback) TCP front-end exposing a kv::Backend —
// one FasterKv or a ShardedKv (src/shard) — over the wire protocol in
// server/wire.h. The wire protocol and durability semantics are identical
// either way; with a sharded backend "checkpoint" means a coordinated
// cross-shard round and acks gate on its published manifest.
//
// Threading: one acceptor thread plus N worker threads. Each accepted
// connection is assigned to one worker for its whole life, and each
// connection binds to its own CPR Session, so the epoch rules ("refresh
// regularly, complete your pendings") are honored per worker loop. Workers
// refresh every session they own on every iteration, which is what lets
// fully asynchronous checkpoints make progress even when connections idle.
//
// Durability semantics (the CPR story, end to end):
//   - ack_mode EXECUTED: a response means the operation executed; it is
//     durable only once a later checkpoint's commit point covers its serial
//     (query via COMMIT_POINT).
//   - ack_mode DURABLE: responses are withheld until a completed checkpoint
//     covers the operation's serial; an acknowledgement means committed.
//     Clients should trigger CHECKPOINT (or the server can be configured
//     with checkpoint_interval_ms) or acknowledgements will not flow.
//
// Disconnects (detach_sessions=true, the default) park the session
// server-side; a reconnecting HELLO with the same guid resumes it at its
// exact serial, so a live reconnect replays nothing. After a crash and
// Recover(), HELLO reports the recovered commit point and the client
// replays everything after it.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "durability/policy.h"
#include "faster/faster.h"
#include "obs/reqtrace.h"
#include "obs/watchdog.h"
#include "server/wire.h"
#include "shard/backend.h"
#include "util/instrumentation.h"
#include "util/status.h"

namespace cpr::server {

struct KvServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0: pick an ephemeral port, see KvServer::port()
  uint32_t num_workers = 2;
  // Each connection holds an epoch-table slot; keep this below the store's
  // epoch max_threads (default 128) minus the threads you run yourself.
  uint32_t max_connections = 96;
  uint32_t idle_poll_ms = 5;  // poll timeout when no work is pending
  // 0: checkpoints only when a client sends CHECKPOINT. Otherwise the
  // server starts one every interval (worker 0 drives it).
  uint32_t checkpoint_interval_ms = 0;
  faster::CommitVariant checkpoint_variant = faster::CommitVariant::kFoldOver;
  // Keep sessions alive across disconnects so clients can resume at their
  // exact serial. Sessions are only torn down at Stop() (or immediately at
  // disconnect when false).
  bool detach_sessions = true;
  // Instant restart: Start() opens the listener immediately and drives
  // backend recovery on a background thread. HELLO parks until the commit
  // point is pinned (StartRecovery returns — milliseconds, not the full
  // restore); data ops for already-restored shards serve at once, ops for
  // still-restoring shards park in the bounded queue below or are rejected
  // RECOVERING once it is full. When false the caller is expected to run
  // Recover() before Start(), as before.
  bool recover_on_start = false;
  // Global cap across all connections on requests parked waiting for their
  // shard (at most one per connection — a data op or a whole BATCH; later
  // frames wait unread in the connection buffer so per-session serial order
  // is preserved).
  uint32_t max_parked_ops = 256;
  // Adaptive durability: worker 0 samples the observed workload (read/write
  // mix, durable-lag p99, commit stalls) every interval and queues a live
  // provider switch when the policy recommends one. 0 disables; requires a
  // backend that supports RequestProviderSwitch (the txdb backend).
  uint32_t adaptive_interval_ms = 0;
  durability::AdaptivePolicy::Options adaptive;
  // Per-request critical-path tracing: overrides the span-ring sampling rate
  // of obs::ReqTrace::Default() (1-in-N; 0 keeps the CPR_REQTRACE_SAMPLE /
  // built-in default). The per-stage latency histograms record regardless.
  uint32_t reqtrace_sample = 0;
  // Health watchdog: evaluation period for the stall predicates (checkpoint
  // stuck, recovery stalled, parked queue pinned, durable lag growing,
  // provider switch overdue). 0 disables the background evaluator (health
  // STATS then reports zero evaluations). A check that stays suspicious for
  // warn_evals consecutive evaluations reports WARN, for stall_evals STALL
  // (plus a diagnostic dump to watchdog_dump_path / $CPR_WATCHDOG_DUMP).
  uint32_t watchdog_interval_ms = 250;
  uint32_t watchdog_warn_evals = 2;
  uint32_t watchdog_stall_evals = 4;
  std::string watchdog_dump_path;
  // Slow-reader flow control. A connection whose un-flushed outbuf backlog
  // crosses the soft cap stops being read from (TCP backpressure reaches
  // the client; reads resume once the backlog drains below the cap). Past
  // the hard cap the connection is closed: the peer demonstrably is not
  // draining and the server will not buffer its responses without bound.
  // 0 disables the respective cap.
  size_t outbuf_soft_cap_bytes = 4u << 20;
  size_t outbuf_hard_cap_bytes = 64u << 20;
};

class KvServer {
 public:
  // `backend` must outlive the server. Call Recover() on it before Start()
  // when resuming from a checkpoint.
  KvServer(kv::Backend* backend, KvServerOptions options);
  // Convenience: serve a single FasterKv (wraps it in an owned adapter).
  // `kv` must outlive the server.
  KvServer(faster::FasterKv* kv, KvServerOptions options);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  ServerCounters::Snapshot counters() const { return counters_.Sample(); }

 private:
  struct PendingResponse;
  struct Connection;
  struct Worker;

  void AcceptLoop();
  void WorkerLoop(Worker& w);
  void AdoptConnection(Worker& w, int fd);
  void OnReadable(Worker& w, Connection* c);
  void ParseFrames(Worker& w, Connection* c);
  void HandleRequest(Connection* c, const net::Request& req);
  void HandleHello(Connection* c, const net::Request& req);
  // A standalone data op or a BATCH of them: parks the whole frame while
  // one of its shards is restoring, else executes every op in order.
  void HandleDataOps(Connection* c, const net::Request& frame);
  // Executes one data op (never parks: a still-restoring shard answers
  // RECOVERING) and queues exactly one response entry.
  void HandleDataOp(Connection* c, const net::Request& req);
  void HandleTxn(Connection* c, const net::Request& req);
  void HandleTxnChunk(Connection* c, const net::Request& req);
  void HandleDump(Connection* c, const net::Request& req);
  void HandleCheckpoint(Connection* c, const net::Request& req);
  void HandleCommitPoint(Connection* c, const net::Request& req);
  void HandleStats(Connection* c, const net::Request& req);
  void HandleProvider(Connection* c, const net::Request& req);
  // Answers a TXN-staging protocol violation: BAD_REQUEST as op TXN (the
  // client correlates chunked transactions by their final-TXN seq), then
  // close-after-flush — staging state is unreliable past the violation.
  void FailTxnStaging(Connection* c, uint32_t seq);
  void OnAsyncComplete(Connection* c, const faster::AsyncResult& r);
  void ReleaseResponses(Connection* c);
  void FlushOut(Worker& w, Connection* c);
  void DriveConnections(Worker& w);
  void DestroyConnection(Worker& w, Connection* c);
  void TickDetached();
  void MaybePeriodicCheckpoint();
  void MaybeAdaptiveSwitch();
  bool AnyWorkPending(const Worker& w) const;
  void ShutdownDrainSessions(std::vector<kv::Session*> sessions);
  // Instant-restart serving surface.
  void RecoveryMain();                       // background recovery driver
  bool TryParkRequest(Connection* c, const net::Request& req, uint32_t shard);
  void RejectRecovering(Connection* c, const net::Request& req);
  void RetryParked(Worker& w, Connection* c);
  // Shutdown drain for one connection's queued responses: completes what it
  // can without blocking, then fails the rest with an honest status (parked
  // -> RECOVERING serial 0, never-completed async -> ERROR, unmet durable
  // gate -> NOT_DURABLE) and best-effort flushes, instead of silently
  // dropping queued responses at teardown.
  void FailPendingAtShutdown(Worker& w, Connection* c);

  std::unique_ptr<kv::Backend> owned_backend_;  // FasterKv-ctor adapter
  kv::Backend* kv_;
  KvServerOptions options_;
  ServerCounters counters_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint32_t> next_worker_{0};

  // Guids currently attached to a live connection (duplicate HELLO -> BUSY).
  std::mutex guids_mu_;
  std::set<uint64_t> live_guids_;

  // Sessions parked by disconnected clients, keyed by guid. Ticked by
  // whichever worker gets the try_lock so their epochs keep advancing.
  std::mutex detached_mu_;
  std::map<uint64_t, kv::Session*> detached_;

  // Sessions of closed connections (and of all connections at shutdown)
  // whose pending operations still need to be driven before StopSession.
  std::mutex draining_mu_;
  std::vector<kv::Session*> draining_;

  uint64_t last_periodic_ckpt_ns_ = 0;  // worker 0 only

  // Adaptive durability driver (worker 0 only).
  durability::AdaptivePolicy adaptive_policy_;
  uint64_t last_adaptive_ns_ = 0;

  // Instant-restart state (recover_on_start). `recovery_installed_` flips
  // once StartRecovery() pins the commit point (sessions may be created);
  // `recovery_done_` once background recovery concluded — after which a
  // still-unready shard is terminally failed, not "coming soon".
  std::thread recovery_thread_;
  std::atomic<bool> recovery_installed_{true};
  std::atomic<bool> recovery_done_{true};
  std::atomic<uint32_t> parked_ops_{0};
  std::atomic<bool> first_op_served_{false};
  uint64_t serve_start_ns_ = 0;

  // Metrics-registry collector exposing ServerCounters (registered in
  // Start(), removed in Stop() — the emitting struct outlives both).
  uint64_t obs_collector_id_ = 0;

  // Request-level observability: per-op stage recorder (process-global; the
  // handle is cached here) and the health watchdog (per server instance,
  // created in Start(), stopped first thing in Stop() so its checks never
  // read a tearing-down backend).
  obs::ReqTrace* reqtrace_ = nullptr;
  std::unique_ptr<obs::Watchdog> watchdog_;
};

}  // namespace cpr::server

#endif  // CPR_SERVER_SERVER_H_
