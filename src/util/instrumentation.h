#ifndef CPR_UTIL_INSTRUMENTATION_H_
#define CPR_UTIL_INSTRUMENTATION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "util/cacheline.h"
#include "util/sharded_histogram.h"

namespace cpr {

// Per-thread cost breakdown used to regenerate the paper's Fig. 10e / 16e /
// 17e profiles. Buckets mirror the paper's labels:
//   exec            in-memory transaction processing incl. lock acquire/release
//   tail_contention LSN allocation (WAL) / atomic commit log append (CALC)
//   log_write       copying redo payloads into the WAL buffer
//   abort           work thrown away by aborted transactions
// All values are wall-clock nanoseconds accumulated by the owning thread;
// never written cross-thread, so plain (non-atomic) fields suffice.
struct alignas(kCacheLineBytes) BreakdownCounters {
  uint64_t exec_ns = 0;
  uint64_t tail_contention_ns = 0;
  uint64_t log_write_ns = 0;
  uint64_t abort_ns = 0;
  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t cpr_aborts = 0;  // aborts caused by a CPR version shift

  void Reset() { *this = BreakdownCounters(); }

  BreakdownCounters& operator+=(const BreakdownCounters& o) {
    exec_ns += o.exec_ns;
    tail_contention_ns += o.tail_contention_ns;
    log_write_ns += o.log_write_ns;
    abort_ns += o.abort_ns;
    committed_txns += o.committed_txns;
    aborted_txns += o.aborted_txns;
    cpr_aborts += o.cpr_aborts;
    return *this;
  }
};

// The network serving layer's counters (src/server), each defined once:
// X(field, exported metric name). The list generates the relaxed atomics,
// the plain Snapshot fields, Sample() and the registry export.
#define CPR_SERVER_COUNTERS(X)                                                \
  X(connections_accepted, "cpr_server_connections_accepted_total")            \
  X(connections_active, "cpr_server_connections_active")                      \
  X(requests, "cpr_server_requests_total")                                    \
  X(responses, "cpr_server_responses_total")                                  \
  X(bytes_in, "cpr_server_bytes_in_total")                                    \
  X(bytes_out, "cpr_server_bytes_out_total")                                  \
  /* ops that went asynchronous */                                            \
  X(ops_pending, "cpr_server_ops_pending_total")                              \
  /* responses gated on durability */                                         \
  X(durable_held, "cpr_server_durable_held_total")                            \
  /* checkpoints started via wire; CHECKPOINT rejected while one is in */     \
  /* flight; checkpoints that failed to persist (storage faults) */           \
  X(checkpoints, "cpr_server_checkpoints_total")                              \
  X(checkpoint_stalls, "cpr_server_checkpoint_stalls_total")                  \
  X(checkpoint_failures, "cpr_server_checkpoint_failures_total")              \
  /* durable-gated responses released as NOT_DURABLE, then split by cause */  \
  /* so a spike is attributable: the single engine's checkpoint write */      \
  /* failed, vs. a coordinated cross-shard round degraded because some */     \
  /* shard failed its checkpoint */                                           \
  X(not_durable_acks, "cpr_server_not_durable_acks_total")                    \
  X(not_durable_engine, "cpr_server_not_durable_acks_engine_total")           \
  X(not_durable_degraded, "cpr_server_not_durable_acks_degraded_total")       \
  X(protocol_errors, "cpr_server_protocol_errors_total")                      \
  /* Instant restart: ops parked in the bounded queue while their shard */    \
  /* restored, ops rejected RECOVERING because the queue was full, and */     \
  /* parked ops failed at shutdown because their shard never came up */       \
  X(ops_parked, "cpr_server_ops_parked_total")                                \
  X(recovering_rejections, "cpr_server_recovering_rejections_total")          \
  X(parked_failed_at_shutdown, "cpr_server_parked_failed_at_shutdown_total")  \
  /* Wall-clock from listener-up to the first data op answered, and to the */ \
  /* end of background recovery: their ratio is the instant-restart win */    \
  X(time_to_first_op_ns, "cpr_server_time_to_first_op_ns")                    \
  X(recovery_duration_ns, "cpr_server_recovery_duration_ns")                  \
  /* Workload mix (single-key data ops plus TXN read/write-set members) */    \
  /* feeding the adaptive durability policy */                                \
  X(read_ops, "cpr_server_read_ops_total")                                    \
  X(write_ops, "cpr_server_write_ops_total")                                  \
  /* Slow-reader flow control: connections whose outbuf backlog crossed */    \
  /* the soft cap (reads paused until they drain), and connections closed */  \
  /* for blowing through the hard cap */                                      \
  X(slow_reader_throttled, "cpr_server_slow_reader_throttled_total")          \
  X(slow_reader_closed, "cpr_server_slow_reader_closed_total")                \
  /* Largest execute->durable lag recorded (see RecordDurableLag) */          \
  X(durable_lag_max_ns, "cpr_server_durable_lag_max_ns")

// Updated from worker and acceptor threads; sampled by monitoring/bench
// code, so every field is a relaxed atomic. `Sample()` gives a plain copy.
struct ServerCounters {
#define CPR_SERVER_COUNTER_ATOMIC(field, metric) std::atomic<uint64_t> field{0};
  CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_ATOMIC)
#undef CPR_SERVER_COUNTER_ATOMIC

  // Execute->durable lag of durable-gated responses: time from enqueueing
  // the executed operation until its covering checkpoint released the ack.
  // Multiple workers record, so this rides the lock-free sharded-slot
  // histogram: a record is three relaxed RMWs on the caller's slot, no mutex
  // on the ack path.
  void RecordDurableLag(uint64_t ns) {
    durable_lag_.Record(ns);
    uint64_t seen = durable_lag_max_ns.load(std::memory_order_relaxed);
    while (ns > seen && !durable_lag_max_ns.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
#define CPR_SERVER_COUNTER_FIELD(field, metric) uint64_t field = 0;
    CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_FIELD)
#undef CPR_SERVER_COUNTER_FIELD
    HistogramData durable_lag;

    // Durable-lag quantile, clamped to the recorded max: a log2 bucket's
    // upper bound can overshoot every sample in it by up to 2x.
    uint64_t DurableLagQuantile(double q) const {
      return std::min(durable_lag.Quantile(q), durable_lag_max_ns);
    }
  };

  Snapshot Sample() const {
    Snapshot s;
#define CPR_SERVER_COUNTER_LOAD(field, metric) \
  s.field = field.load(std::memory_order_relaxed);
    CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_LOAD)
#undef CPR_SERVER_COUNTER_LOAD
    s.durable_lag = durable_lag_.Sample();
    return s;
  }

  // Calls emit(metric_name, value) for every counter and the durable-lag
  // p50/p99. Feeds the server's metrics-registry collector.
  template <typename Emit>
  static void Export(const Snapshot& s, Emit&& emit) {
#define CPR_SERVER_COUNTER_EMIT(field, metric) \
  emit(metric, static_cast<double>(s.field));
    CPR_SERVER_COUNTERS(CPR_SERVER_COUNTER_EMIT)
#undef CPR_SERVER_COUNTER_EMIT
    emit("cpr_server_durable_lag_p50_ns",
         static_cast<double>(s.DurableLagQuantile(0.5)));
    emit("cpr_server_durable_lag_p99_ns",
         static_cast<double>(s.DurableLagQuantile(0.99)));
  }

 private:
  HistogramMetric durable_lag_;
};

}  // namespace cpr

#endif  // CPR_UTIL_INSTRUMENTATION_H_
