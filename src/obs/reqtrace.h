#ifndef CPR_OBS_REQTRACE_H_
#define CPR_OBS_REQTRACE_H_

// Per-request critical-path recorder: where did each microsecond of an op's
// server-side lifetime go? Every op that crosses the wire passes through the
// same stage pipeline
//
//   socket read -> frame decode/dispatch -> [park while shard restores] ->
//   backend execute -> [durable-gate wait] -> ack serialize -> socket write
//
// and the server stamps each boundary, folding the widths into a fixed
// stage taxonomy (ReqStage). Two sinks consume the stamps:
//
//   * Aggregates — per-stage log2 histograms (cpr_req_stage_ns{stage="..."})
//     plus an end-to-end histogram (cpr_req_e2e_ns) registered in a
//     MetricsRegistry on EVERY op, so p50/p99 breakdowns are scrapeable over
//     STATS even when span sampling is off. The stages partition the op's
//     recv->write-done interval exactly: sum(stage_ns) == e2e per op, so the
//     aggregated per-stage sums reconcile against the e2e sum.
//   * Sampled spans — 1-in-N ops (default 64; CPR_REQTRACE_SAMPLE overrides,
//     0 disables) additionally deposit their full ReqSpan into an
//     obs::SpanRing, retained for the watchdog's on-stall dump and offline
//     inspection.
//
// Overhead budget: the always-on path is 6 histogram records (18 relaxed
// RMWs on per-thread slots) + a handful of NowNanos() stamps per op —
// O(100ns), invisible next to a syscall; the sampled path adds one slot
// write per N ops.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_ring.h"

namespace cpr::obs {

// Stage taxonomy. Widths are contiguous: each stage starts where the
// previous ended, so they partition [recv, write-done] with no gaps.
enum class ReqStage : uint8_t {
  kDecode = 0,       // frame extract + decode + session/shard dispatch
  kPark = 1,         // parked while the op's shard was still restoring
  kExecute = 2,      // backend execute (incl. async completion wait)
  kDurableGate = 3,  // executed, waiting for a covering checkpoint / FIFO
  kAck = 4,          // response serialize + queued behind earlier frames
  kWrite = 5,        // in the socket buffer until the kernel took the bytes
};
inline constexpr uint32_t kNumReqStages = 6;
inline constexpr const char* kReqStageNames[kNumReqStages] = {
    "decode", "park", "execute", "durable_gate", "ack", "write"};

// One sampled request, stage widths in nanoseconds.
struct ReqSpan {
  uint64_t start_ns = 0;  // NowNanos() when the op's bytes were received
  uint64_t stage_ns[kNumReqStages] = {};
  uint64_t serial = 0;  // session serial (0 for sessionless ops)
  uint8_t op = 0;       // wire op code
  uint8_t status = 0;   // wire status code of the response

  uint64_t TotalNs() const {
    uint64_t t = 0;
    for (uint32_t i = 0; i < kNumReqStages; ++i) t += stage_ns[i];
    return t;
  }
};

class ReqTrace {
 public:
  // `capacity` (sampled-span ring, rounded up to a power of two) and the
  // registry the per-stage aggregates live in. `sample_every` = 0 disables
  // the ring (aggregates still record).
  explicit ReqTrace(uint32_t capacity = 2048,
                    MetricsRegistry* registry = &MetricsRegistry::Default(),
                    uint32_t sample_every = 64);

  ReqTrace(const ReqTrace&) = delete;
  ReqTrace& operator=(const ReqTrace&) = delete;

  // The process-global instance the server records into. Initial sampling
  // rate comes from CPR_REQTRACE_SAMPLE (default 64, 0 = ring off).
  static ReqTrace& Default();

  // Folds one finished request in: always records the per-stage + e2e
  // histograms, and deposits the span in the ring for every `sample_every`th
  // call. Thread-safe, lock-free except the per-slot spinlock.
  void Record(const ReqSpan& span);

  void set_sample_every(uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // Retained sampled spans, oldest first.
  std::vector<ReqSpan> Snapshot() const { return ring_.Snapshot(); }

  // Empties the ring and zeroes the op/sample counters (test isolation);
  // the registry histograms are cumulative and unaffected.
  void Clear();

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t sampled() const { return ring_.pushed(); }
  uint32_t capacity() const { return ring_.capacity(); }

  // JSON object with the cumulative per-stage breakdown sampled from the
  // registry histograms: {"sample_every":N,"recorded_ops":...,"stages":
  // {"decode":{"count":..,"p50_ns":..,"p99_ns":..,"mean_ns":..,"sum_ns":..},
  // ...},"e2e_ns":{...}}. Served as STATS kind kReqBreakdown.
  std::string RenderBreakdownJson() const;

  // Human-readable dump of the sampled spans (newest last), one line per
  // span with per-stage widths. Embedded in the watchdog's on-stall dump.
  std::string RenderSpansText(size_t max_spans = 64) const;

 private:
  SpanRing<ReqSpan> ring_;             // sampled spans
  std::atomic<uint64_t> recorded_{0};  // all Record() calls
  std::atomic<uint32_t> sample_every_;

  HistogramMetric* stage_hist_[kNumReqStages];
  HistogramMetric* e2e_hist_;
};

}  // namespace cpr::obs

#endif  // CPR_OBS_REQTRACE_H_
