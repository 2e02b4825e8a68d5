// Transactional serving-layer benchmark: an in-process KvServer fronting a
// TxDbBackend (TransactionalDb behind the kv::Backend surface) over loopback
// TCP, driven by concurrent pipelining clients issuing multi-key TXN
// requests. Reports end-to-end transactions and record-ops per second, the
// NO-WAIT conflict rate, and — for the durable-ack run against periodic CPR
// checkpoints — the execute->durable latency histogram (p50/p99/max).
//
// Three runs: executed-ack with read-heavy transactions, executed-ack
// update-only, and durable-ack update-only (acks gated on CPR commit
// points). A final high-contention run shrinks the hot-row set to show the
// NO-WAIT abort/retry path under load.
//
// Knobs: CPR_BENCH_WORKERS (4), CPR_BENCH_CLIENTS (4), CPR_BENCH_ROWS
// (65536), CPR_BENCH_TXN_OPS (4), CPR_BENCH_PIPELINE (32),
// CPR_BENCH_SECONDS (2), CPR_BENCH_SCALE.
//
// --stats-json=PATH writes a machine-readable summary of every run
// (throughput, conflicts, durable-lag percentiles) for CI trend tracking.
//
// --mode=cpr|calc|wal picks the durability provider for every run (default
// cpr). The final run is the adaptive-durability demonstration: the server
// starts under WAL (or --mode) with the adaptive policy sampling the
// observed mix, serves a read-heavy phase, then the clients turn write-heavy
// and the policy switches the provider live at a checkpoint boundary — zero
// failed ops, with per-provider segments in the stats json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client/client.h"
#include "durability/provider.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "server/server.h"
#include "server/wire.h"
#include "txdb/txdb_backend.h"
#include "util/clock.h"

namespace cpr::bench {
namespace {

struct TxnRunResult {
  double txns_per_sec = 0;
  double record_ops_per_sec = 0;
  uint64_t total_txns = 0;
  uint64_t conflicts = 0;
  uint64_t max_inflight = 0;
  ServerCounters::Snapshot counters;
  // Per-run critical-path breakdown (registry histogram deltas).
  obs::HistogramData stage_hist[obs::kNumReqStages];
  obs::HistogramData e2e_hist;
};

// The request-stage histograms are process-cumulative; before/after samples
// around each run give per-run distributions.
obs::HistogramMetric* StageHist(uint32_t stage) {
  return obs::MetricsRegistry::Default().GetHistogram(
      std::string("cpr_req_stage_ns{stage=\"") + obs::kReqStageNames[stage] +
      "\"}");
}

obs::HistogramData HistDelta(const obs::HistogramData& after,
                             const obs::HistogramData& before) {
  obs::HistogramData d = after;
  for (size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= before.buckets[i];
  d.sum -= before.sum;
  d.count -= before.count;
  return d;
}

TxnRunResult RunTxnNet(uint32_t workers, uint32_t clients, uint32_t pipeline,
                       uint64_t rows, uint32_t txn_ops, double seconds,
                       uint32_t read_pct, bool durable, uint32_t checkpoint_ms,
                       uint64_t hot_rows,
                       durability::ProviderKind provider =
                           durability::ProviderKind::kCpr) {
  txdb::TxDbBackend::Options bo;
  bo.db.durability_dir = FreshBenchDir("srvtxn");
  bo.db.max_threads = clients + 4;  // one context per connection + pump
  bo.db.mode = txdb::ProviderKindToMode(provider);
  bo.tables = {txdb::TxDbBackend::TableSpec{rows, 8}};
  auto backend = std::make_unique<txdb::TxDbBackend>(std::move(bo));

  server::KvServerOptions so;
  so.num_workers = workers;
  so.idle_poll_ms = 1;
  so.checkpoint_interval_ms = checkpoint_ms;
  so.max_connections = clients + 4;

  obs::HistogramData stage_base[obs::kNumReqStages];
  for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
    stage_base[i] = StageHist(i)->Sample();
  }
  const obs::HistogramData e2e_base =
      obs::MetricsRegistry::Default().GetHistogram("cpr_req_e2e_ns")->Sample();

  server::KvServer server(backend.get(), so);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return {};
  }

  std::atomic<bool> stop{false};
  std::vector<uint64_t> txns(clients, 0);
  std::vector<uint64_t> conflicts(clients, 0);
  std::vector<uint64_t> peaks(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const uint64_t pick_rows = hot_rows > 0 ? hot_rows : rows;
  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      client::CprClient::Options co;
      co.port = server.port();
      co.ack_mode = durable ? net::AckMode::kDurable : net::AckMode::kExecuted;
      client::CprClient c(co);
      if (!c.Connect().ok()) return;
      uint64_t rng = 0x9e3779b97f4a7c15ull ^ (t + 1);
      auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      std::vector<net::TxnWireOp> ops(txn_ops);
      auto enqueue_one = [&] {
        for (uint32_t i = 0; i < txn_ops; ++i) {
          net::TxnWireOp& op = ops[i];
          op.table = 0;
          op.row = next_rand() % pick_rows;
          if (next_rand() % 100 < read_pct) {
            op.kind = net::TxnOpKind::kRead;
            op.delta = 0;
          } else {
            op.kind = net::TxnOpKind::kAdd;
            op.delta = 1;
          }
        }
        c.EnqueueTxn(ops);
      };
      std::vector<client::CprClient::Result> results;
      if (durable) {
        // Windowed pipelining: acks arrive in bursts at each checkpoint;
        // keep the window topped up so execution never starves in between.
        while (!stop.load(std::memory_order_relaxed)) {
          while (c.inflight() < pipeline) enqueue_one();
          if (!c.Flush().ok()) break;
          results.clear();
          size_t processed = 0;
          if (!c.TryDrain(&results, &processed).ok()) break;
          txns[t] += processed;
          if (processed == 0) std::this_thread::yield();
        }
      } else {
        while (!stop.load(std::memory_order_relaxed)) {
          for (uint32_t i = 0; i < pipeline; ++i) enqueue_one();
          if (!c.Flush().ok()) break;
          results.clear();
          if (!c.Drain(&results).ok()) break;
          txns[t] += results.size();
        }
      }
      conflicts[t] = c.stats().txn_conflicts;
      peaks[t] = c.stats().max_inflight;
      c.Close();
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  std::this_thread::sleep_until(deadline);
  stop.store(true);
  for (auto& th : threads) th.join();

  TxnRunResult r;
  for (uint64_t n : txns) r.total_txns += n;
  for (uint64_t n : conflicts) r.conflicts += n;
  for (uint64_t p : peaks) r.max_inflight = std::max(r.max_inflight, p);
  r.txns_per_sec = static_cast<double>(r.total_txns) / seconds;
  r.record_ops_per_sec = r.txns_per_sec * txn_ops;
  r.counters = server.counters();
  server.Stop();
  // Sample after Stop(): all workers flushed, stage sums reconcile with e2e.
  for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
    r.stage_hist[i] = HistDelta(StageHist(i)->Sample(), stage_base[i]);
  }
  r.e2e_hist = HistDelta(
      obs::MetricsRegistry::Default().GetHistogram("cpr_req_e2e_ns")->Sample(),
      e2e_base);
  return r;
}

// One stretch of the adaptive run served under a single provider.
struct AdaptiveSegment {
  std::string provider;
  double seconds = 0;
  uint64_t txns = 0;
  double txns_per_sec = 0;
  // Durable-lag p99 sampled at segment end (cumulative histogram: exact for
  // the first segment, an upper-bound blend for later ones).
  uint64_t durable_lag_p99_ns = 0;
};

struct AdaptiveResult {
  std::vector<AdaptiveSegment> segments;
  std::string initial_provider;
  std::string final_provider;
  uint64_t switches = 0;
  uint64_t total_txns = 0;
  uint64_t conflicts = 0;
  uint64_t failed_ops = 0;  // any response that is not OK / TXN_CONFLICT
  double durable_lag_p99_ms = 0;
};

// The adaptive-durability demonstration: one server, started under
// `start_provider` with the adaptive policy on, serving a read-heavy phase
// for the first half and a write-heavy phase for the second. The policy
// observes the flip in the mix and performs a live provider switch at a
// checkpoint boundary while the clients keep pipelining — a correct run has
// zero failed ops on either side of the switch. A monitor connection polls
// the sessionless PROVIDER op to attribute wall-clock and transactions to
// per-provider segments.
AdaptiveResult RunAdaptiveSwitch(uint32_t workers, uint32_t clients,
                                 uint32_t pipeline, uint64_t rows,
                                 uint32_t txn_ops, double seconds,
                                 durability::ProviderKind start_provider) {
  txdb::TxDbBackend::Options bo;
  bo.db.durability_dir = FreshBenchDir("srvadaptive");
  bo.db.max_threads = clients + 6;
  bo.db.mode = txdb::ProviderKindToMode(start_provider);
  bo.tables = {txdb::TxDbBackend::TableSpec{rows, 8}};
  auto backend = std::make_unique<txdb::TxDbBackend>(std::move(bo));

  server::KvServerOptions so;
  so.num_workers = workers;
  so.idle_poll_ms = 1;
  so.max_connections = clients + 6;
  so.adaptive_interval_ms = 100;
  so.adaptive.min_interval_ops = 64;
  // Durable acks against periodic checkpoints, so each segment carries a
  // real execute->durable lag profile for its provider.
  so.checkpoint_interval_ms = 50;

  server::KvServer server(backend.get(), so);
  AdaptiveResult out;
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return out;
  }
  out.initial_provider = durability::ProviderKindName(backend->Provider());

  std::atomic<bool> stop{false};
  std::atomic<uint32_t> read_pct{95};
  std::atomic<uint64_t> total_txns{0};
  std::vector<uint64_t> conflicts(clients, 0);
  std::vector<uint64_t> failures(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      client::CprClient::Options co;
      co.port = server.port();
      co.ack_mode = net::AckMode::kDurable;
      client::CprClient c(co);
      if (!c.Connect().ok()) {
        failures[t] += 1;
        return;
      }
      uint64_t rng = 0x9e3779b97f4a7c15ull ^ (t + 1);
      auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      std::vector<net::TxnWireOp> ops(txn_ops);
      std::vector<client::CprClient::Result> results;
      // Windowed durable pipelining (acks arrive in checkpoint bursts) with
      // every response audited: anything that is not OK / TXN_CONFLICT is a
      // failed op — the adaptive switch must not produce any.
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t rp = read_pct.load(std::memory_order_relaxed);
        while (c.inflight() < pipeline) {
          for (uint32_t i = 0; i < txn_ops; ++i) {
            net::TxnWireOp& op = ops[i];
            op.table = 0;
            op.row = next_rand() % rows;
            if (next_rand() % 100 < rp) {
              op.kind = net::TxnOpKind::kRead;
              op.delta = 0;
            } else {
              op.kind = net::TxnOpKind::kAdd;
              op.delta = 1;
            }
          }
          c.EnqueueTxn(ops);
        }
        if (!c.Flush().ok()) {
          failures[t] += 1;
          break;
        }
        results.clear();
        size_t processed = 0;
        if (!c.TryDrain(&results, &processed).ok()) {
          failures[t] += 1;
          break;
        }
        for (const auto& r : results) {
          if (r.status != net::WireStatus::kOk &&
              r.status != net::WireStatus::kTxnConflict) {
            failures[t] += 1;
          }
        }
        total_txns.fetch_add(processed, std::memory_order_relaxed);
        if (processed == 0) std::this_thread::yield();
      }
      conflicts[t] = c.stats().txn_conflicts;
      c.Close();
    });
  }

  // Monitor: attribute time and transactions to the provider serving them.
  struct SegmentStart {
    std::string provider;
    uint64_t start_ns;
    uint64_t txns_at_start;
    uint64_t prev_lag_p99_ns;  // cumulative p99 when the PREVIOUS seg ended
  };
  std::vector<SegmentStart> starts;
  std::thread monitor([&] {
    client::CprClient::Options co;
    co.port = server.port();
    client::CprClient mon(co);
    if (!mon.Connect().ok()) return;
    while (!stop.load(std::memory_order_relaxed)) {
      client::CprClient::ProviderStatus ps;
      if (!mon.ProviderInfo(&ps).ok()) break;
      const char* name = durability::ProviderKindName(ps.kind);
      if (starts.empty() || starts.back().provider != name) {
        starts.push_back(
            {name, NowNanos(), total_txns.load(std::memory_order_relaxed),
             server.counters().DurableLagQuantile(0.99)});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    mon.Close();
  });

  // Phase 1: read-heavy (the policy keeps recommending WAL). Phase 2: the
  // mix turns write-heavy and the policy switches the provider live.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int64_t>(seconds * 500)));
  read_pct.store(0, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int64_t>(seconds * 500)));
  stop.store(true);
  monitor.join();
  for (auto& th : threads) th.join();

  const uint64_t end_ns = NowNanos();
  const uint64_t end_txns = total_txns.load(std::memory_order_relaxed);
  const uint64_t end_lag_p99 = server.counters().DurableLagQuantile(0.99);
  for (size_t i = 0; i < starts.size(); ++i) {
    AdaptiveSegment seg;
    seg.provider = starts[i].provider;
    const uint64_t seg_end =
        i + 1 < starts.size() ? starts[i + 1].start_ns : end_ns;
    const uint64_t seg_txns_end =
        i + 1 < starts.size() ? starts[i + 1].txns_at_start : end_txns;
    seg.seconds = static_cast<double>(seg_end - starts[i].start_ns) / 1e9;
    seg.txns = seg_txns_end - starts[i].txns_at_start;
    seg.txns_per_sec =
        seg.seconds > 0 ? static_cast<double>(seg.txns) / seg.seconds : 0;
    seg.durable_lag_p99_ns = i + 1 < starts.size()
                                 ? starts[i + 1].prev_lag_p99_ns
                                 : end_lag_p99;
    out.segments.push_back(std::move(seg));
  }
  out.final_provider = durability::ProviderKindName(backend->Provider());
  out.switches = backend->ProviderSwitches();
  out.total_txns = end_txns;
  for (uint64_t n : conflicts) out.conflicts += n;
  for (uint64_t n : failures) out.failed_ops += n;
  const auto c = server.counters();
  out.durable_lag_p99_ms =
      static_cast<double>(c.DurableLagQuantile(0.99)) / 1e6;
  server.Stop();
  return out;
}

void PrintAdaptive(const AdaptiveResult& r) {
  std::printf("  adaptive live switch     %s -> %s (%llu switch%s)\n",
              r.initial_provider.c_str(), r.final_provider.c_str(),
              static_cast<unsigned long long>(r.switches),
              r.switches == 1 ? "" : "es");
  for (const auto& seg : r.segments) {
    std::printf(
        "    under %-5s %6.2fs  %9.1f ktxn/s  (%llu txns, "
        "durable-lag p99 %.2fms)\n",
        seg.provider.c_str(), seg.seconds, seg.txns_per_sec / 1e3,
        static_cast<unsigned long long>(seg.txns),
        static_cast<double>(seg.durable_lag_p99_ns) / 1e6);
  }
  std::printf("    total=%llu conflicts=%llu failed_ops=%llu%s\n",
              static_cast<unsigned long long>(r.total_txns),
              static_cast<unsigned long long>(r.conflicts),
              static_cast<unsigned long long>(r.failed_ops),
              r.failed_ops == 0 ? " (zero failed/dropped)" : "  <-- FAILURES");
}

void PrintResult(const char* label, const TxnRunResult& r, uint32_t txn_ops) {
  std::printf("  %-24s %9.1f ktxn/s  (%.1f krecord-ops/s, %llu txns)\n",
              label, r.txns_per_sec / 1e3, r.record_ops_per_sec / 1e3,
              static_cast<unsigned long long>(r.total_txns));
  const auto& c = r.counters;
  std::printf(
      "    counters: reqs=%llu resps=%llu held=%llu ckpts=%llu "
      "conflicts=%llu (%.2f%% of acked)\n",
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.responses),
      static_cast<unsigned long long>(c.durable_held),
      static_cast<unsigned long long>(c.checkpoints),
      static_cast<unsigned long long>(r.conflicts),
      r.total_txns > 0
          ? 100.0 * static_cast<double>(r.conflicts) /
                static_cast<double>(r.total_txns)
          : 0.0);
  if (c.durable_lag_max_ns > 0) {
    std::printf(
        "    durable lag: p50=%.2fms p99=%.2fms max=%.2fms  "
        "(peak pipeline depth %llu)\n",
        static_cast<double>(c.DurableLagQuantile(0.5)) / 1e6,
        static_cast<double>(c.DurableLagQuantile(0.99)) / 1e6,
        static_cast<double>(c.durable_lag_max_ns) / 1e6,
        static_cast<unsigned long long>(r.max_inflight));
  }
  if (r.e2e_hist.count > 0) {
    std::printf("    stage p50/p99 us:");
    for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
      std::printf(" %s=%.1f/%.1f", obs::kReqStageNames[i],
                  static_cast<double>(r.stage_hist[i].Quantile(0.5)) / 1e3,
                  static_cast<double>(r.stage_hist[i].Quantile(0.99)) / 1e3);
    }
    std::printf("  e2e=%.1f/%.1f\n",
                static_cast<double>(r.e2e_hist.Quantile(0.5)) / 1e3,
                static_cast<double>(r.e2e_hist.Quantile(0.99)) / 1e3);
  }
  (void)txn_ops;
}

void WriteStatsJson(const char* path, uint32_t workers, uint32_t clients,
                    uint32_t pipeline, uint32_t txn_ops, uint64_t rows,
                    double seconds,
                    const std::vector<std::pair<std::string, TxnRunResult>>&
                        runs,
                    const AdaptiveResult* adaptive) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"server_txn\",\n  \"workers\": %u,\n"
               "  \"clients\": %u,\n  \"pipeline\": %u,\n"
               "  \"txn_ops\": %u,\n  \"rows\": %llu,\n"
               "  \"seconds\": %.3f,\n  \"runs\": [",
               workers, clients, pipeline, txn_ops,
               static_cast<unsigned long long>(rows), seconds);
  for (size_t i = 0; i < runs.size(); ++i) {
    const TxnRunResult& r = runs[i].second;
    const auto& c = r.counters;
    std::fprintf(
        f,
        "%s\n    {\n      \"label\": \"%s\",\n"
        "      \"txns_per_sec\": %.1f,\n"
        "      \"record_ops_per_sec\": %.1f,\n"
        "      \"total_txns\": %llu,\n      \"conflicts\": %llu,\n"
        "      \"checkpoints\": %llu,\n      \"checkpoint_failures\": %llu,\n"
        "      \"not_durable_acks\": %llu,\n"
        "      \"durable_lag_ns\": {\"p50\": %llu, \"p99\": %llu, "
        "\"max\": %llu},\n      \"req_stage_ns\": {",
        i == 0 ? "" : ",", runs[i].first.c_str(), r.txns_per_sec,
        r.record_ops_per_sec, static_cast<unsigned long long>(r.total_txns),
        static_cast<unsigned long long>(r.conflicts),
        static_cast<unsigned long long>(c.checkpoints),
        static_cast<unsigned long long>(c.checkpoint_failures),
        static_cast<unsigned long long>(c.not_durable_acks),
        static_cast<unsigned long long>(c.DurableLagQuantile(0.5)),
        static_cast<unsigned long long>(c.DurableLagQuantile(0.99)),
        static_cast<unsigned long long>(c.durable_lag_max_ns));
    for (uint32_t s = 0; s < obs::kNumReqStages; ++s) {
      const obs::HistogramData& h = r.stage_hist[s];
      std::fprintf(
          f, "%s\"%s\": {\"p50\": %llu, \"p99\": %llu, \"sum\": %llu, "
          "\"count\": %llu}",
          s == 0 ? "" : ", ", obs::kReqStageNames[s],
          static_cast<unsigned long long>(h.Quantile(0.5)),
          static_cast<unsigned long long>(h.Quantile(0.99)),
          static_cast<unsigned long long>(h.sum),
          static_cast<unsigned long long>(h.count));
    }
    std::fprintf(
        f, "},\n      \"e2e_ns\": {\"p50\": %llu, \"p99\": %llu, "
        "\"sum\": %llu, \"count\": %llu}\n    }",
        static_cast<unsigned long long>(r.e2e_hist.Quantile(0.5)),
        static_cast<unsigned long long>(r.e2e_hist.Quantile(0.99)),
        static_cast<unsigned long long>(r.e2e_hist.sum),
        static_cast<unsigned long long>(r.e2e_hist.count));
  }
  std::fprintf(f, "\n  ]");
  if (adaptive != nullptr) {
    std::fprintf(
        f,
        ",\n  \"adaptive\": {\n    \"initial_provider\": \"%s\",\n"
        "    \"final_provider\": \"%s\",\n    \"switches\": %llu,\n"
        "    \"total_txns\": %llu,\n    \"conflicts\": %llu,\n"
        "    \"failed_ops\": %llu,\n    \"segments\": [",
        adaptive->initial_provider.c_str(), adaptive->final_provider.c_str(),
        static_cast<unsigned long long>(adaptive->switches),
        static_cast<unsigned long long>(adaptive->total_txns),
        static_cast<unsigned long long>(adaptive->conflicts),
        static_cast<unsigned long long>(adaptive->failed_ops));
    for (size_t i = 0; i < adaptive->segments.size(); ++i) {
      const AdaptiveSegment& seg = adaptive->segments[i];
      std::fprintf(f,
                   "%s\n      {\"provider\": \"%s\", \"seconds\": %.3f, "
                   "\"txns\": %llu, \"txns_per_sec\": %.1f, "
                   "\"durable_lag_p99_ns\": %llu}",
                   i == 0 ? "" : ",", seg.provider.c_str(), seg.seconds,
                   static_cast<unsigned long long>(seg.txns),
                   seg.txns_per_sec,
                   static_cast<unsigned long long>(seg.durable_lag_p99_ns));
    }
    std::fprintf(f, "\n    ]\n  }");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("  stats json -> %s\n", path);
}

void Run(const char* stats_json, durability::ProviderKind mode,
         bool mode_given) {
  const double scale = EnvF64("CPR_BENCH_SCALE", 1.0);
  const double seconds = EnvF64("CPR_BENCH_SECONDS", 2.0) * scale;
  const uint64_t rows = EnvU64("CPR_BENCH_ROWS", 65'536);
  const uint32_t workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_WORKERS", 4));
  const uint32_t clients =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_CLIENTS", 4));
  const uint32_t pipeline =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_PIPELINE", 32));
  const uint32_t txn_ops =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_TXN_OPS", 4));

  PrintHeader("Server", "multi-key TXN over loopback TCP, txdb backend (" +
                            std::string(durability::ProviderKindName(mode)) +
                            " provider), " + std::to_string(workers) +
                            " workers, " + std::to_string(clients) +
                            " pipelining clients (depth " +
                            std::to_string(pipeline) + ", " +
                            std::to_string(txn_ops) + " ops/txn)");
  std::vector<std::pair<std::string, TxnRunResult>> labeled;
  {
    const TxnRunResult r =
        RunTxnNet(workers, clients, pipeline, rows, txn_ops, seconds,
                  /*read_pct=*/80, /*durable=*/false, /*checkpoint_ms=*/0,
                  /*hot_rows=*/0, mode);
    PrintResult("80:20 executed-ack", r, txn_ops);
    labeled.emplace_back("80:20 executed-ack", r);
  }
  {
    const TxnRunResult r =
        RunTxnNet(workers, clients, pipeline, rows, txn_ops, seconds,
                  /*read_pct=*/0, /*durable=*/false, /*checkpoint_ms=*/0,
                  /*hot_rows=*/0, mode);
    PrintResult("0:100 executed-ack", r, txn_ops);
    labeled.emplace_back("0:100 executed-ack", r);
  }
  {
    // Durable acks: TXN responses only flow when a periodic CPR checkpoint
    // covers their serials; the lag histogram is the per-transaction cost
    // of commit-on-ack.
    const TxnRunResult r =
        RunTxnNet(workers, clients, pipeline, rows, txn_ops, seconds,
                  /*read_pct=*/0, /*durable=*/true, /*checkpoint_ms=*/100,
                  /*hot_rows=*/0, mode);
    PrintResult("0:100 durable-ack", r, txn_ops);
    labeled.emplace_back("0:100 durable-ack", r);
  }
  {
    // High contention: all updates land on a handful of rows, so NO-WAIT
    // aborts (TXN_CONFLICT, retried client-side as new transactions) become
    // a first-class part of the workload.
    const TxnRunResult r =
        RunTxnNet(workers, clients, pipeline, rows, txn_ops, seconds,
                  /*read_pct=*/0, /*durable=*/false, /*checkpoint_ms=*/0,
                  /*hot_rows=*/8, mode);
    PrintResult("hot-8 executed-ack", r, txn_ops);
    labeled.emplace_back("hot-8 executed-ack", r);
  }
  // Adaptive-durability demonstration: start under WAL (or an explicit
  // --mode), serve read-heavy, flip the mix write-heavy mid-run, and let
  // the policy switch the provider live.
  const AdaptiveResult adaptive = RunAdaptiveSwitch(
      workers, clients, pipeline, rows, txn_ops, seconds,
      mode_given ? mode : durability::ProviderKind::kWal);
  PrintAdaptive(adaptive);
  if (stats_json != nullptr) {
    WriteStatsJson(stats_json, workers, clients, pipeline, txn_ops, rows,
                   seconds, labeled, &adaptive);
  }
}

}  // namespace
}  // namespace cpr::bench

int main(int argc, char** argv) {
  const char* stats_json = nullptr;
  cpr::durability::ProviderKind mode = cpr::durability::ProviderKind::kCpr;
  bool mode_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_json = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      if (!cpr::durability::ParseProviderKind(argv[i] + 7, &mode)) {
        std::fprintf(stderr, "unknown --mode \"%s\" (cpr|calc|wal)\n",
                     argv[i] + 7);
        return 2;
      }
      mode_given = true;
    }
  }
  cpr::bench::Run(stats_json, mode, mode_given);
  return 0;
}
