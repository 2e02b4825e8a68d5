// Network serving-layer benchmark: an in-process KvServer over loopback TCP,
// driven by concurrent pipelining clients. Reports end-to-end operations per
// second (the acceptance bar is >=100k ops/s with 4 workers on localhost)
// plus the server's instrumentation counters, then repeats the run with
// durable-ack clients against periodic CPR checkpoints to show the cost of
// commit-on-ack. Durable clients keep the pipeline full across checkpoint
// epochs (TryDrain) instead of draining synchronously, and the run reports
// the execute->durable latency histogram (p50/p99/max).
//
// With --shards=N (or CPR_BENCH_SHARDS) the server fronts a ShardedKv over N
// FasterKv instances with coordinated cross-shard checkpoints; the report
// adds per-shard op counts and the coordinated-round cadence.
//
// With --crash-restart the benchmark instead measures instant restart:
// preload + checkpoint a multi-shard store, tear it down ("power loss"),
// restart the server with recover_on_start, and drive a client against the
// recovering store. Reports time-to-first-op (listener up, first data op
// answered), time-to-full-recovery (every shard restored), and
// time-to-full-throughput (client-observed window rate back at steady
// state), plus the parked/RECOVERING traffic counts during the window.
//
// Knobs: CPR_BENCH_WORKERS (4), CPR_BENCH_CLIENTS (4), CPR_BENCH_KEYS
// (100000), CPR_BENCH_PIPELINE (64), CPR_BENCH_SECONDS (2),
// CPR_BENCH_SHARDS (1), CPR_BENCH_SCALE, CPR_BENCH_RESTART_PASSES (3).
//
// --stats-json=PATH additionally writes a machine-readable summary of every
// run (throughput, durable-lag percentiles, per-phase checkpoint time) for
// CI trend tracking.
//
// --batch turns on the batched wire path: clients coalesce ops into BATCH
// frames and size their pipeline with the adaptive RTT window instead of the
// fixed depth; durable runs add a monitor thread feeding the server's
// durable_gate p99 back into the client windows as backpressure. The JSON
// gains a top-level "batch" flag so CI can compare the two modes.
#include <algorithm>
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
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "server/server.h"
#include "shard/faster_backend.h"
#include "shard/sharded_kv.h"

namespace cpr::bench {
namespace {

struct NetRunResult {
  double ops_per_sec = 0;
  uint64_t total_ops = 0;
  uint64_t max_inflight = 0;  // peak client pipeline depth
  std::vector<uint64_t> shard_ops;
  uint64_t rounds = 0;  // coordinated rounds completed (sharded only)
  ServerCounters::Snapshot counters;
  uint64_t phase_ns[4] = {0, 0, 0, 0};  // per-run checkpoint phase time
  // Per-run critical-path breakdown (registry histogram deltas).
  obs::HistogramData stage_hist[obs::kNumReqStages];
  obs::HistogramData e2e_hist;
};

// The registry's phase counters are process-cumulative (all stores, all
// runs); sampling them around each run turns them into per-run durations.
uint64_t PhaseCounterNs(int phase) {
  return faster::CheckpointPhaseNs(faster::kCheckpointPhaseNames[phase])
      ->Value();
}

// The request-stage histograms are likewise process-cumulative; before/after
// samples around each run give per-run distributions.
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

// Pulls the durable_gate p99 out of the STATS breakdown JSON ("stages":
// {"durable_gate":{"count":..,"p50_ns":..,"p99_ns":N,...}}). Returns 0 when
// the stage has not recorded yet.
uint64_t ParseDurableGateP99(const std::string& json) {
  size_t at = json.find("\"durable_gate\":{");
  if (at == std::string::npos) return 0;
  at = json.find("\"p99_ns\":", at);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + 9, nullptr, 10);
}

NetRunResult RunNet(uint32_t workers, uint32_t clients, uint32_t pipeline,
                    uint64_t keys, double seconds, uint32_t read_pct,
                    bool durable, uint32_t checkpoint_ms, uint32_t shards,
                    bool batch) {
  faster::FasterKv::Options fo;
  fo.dir = FreshBenchDir("srv");
  fo.index_buckets = 1ull << 16;

  std::unique_ptr<kv::Backend> backend;
  if (shards > 1) {
    kv::ShardedKv::Options so;
    so.base = fo;
    so.num_shards = shards;
    backend = std::make_unique<kv::ShardedKv>(so);
  } else {
    backend = std::make_unique<kv::FasterBackend>(fo);
  }

  server::KvServerOptions so;
  so.num_workers = workers;
  so.idle_poll_ms = 1;
  so.checkpoint_interval_ms = checkpoint_ms;
  uint64_t phase_base[4];
  for (int i = 0; i < 4; ++i) phase_base[i] = PhaseCounterNs(i);
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
  // Server durable-lag backpressure, published by the monitor thread and fed
  // by each client thread into its own adaptive window (the client object is
  // single-threaded; only the owning thread may call NoteServerDurableLag).
  std::atomic<uint64_t> durable_gate_p99{0};
  std::vector<uint64_t> ops(clients, 0);
  std::vector<uint64_t> peaks(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      client::CprClient::Options co;
      co.port = server.port();
      co.ack_mode = durable ? net::AckMode::kDurable : net::AckMode::kExecuted;
      co.batch = batch;
      co.adaptive_window = batch;  // the batched config is RTT-driven
      co.batch_max_ops =
          static_cast<uint32_t>(EnvU64("CPR_BENCH_BATCH_OPS", 128));
      co.window_min = std::min<uint32_t>(16, pipeline);
      co.window_max = std::max<uint32_t>(pipeline * 16, 1024);
      client::CprClient c(co);
      if (!c.Connect().ok()) return;
      uint64_t last_lag = 0;
      uint64_t rng = 0x9e3779b97f4a7c15ull ^ (t + 1);
      auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      auto enqueue_one = [&] {
        const uint64_t key = next_rand() % keys;
        if (next_rand() % 100 < read_pct) {
          c.EnqueueRead(key);
        } else {
          c.EnqueueRmw(key, 1);
        }
      };
      std::vector<client::CprClient::Result> results;
      if (durable) {
        // Windowed pipelining: top the window up and consume whatever acks
        // have landed, without ever stalling on a checkpoint epoch. Acks
        // arrive in bursts at each checkpoint; the pipeline stays full in
        // between so execution never starves.
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t lag = durable_gate_p99.load(std::memory_order_relaxed);
          if (lag != last_lag) {
            c.NoteServerDurableLag(lag);
            last_lag = lag;
          }
          const size_t depth = batch ? c.target_window() : pipeline;
          while (c.inflight() < depth) enqueue_one();
          if (!c.Flush().ok()) break;
          results.clear();
          size_t processed = 0;
          if (!c.TryDrain(&results, &processed).ok()) break;
          ops[t] += processed;
          if (processed == 0) std::this_thread::yield();
        }
      } else {
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t depth = batch ? c.target_window() : pipeline;
          for (size_t i = 0; i < depth; ++i) enqueue_one();
          if (!c.Flush().ok()) break;
          results.clear();
          if (!c.Drain(&results).ok()) break;
          ops[t] += results.size();
        }
      }
      peaks[t] = c.stats().max_inflight;
      c.Close();
    });
  }

  // Adaptive runs scrape the server's per-op breakdown every ~100ms and
  // publish the durable_gate p99 — the backpressure signal that stops the
  // client windows from growing into a durability stall.
  std::thread monitor;
  if (batch && durable) {
    monitor = std::thread([&] {
      client::CprClient::Options mo;
      mo.port = server.port();
      client::CprClient mc(mo);
      if (!mc.Connect().ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string json;
        if (!mc.ServerBreakdown(&json).ok()) break;
        const uint64_t p99 = ParseDurableGateP99(json);
        if (p99 > 0) {
          durable_gate_p99.store(p99, std::memory_order_relaxed);
        }
        for (int i = 0; i < 100 && !stop.load(std::memory_order_relaxed);
             ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      mc.Close();
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  std::this_thread::sleep_until(deadline);
  stop.store(true);
  for (auto& th : threads) th.join();
  if (monitor.joinable()) monitor.join();

  NetRunResult r;
  for (uint64_t o : ops) r.total_ops += o;
  for (uint64_t p : peaks) r.max_inflight = std::max(r.max_inflight, p);
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;
  r.counters = server.counters();
  for (int i = 0; i < 4; ++i) {
    r.phase_ns[i] = PhaseCounterNs(i) - phase_base[i];
  }
  if (shards > 1) {
    for (uint32_t i = 0; i < backend->num_shards(); ++i) {
      r.shard_ops.push_back(backend->ShardOpCount(i));
    }
    r.rounds = backend->LastCheckpointToken();  // round numbers are 1,2,...
  }
  server.Stop();
  // Sample the stage histograms only after Stop(): every worker has flushed,
  // so the per-stage sums reconcile exactly against the e2e sum.
  for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
    r.stage_hist[i] = HistDelta(StageHist(i)->Sample(), stage_base[i]);
  }
  r.e2e_hist = HistDelta(
      obs::MetricsRegistry::Default().GetHistogram("cpr_req_e2e_ns")->Sample(),
      e2e_base);
  return r;
}

void PrintResult(const char* label, const NetRunResult& r, double seconds) {
  std::printf("  %-22s %10.1f kops/s  (%llu ops)\n", label,
              r.ops_per_sec / 1e3,
              static_cast<unsigned long long>(r.total_ops));
  const auto& c = r.counters;
  std::printf(
      "    counters: conns=%llu reqs=%llu resps=%llu pending=%llu "
      "held=%llu ckpts=%llu stalls=%llu in=%.1fMB out=%.1fMB\n",
      static_cast<unsigned long long>(c.connections_accepted),
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.responses),
      static_cast<unsigned long long>(c.ops_pending),
      static_cast<unsigned long long>(c.durable_held),
      static_cast<unsigned long long>(c.checkpoints),
      static_cast<unsigned long long>(c.checkpoint_stalls),
      static_cast<double>(c.bytes_in) / 1e6,
      static_cast<double>(c.bytes_out) / 1e6);
  std::printf("    peak pipeline depth: %llu\n",
              static_cast<unsigned long long>(r.max_inflight));
  if (c.durable_lag_max_ns > 0) {
    std::printf(
        "    durable lag: p50=%.2fms p99=%.2fms max=%.2fms  "
        "(peak pipeline depth %llu)\n",
        static_cast<double>(c.DurableLagQuantile(0.5)) / 1e6,
        static_cast<double>(c.DurableLagQuantile(0.99)) / 1e6,
        static_cast<double>(c.durable_lag_max_ns) / 1e6,
        static_cast<unsigned long long>(r.max_inflight));
  }
  if (!r.shard_ops.empty()) {
    std::printf("    shards: rounds=%llu (%.1f/s) ops=[",
                static_cast<unsigned long long>(r.rounds),
                static_cast<double>(r.rounds) / seconds);
    for (size_t i = 0; i < r.shard_ops.size(); ++i) {
      std::printf("%s%llu", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(r.shard_ops[i]));
    }
    std::printf("]\n");
  }
  if (c.checkpoints > 0) {
    std::printf("    ckpt phases:");
    for (int i = 0; i < 4; ++i) {
      std::printf(" %s=%.1fms", faster::kCheckpointPhaseNames[i],
                  static_cast<double>(r.phase_ns[i]) / 1e6);
    }
    std::printf("\n");
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
    uint64_t stage_sum = 0;
    for (const auto& h : r.stage_hist) stage_sum += h.sum;
    std::printf("    stage sum=%.1fms vs e2e sum=%.1fms over %llu traced ops\n",
                static_cast<double>(stage_sum) / 1e6,
                static_cast<double>(r.e2e_hist.sum) / 1e6,
                static_cast<unsigned long long>(r.e2e_hist.count));
  }
}

void WriteStatsJson(const char* path, uint32_t shards, uint32_t workers,
                    uint32_t clients, uint32_t pipeline, double seconds,
                    bool batch,
                    const std::vector<std::pair<std::string, NetRunResult>>&
                        runs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"server_kv\",\n  \"shards\": %u,\n"
               "  \"workers\": %u,\n  \"clients\": %u,\n  \"pipeline\": %u,\n"
               "  \"batch\": %s,\n"
               "  \"seconds\": %.3f,\n  \"runs\": [",
               shards, workers, clients, pipeline, batch ? "true" : "false",
               seconds);
  for (size_t i = 0; i < runs.size(); ++i) {
    const NetRunResult& r = runs[i].second;
    const auto& c = r.counters;
    std::fprintf(
        f,
        "%s\n    {\n      \"label\": \"%s\",\n"
        "      \"ops_per_sec\": %.1f,\n      \"total_ops\": %llu,\n"
        "      \"checkpoints\": %llu,\n      \"checkpoint_failures\": %llu,\n"
        "      \"not_durable_acks\": %llu,\n"
        "      \"not_durable_engine\": %llu,\n"
        "      \"not_durable_degraded\": %llu,\n"
        "      \"shard_rounds\": %llu,\n"
        "      \"durable_lag_ns\": {\"p50\": %llu, \"p99\": %llu, "
        "\"max\": %llu},\n"
        "      \"checkpoint_phase_ns\": {",
        i == 0 ? "" : ",", runs[i].first.c_str(), r.ops_per_sec,
        static_cast<unsigned long long>(r.total_ops),
        static_cast<unsigned long long>(c.checkpoints),
        static_cast<unsigned long long>(c.checkpoint_failures),
        static_cast<unsigned long long>(c.not_durable_acks),
        static_cast<unsigned long long>(c.not_durable_engine),
        static_cast<unsigned long long>(c.not_durable_degraded),
        static_cast<unsigned long long>(r.rounds),
        static_cast<unsigned long long>(c.DurableLagQuantile(0.5)),
        static_cast<unsigned long long>(c.DurableLagQuantile(0.99)),
        static_cast<unsigned long long>(c.durable_lag_max_ns));
    for (int p = 0; p < 4; ++p) {
      std::fprintf(f, "%s\"%s\": %llu", p == 0 ? "" : ", ",
                   faster::kCheckpointPhaseNames[p],
                   static_cast<unsigned long long>(r.phase_ns[p]));
    }
    std::fprintf(f, "},\n      \"req_stage_ns\": {");
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
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("  stats json -> %s\n", path);
}

// -- Crash-restart: instant-restart availability ------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RunCrashRestart(uint32_t shards, const char* stats_json) {
  const double scale = EnvF64("CPR_BENCH_SCALE", 1.0);
  const uint64_t keys =
      static_cast<uint64_t>(EnvU64("CPR_BENCH_KEYS", 100'000) * scale);
  const int passes =
      static_cast<int>(EnvU64("CPR_BENCH_RESTART_PASSES", 3));
  const uint32_t workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_WORKERS", 4));
  const uint32_t restore_workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_RESTART_WORKERS", 1));
  if (shards < 2) shards = 32;  // instant restart is about multi-shard restore

  kv::ShardedKv::Options so;
  so.base.dir = FreshBenchDir("restart");
  // Per-shard index sized for keys/shards live keys: restore time is then
  // dominated by log replay (the real data), not fixed index-blob I/O.
  so.base.index_buckets = 1ull << 12;
  so.num_shards = shards;
  // Restore bandwidth deliberately below the shard count: full recovery
  // takes shards/restore_workers rounds while a parked op waits only for
  // its own (demand-prioritized) shard.
  so.recovery_workers = restore_workers;

  PrintHeader("Crash-restart",
              std::to_string(shards) + "-shard store, " +
                  std::to_string(keys) + " keys x " + std::to_string(passes) +
                  " passes preloaded, recovery_workers=" +
                  std::to_string(restore_workers));

  // Preload and pin a checkpoint, then "lose power".
  {
    kv::ShardedKv kv(so);
    kv::Session* s = kv.StartSession(1);
    for (int p = 0; p < passes; ++p) {
      for (uint64_t k = 0; k < keys; ++k) {
        if (kv.Rmw(*s, k, 1) == faster::OpStatus::kPending) {
          kv.CompletePending(*s, true);
        }
        if ((k & 0xfff) == 0) kv.Refresh(*s);
      }
    }
    kv.CompletePending(*s, true);
    uint64_t round = 0;
    if (!kv.Checkpoint(faster::CommitVariant::kFoldOver,
                       /*include_index=*/true, &round)) {
      std::fprintf(stderr, "preload checkpoint failed\n");
      return;
    }
    while (kv.CheckpointInProgress()) {
      kv.CompletePending(*s);
      kv.Refresh(*s);
    }
    if (!kv.WaitForCheckpoint(round).ok()) {
      std::fprintf(stderr, "preload checkpoint did not commit\n");
      return;
    }
    kv.StopSession(s);
  }

  // Restart: the listener comes up immediately; shards restore behind it.
  kv::ShardedKv kv(so);
  server::KvServerOptions svo;
  svo.num_workers = workers;
  svo.idle_poll_ms = 1;
  svo.recover_on_start = true;
  server::KvServer server(&kv, svo);
  const uint64_t t0 = NowNs();
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server restart failed\n");
    return;
  }

  // One client hammers the recovering store with sync RMWs (the sync helpers
  // absorb parked waits and RECOVERING retries); per-window op counts give
  // the client-observed throughput ramp.
  constexpr uint64_t kWindowNs = 5'000'000;  // 5ms
  std::vector<uint64_t> window_ops;
  uint64_t client_first_op_ns = 0;
  uint64_t ops_total = 0;
  {
    client::CprClient::Options co;
    co.port = server.port();
    co.ack_mode = net::AckMode::kExecuted;
    client::CprClient c(co);
    if (!c.Connect().ok()) {
      std::fprintf(stderr, "client connect failed\n");
      return;
    }
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next_rand = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    // Run until well past full recovery so the steady-state rate is visible.
    while (kv.Recovering() || NowNs() - t0 < kWindowNs * 40) {
      if (!c.Rmw(next_rand() % keys, 1).ok()) break;
      const uint64_t now = NowNs();
      if (client_first_op_ns == 0) client_first_op_ns = now - t0;
      const size_t w = static_cast<size_t>((now - t0) / kWindowNs);
      if (window_ops.size() <= w) window_ops.resize(w + 1, 0);
      ++window_ops[w];
      ++ops_total;
    }
    c.Close();
  }

  const auto counters = server.counters();
  const uint64_t ttfo = counters.time_to_first_op_ns;
  const uint64_t ttfr = counters.recovery_duration_ns;
  // Steady state: the top window rate after recovery; full throughput is
  // reached at the end of the first window hitting 80% of it.
  uint64_t steady = 0;
  for (uint64_t w : window_ops) steady = std::max(steady, w);
  uint64_t ttft = 0;
  for (size_t w = 0; w < window_ops.size(); ++w) {
    if (window_ops[w] * 10 >= steady * 8) {
      ttft = (w + 1) * kWindowNs;
      break;
    }
  }

  std::printf("  time-to-first-op:        %8.2f ms  (client-observed %.2f ms)\n",
              static_cast<double>(ttfo) / 1e6,
              static_cast<double>(client_first_op_ns) / 1e6);
  std::printf("  time-to-full-recovery:   %8.2f ms\n",
              static_cast<double>(ttfr) / 1e6);
  std::printf("  time-to-full-throughput: %8.2f ms  (steady %.1f kops/s)\n",
              static_cast<double>(ttft) / 1e6,
              static_cast<double>(steady) * (1e9 / kWindowNs) / 1e3);
  if (ttfo > 0 && ttfr > 0) {
    std::printf("  availability ratio:      %8.1fx  (full-recovery / first-op%s\n",
                static_cast<double>(ttfr) / static_cast<double>(ttfo),
                static_cast<double>(ttfr) >= 5.0 * static_cast<double>(ttfo)
                    ? "; >=5x bar met)"
                    : "; WARNING below the 5x bar)");
  }
  std::printf("  traffic: ops=%llu parked=%llu recovering_rejections=%llu\n",
              static_cast<unsigned long long>(ops_total),
              static_cast<unsigned long long>(counters.ops_parked),
              static_cast<unsigned long long>(counters.recovering_rejections));

  if (stats_json != nullptr) {
    std::FILE* f = std::fopen(stats_json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", stats_json);
    } else {
      std::fprintf(
          f,
          "{\n  \"bench\": \"server_kv_crash_restart\",\n"
          "  \"shards\": %u,\n  \"keys\": %llu,\n  \"passes\": %d,\n"
          "  \"time_to_first_op_ns\": %llu,\n"
          "  \"time_to_first_op_client_ns\": %llu,\n"
          "  \"time_to_full_recovery_ns\": %llu,\n"
          "  \"time_to_full_throughput_ns\": %llu,\n"
          "  \"steady_window_ops\": %llu,\n"
          "  \"ops_total\": %llu,\n  \"ops_parked\": %llu,\n"
          "  \"recovering_rejections\": %llu\n}\n",
          shards, static_cast<unsigned long long>(keys), passes,
          static_cast<unsigned long long>(ttfo),
          static_cast<unsigned long long>(client_first_op_ns),
          static_cast<unsigned long long>(ttfr),
          static_cast<unsigned long long>(ttft),
          static_cast<unsigned long long>(steady),
          static_cast<unsigned long long>(ops_total),
          static_cast<unsigned long long>(counters.ops_parked),
          static_cast<unsigned long long>(counters.recovering_rejections));
      std::fclose(f);
      std::printf("  stats json -> %s\n", stats_json);
    }
  }
  server.Stop();
}

void Run(uint32_t shards, const char* stats_json, bool batch) {
  const double scale = EnvF64("CPR_BENCH_SCALE", 1.0);
  const double seconds = EnvF64("CPR_BENCH_SECONDS", 2.0) * scale;
  const uint64_t keys = EnvU64("CPR_BENCH_KEYS", 100'000);
  const uint32_t workers =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_WORKERS", 4));
  const uint32_t clients =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_CLIENTS", 4));
  const uint32_t pipeline =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_PIPELINE", 64));

  std::string backend_desc =
      shards > 1 ? std::to_string(shards) + "-shard coordinated store"
                 : std::string("single store");
  PrintHeader("Server",
              "KV over loopback TCP, " + backend_desc + ", " +
                  std::to_string(workers) + " workers, " +
                  std::to_string(clients) + " pipelining clients (" +
                  (batch ? "BATCH frames, adaptive window, base depth "
                         : "depth ") +
                  std::to_string(pipeline) + ")");
  std::vector<std::pair<std::string, NetRunResult>> labeled;
  {
    const NetRunResult r = RunNet(workers, clients, pipeline, keys, seconds,
                                  /*read_pct=*/50, /*durable=*/false,
                                  /*checkpoint_ms=*/0, shards, batch);
    PrintResult("50:50 executed-ack", r, seconds);
    if (r.ops_per_sec < 100'000) {
      std::printf("    WARNING: below the 100 kops/s acceptance bar\n");
    }
    labeled.emplace_back("50:50 executed-ack", r);
  }
  {
    const NetRunResult r = RunNet(workers, clients, pipeline, keys, seconds,
                                  /*read_pct=*/0, /*durable=*/false,
                                  /*checkpoint_ms=*/0, shards, batch);
    PrintResult("0:100 executed-ack", r, seconds);
    labeled.emplace_back("0:100 executed-ack", r);
  }
  {
    // Durable acks: responses only flow when a periodic checkpoint covers
    // them. Windowed pipelining keeps execution running across checkpoint
    // epochs; the durable-lag histogram shows what commit-on-ack costs per
    // operation.
    const NetRunResult r = RunNet(workers, clients, pipeline, keys, seconds,
                                  /*read_pct=*/0, /*durable=*/true,
                                  /*checkpoint_ms=*/100, shards, batch);
    PrintResult("0:100 durable-ack", r, seconds);
    labeled.emplace_back("0:100 durable-ack", r);
  }
  if (stats_json != nullptr) {
    WriteStatsJson(stats_json, shards, workers, clients, pipeline, seconds,
                   batch, labeled);
  }
}

}  // namespace
}  // namespace cpr::bench

int main(int argc, char** argv) {
  uint32_t shards =
      static_cast<uint32_t>(cpr::bench::EnvU64("CPR_BENCH_SHARDS", 1));
  const char* stats_json = nullptr;
  bool crash_restart = false;
  bool batch = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const long v = std::atol(argv[i] + 9);
      if (v >= 1) shards = static_cast<uint32_t>(v);
    } else if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_json = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--crash-restart") == 0) {
      crash_restart = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = true;
    }
  }
  if (crash_restart) {
    cpr::bench::RunCrashRestart(shards, stats_json);
  } else {
    cpr::bench::Run(shards, stats_json, batch);
  }
  return 0;
}
