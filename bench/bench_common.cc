#include "bench_common.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/clock.h"
#include "util/random.h"
#include "workloads/tpcc.h"

namespace cpr::bench {

namespace {

void SleepUntil(double start, double offset) {
  const double target = start + offset;
  while (NowSeconds() < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

double EnvF64(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtod(v, nullptr) : def;
}

std::vector<uint32_t> SweepThreads() {
  const uint32_t max_threads =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_THREADS", 4));
  std::vector<uint32_t> sweep;
  for (uint32_t t = 1; t <= max_threads; t *= 2) sweep.push_back(t);
  if (sweep.empty() || sweep.back() != max_threads) {
    sweep.push_back(max_threads);
  }
  return sweep;
}

std::string FreshBenchDir(const std::string& tag) {
  // Pid-qualified so concurrent bench processes (e.g. two crash campaigns
  // in parallel CI lanes on one machine) never rm -rf each other's live
  // durability directories.
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/cpr_bench_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::string cmd = "rm -rf " + dir;
  (void)!system(cmd.c_str());
  return dir;
}

// -- Transactional database --------------------------------------------------

TxdbRunResult RunTxdb(const TxdbRunConfig& config) {
  txdb::TransactionalDb::Options opts;
  opts.mode = config.mode;
  opts.durability_dir = FreshBenchDir("txdb");
  opts.max_threads = config.threads + 2;
  txdb::TransactionalDb db(opts);

  std::unique_ptr<workloads::TpccWorkload> tpcc;
  uint32_t ycsb_table = 0;
  if (config.tpcc) {
    workloads::TpccConfig tc;
    tc.num_warehouses = config.tpcc_warehouses;
    tpcc = std::make_unique<workloads::TpccWorkload>(&db, tc);
  } else {
    ycsb_table =
        db.CreateTable(config.ycsb.num_keys, config.ycsb.value_size);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<HistogramData> latencies(config.threads);
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  for (uint32_t t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      txdb::ThreadContext* ctx = db.RegisterThread();
      workloads::YcsbGenerator gen(config.ycsb, t + 1);
      Rng rng(1000 + t);
      std::vector<char> write_value(
          config.tpcc ? 8 : config.ycsb.value_size, static_cast<char>(t));
      txdb::Transaction txn;
      HistogramData& lat = latencies[t];
      uint32_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (config.tpcc) {
          tpcc->MakeTransaction(rng, config.tpcc_payment_pct, &txn);
        } else {
          gen.FillTransaction(ycsb_table, write_value.data(), &txn);
        }
        if ((n & 0xf) == 0 && measuring.load(std::memory_order_relaxed)) {
          const uint64_t t0 = NowNanos();
          db.Execute(*ctx, txn);
          lat.Add(NowNanos() - t0);
        } else {
          db.Execute(*ctx, txn);
        }
        if (++n % 64 == 0) db.Refresh(*ctx);
      }
      // Keep the epoch advancing until every in-flight commit can finish.
      while (db.CommitInProgress()) db.Refresh(*ctx);
      db.DeregisterThread(ctx);
    });
  }

  const double t_warm_start = NowSeconds();
  SleepUntil(t_warm_start, config.warmup_seconds);

  // Measurement window.
  TxdbRunResult result;
  const uint64_t committed_at_start = db.TotalCommitted();
  BreakdownCounters counters_at_start = db.AggregateCounters();
  measuring.store(true);
  const double t0 = NowSeconds();

  size_t next_commit = 0;
  double next_sample = config.sample_interval;
  uint64_t last_committed = committed_at_start;
  double last_t = t0;
  while (NowSeconds() - t0 < config.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double now = NowSeconds();
    if (next_commit < config.commit_at.size() &&
        now - t0 >= config.commit_at[next_commit]) {
      db.RequestCommit();
      ++next_commit;
    }
    if (config.sample_interval > 0 && now - t0 >= next_sample) {
      const uint64_t c = db.TotalCommitted();
      TimePoint p;
      p.t = now - t0;
      p.mtps = static_cast<double>(c - last_committed) / (now - last_t) / 1e6;
      result.series.push_back(p);
      last_committed = c;
      last_t = now;
      next_sample += config.sample_interval;
    }
  }
  const double elapsed = NowSeconds() - t0;
  const uint64_t committed_at_end = db.TotalCommitted();
  measuring.store(false);
  stop.store(true);
  for (auto& w : workers) w.join();

  BreakdownCounters counters_at_end = db.AggregateCounters();
  result.committed = committed_at_end - committed_at_start;
  result.mtps = static_cast<double>(result.committed) / elapsed / 1e6;
  result.breakdown = counters_at_end;
  result.breakdown.exec_ns -= counters_at_start.exec_ns;
  result.breakdown.tail_contention_ns -= counters_at_start.tail_contention_ns;
  result.breakdown.log_write_ns -= counters_at_start.log_write_ns;
  result.breakdown.abort_ns -= counters_at_start.abort_ns;
  result.breakdown.committed_txns -= counters_at_start.committed_txns;
  result.breakdown.aborted_txns -= counters_at_start.aborted_txns;
  result.aborted = result.breakdown.aborted_txns;
  HistogramData all;
  for (const HistogramData& h : latencies) all.Merge(h);
  result.mean_latency_us = all.Mean() / 1000.0;
  result.p99_latency_us = static_cast<double>(all.Quantile(0.99)) / 1000.0;
  return result;
}

// -- FASTER -------------------------------------------------------------------

FasterRunResult RunFaster(const FasterRunConfig& config) {
  faster::FasterKv::Options opts;
  opts.dir = FreshBenchDir("faster");
  opts.value_size = config.value_size;
  opts.index_buckets = std::max<uint64_t>(1024, config.num_keys / 2);
  opts.page_bits = config.page_bits;
  opts.memory_pages = config.memory_pages;
  opts.locking = config.locking;
  opts.refresh_interval = config.refresh_interval;
  faster::FasterKv kv(opts);

  // Pre-load the keyspace (paper: threads first load the store).
  {
    faster::Session* s = kv.StartSession();
    std::vector<char> value(config.value_size, 1);
    for (uint64_t k = 0; k < config.num_keys; ++k) {
      kv.Upsert(*s, k, value.data());
    }
    kv.CompletePending(*s, true);
    kv.StopSession(s);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<uint64_t> ops_done(config.threads * 8, 0);  // padded slots
  std::vector<HistogramData> lat_rest(config.threads);
  std::vector<HistogramData> lat_commit(config.threads);
  workloads::YcsbConfig ycsb;
  ycsb.num_keys = config.num_keys;
  ycsb.distribution = config.zipf ? workloads::KeyDistribution::kZipfian
                                  : workloads::KeyDistribution::kUniform;
  ycsb.theta = config.theta;
  ycsb.read_pct = config.read_pct;

  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  for (uint32_t t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      faster::Session* s = kv.StartSession();
      workloads::YcsbGenerator gen(ycsb, t + 1);
      std::vector<char> value(config.value_size, static_cast<char>(t + 1));
      std::vector<char> read_buf(config.value_size);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = gen.NextKey();
        const bool is_read = gen.NextIsRead();
        const bool sample = config.track_latency && (n & 0xf) == 0 &&
                            measuring.load(std::memory_order_relaxed);
        const uint64_t t0 = sample ? NowNanos() : 0;
        const bool in_commit = sample && kv.CheckpointInProgress();
        faster::OpStatus st;
        if (is_read) {
          st = kv.Read(*s, key, read_buf.data());
        } else if (config.rmw) {
          st = kv.Rmw(*s, key, 1);
        } else {
          st = kv.Upsert(*s, key, value.data());
        }
        if (sample) {
          // A sampled operation that went pending is driven to completion
          // so its latency includes the CPR hand-off / fuzzy-region wait
          // (this is what Fig. 14 measures).
          if (st == faster::OpStatus::kPending) {
            kv.CompletePending(*s, /*wait_for_all=*/true);
          }
          const uint64_t ns = NowNanos() - t0;
          if (in_commit) {
            lat_commit[t].Add(ns);
          } else {
            lat_rest[t].Add(ns);
          }
        }
        if (++n % 256 == 0) kv.CompletePending(*s);
        ops_done[t * 8] = n;
      }
      kv.CompletePending(*s, true);
      while (kv.CheckpointInProgress()) kv.Refresh(*s);
      kv.StopSession(s);
    });
  }

  auto total_ops = [&] {
    uint64_t sum = 0;
    for (uint32_t t = 0; t < config.threads; ++t) sum += ops_done[t * 8];
    return sum;
  };

  const double warm = 0.3;
  SleepUntil(NowSeconds(), warm);

  FasterRunResult result;
  measuring.store(true);
  const double t0 = NowSeconds();
  const uint64_t ops_at_start = total_ops();
  uint64_t last_ops = ops_at_start;
  double last_t = t0;
  double next_sample = config.sample_interval;
  size_t next_commit = 0;
  double commit_started_at = 0;
  bool commit_running = false;

  while (NowSeconds() - t0 < config.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double now = NowSeconds();
    if (commit_running && !kv.CheckpointInProgress()) {
      result.commit_durations_s.push_back(now - commit_started_at);
      commit_running = false;
    }
    if (next_commit < config.commits.size() &&
        now - t0 >= config.commits[next_commit].at) {
      const FasterCommitMark& mark = config.commits[next_commit];
      if (kv.Checkpoint(mark.variant, mark.include_index)) {
        commit_started_at = now;
        commit_running = true;
        ++next_commit;
      }
    }
    if (config.sample_interval > 0 && now - t0 >= next_sample) {
      const uint64_t ops = total_ops();
      TimePoint p;
      p.t = now - t0;
      p.mtps = static_cast<double>(ops - last_ops) / (now - last_t) / 1e6;
      p.log_mb = static_cast<double>(kv.LogBytes()) / (1 << 20);
      result.series.push_back(p);
      last_ops = ops;
      last_t = now;
      next_sample += config.sample_interval;
    }
  }
  const double elapsed = NowSeconds() - t0;
  const uint64_t ops_at_end = total_ops();
  measuring.store(false);
  stop.store(true);
  for (auto& w : workers) w.join();
  if (commit_running) {
    result.commit_durations_s.push_back(NowSeconds() - commit_started_at);
  }

  result.total_ops = ops_at_end - ops_at_start;
  result.mops = static_cast<double>(result.total_ops) / elapsed / 1e6;
  HistogramData rest, commit;
  for (const HistogramData& h : lat_rest) rest.Merge(h);
  for (const HistogramData& h : lat_commit) commit.Merge(h);
  result.rest_mean_us = rest.Mean() / 1000.0;
  result.rest_p99_us = static_cast<double>(rest.Quantile(0.99)) / 1000.0;
  result.commit_mean_us = commit.Mean() / 1000.0;
  result.commit_p99_us =
      static_cast<double>(commit.Quantile(0.99)) / 1000.0;
  return result;
}

// -- Output -------------------------------------------------------------------

void PrintHeader(const std::string& figure, const std::string& what) {
  std::printf("\n=== %s — %s ===\n", figure.c_str(), what.c_str());
  std::printf(
      "(scaled-down defaults; override with CPR_BENCH_THREADS / "
      "CPR_BENCH_KEYS / CPR_BENCH_SCALE)\n");
}

void PrintSeries(const std::string& label, const std::vector<TimePoint>& pts,
                 bool with_log_size) {
  std::printf("%s\n", label.c_str());
  for (const TimePoint& p : pts) {
    if (with_log_size) {
      std::printf("  t=%5.1fs  %8.3f Mops/s  log=%7.2f MB\n", p.t, p.mtps,
                  p.log_mb);
    } else {
      std::printf("  t=%5.1fs  %8.3f M/s\n", p.t, p.mtps);
    }
  }
}

}  // namespace cpr::bench
