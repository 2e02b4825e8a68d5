#ifndef CPR_BENCH_BENCH_COMMON_H_
#define CPR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "faster/faster.h"
#include "txdb/db.h"
#include "util/sharded_histogram.h"
#include "util/instrumentation.h"
#include "workloads/ycsb.h"

namespace cpr::bench {

// -- Environment-tunable parameters -----------------------------------------
//
// Every bench binary reads its scale knobs from the environment so the
// paper-scale experiment (250M keys, 64 threads, 100+ second runs) can be
// requested on bigger hardware:
//   CPR_BENCH_THREADS      max worker threads (default 4)
//   CPR_BENCH_KEYS         table/keyspace size (default 100000)
//   CPR_BENCH_SECONDS      measured seconds per run (default varies)
//   CPR_BENCH_SCALE        multiplies run durations (default 1.0)

uint64_t EnvU64(const char* name, uint64_t def);
double EnvF64(const char* name, double def);

// Thread counts for scalability sweeps: 1,2,4,...,CPR_BENCH_THREADS.
std::vector<uint32_t> SweepThreads();

// Fresh scratch directory under /tmp for a bench run.
std::string FreshBenchDir(const std::string& tag);

// -- Transactional-database runner (Figs. 2, 10, 11, 16, 17) ---------------

struct TimePoint {
  double t = 0;       // seconds since measurement start
  double mtps = 0;    // million committed txns/sec in this interval
  double log_mb = 0;  // durability log size, where applicable
};

struct TxdbRunConfig {
  txdb::DurabilityMode mode = txdb::DurabilityMode::kCpr;
  uint32_t threads = 4;
  workloads::YcsbConfig ycsb;
  double seconds = 1.0;
  double warmup_seconds = 0.2;
  // Commit requests at these times (seconds into measurement).
  std::vector<double> commit_at;
  // >0: record a throughput sample every interval.
  double sample_interval = 0;
  // Use the TPC-C workload instead of YCSB (payment_pct then applies).
  bool tpcc = false;
  uint32_t tpcc_payment_pct = 50;
  uint32_t tpcc_warehouses = 4;
};

struct TxdbRunResult {
  double mtps = 0;             // committed throughput over the measured window
  double mean_latency_us = 0;  // sampled per-txn latency
  double p99_latency_us = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  BreakdownCounters breakdown;
  std::vector<TimePoint> series;
};

TxdbRunResult RunTxdb(const TxdbRunConfig& config);

// -- FASTER runner (Figs. 12, 13, 14, 15, 18) --------------------------------

struct FasterCommitMark {
  double at = 0;  // seconds into measurement
  faster::CommitVariant variant = faster::CommitVariant::kFoldOver;
  bool include_index = true;
};

struct FasterRunConfig {
  uint32_t threads = 4;
  uint64_t num_keys = 100'000;
  uint32_t value_size = 8;
  bool zipf = true;
  double theta = 0.99;
  uint32_t read_pct = 50;  // remainder: blind upserts
  bool rmw = false;        // true: all updates are RMW (paper's 0:100 RMW)
  double seconds = 5.0;
  double sample_interval = 0.5;
  std::vector<FasterCommitMark> commits;
  faster::CheckpointLocking locking =
      faster::CheckpointLocking::kFineGrained;
  uint32_t page_bits = 20;
  uint32_t memory_pages = 48;
  uint32_t refresh_interval = 64;
  bool track_latency = false;
};

struct FasterRunResult {
  double mops = 0;  // million ops/sec over the measured window
  uint64_t total_ops = 0;
  // Operation latencies sampled separately while the store is at rest and
  // while a CPR commit is in flight (Fig. 14's contrast).
  double rest_mean_us = 0;
  double rest_p99_us = 0;
  double commit_mean_us = 0;
  double commit_p99_us = 0;
  std::vector<TimePoint> series;           // throughput (+ log MB) over time
  std::vector<double> commit_durations_s;  // wall time of each commit
};

FasterRunResult RunFaster(const FasterRunConfig& config);

// -- Output helpers ----------------------------------------------------------

void PrintHeader(const std::string& figure, const std::string& what);
void PrintSeries(const std::string& label, const std::vector<TimePoint>& pts,
                 bool with_log_size = false);

}  // namespace cpr::bench

#endif  // CPR_BENCH_BENCH_COMMON_H_
