// perfbench: end-to-end and per-layer benchmark of the CPR serving stack.
//
// One process serves an in-process server::KvServer over loopback and
// drives it with client::CprClient sessions: closed loops, each with a
// fixed window of ops in flight. README.md explains the workloads and the
// metrics; run.py builds this binary and is the command to run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--rev REV] [--out-dir DIR] [--data-dir DIR]
//
// --trace 0 prints the end-to-end metrics (no timing inside the stack).
// --trace 1 runs the workload twice for half of --seconds each, untraced
// and then with a timing kv::Backend decorator, and prints the per-layer
// metrics plus the tracing overhead; it also writes a Chrome trace JSON
// into --out-dir.
// The last stdout line is always one JSON object; the exit code is nonzero
// when a correctness check failed.

#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "server/server.h"
#include "shard/faster_backend.h"
#include "shard/sharded_kv.h"
#include "stats.h"
#include "timed_backend.h"
#include "txdb/txdb_backend.h"
#include "util/clock.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
constexpr const char* kCompiler = "clang";
#else
constexpr const char* kCompiler = "gcc";
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = cpr::net;
using cpr::NowNanos;
using cpr::client::CprClient;

// ---------------------------------------------------------------------------
// Workloads. README.md records why each exists and what it should expose.

enum class Kind { kKvExecHot, kKvDurableSharded, kTxnBank };

struct Workload {
  const char* name;
  Kind kind;
  uint32_t window;         // ops in flight per session (closed loop)
  uint64_t keys;           // KV keys, or bank rows
  bool durable_ack;        // ack only once a checkpoint covers the op
  uint32_t checkpoint_ms;  // server's periodic checkpoints (0: none)
  double zipf_theta;       // 0: uniform keys
  uint64_t warmup_acks;    // per session, counted into setup
};

// 2 server workers + 2 load threads with one connection each = nproc (4).
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kSessions = 2;
// An untraced run sets up this many times, timing each set-up for an equal
// share of --seconds; setup_s is their median.
constexpr uint32_t kSetups = 5;
// Timed windows are cut into slices of this length (or the whole window,
// if shorter). Ack percentiles are medians over each session's slices, so
// a sub-second stall of the machine moves one slice, not the run.
constexpr uint64_t kSliceNs = 1'000'000'000;
// Backend and client spans are kept for serials divisible by this (the
// self-time join); the Chrome trace keeps every kChromeEvery-th serial.
constexpr uint64_t kSpanEvery = 16;
constexpr uint64_t kChromeEvery = 1024;
constexpr int64_t kOpeningBalance = 1000;
constexpr uint32_t kLoaderWindow = 1024;

// kv_exec_hot: 100k keys x 24-byte records = 2.4 MiB, inside the 4 MiB
// mutable tail (ro_lag_pages 4 x 1 MiB pages) of a 32 MiB in-memory log.
// kv_durable_sharded: 262144 keys x 24 B = 6 MiB in 4 shards x 8 MiB of
// in-memory log. It is not made larger than memory because reads of keys
// whose hash chain continues on disk past a colliding key never complete
// (README.md, "Known defect").
constexpr uint32_t kHotPageBits = 20, kHotMemoryPages = 32;
constexpr uint32_t kShardPageBits = 20, kShardMemoryPages = 8, kShards = 4;

constexpr Workload kWorkloads[] = {
    {"kv_exec_hot", Kind::kKvExecHot, 64, 100'000, false, 0, 0.99, 50'000},
    {"kv_durable_sharded", Kind::kKvDurableSharded, 256, 262'144, true, 100, 0,
     512},
    {"txn_bank_ckpt", Kind::kTxnBank, 64, 65'536, false, 1000, 0, 20'000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t MemoryBudgetBytes(const Workload& w) {
  switch (w.kind) {
    case Kind::kKvExecHot:
      return uint64_t{kHotMemoryPages} << kHotPageBits;
    case Kind::kKvDurableSharded:
      return uint64_t{kShards} * kShardMemoryPages << kShardPageBits;
    case Kind::kTxnBank:
      return w.keys * 8;  // the table lives in memory
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Store and server.

struct Store {
  std::unique_ptr<cpr::kv::Backend> backend;
  std::unique_ptr<TimedBackend> timed;  // traced runs only
  cpr::kv::Backend* served() const {
    return timed ? static_cast<cpr::kv::Backend*>(timed.get()) : backend.get();
  }
};

Store MakeStore(const Workload& w, const std::string& dir, bool traced) {
  Store s;
  // sync_to_disk stays false everywhere (the FasterKv and txdb default):
  // writes reach the page cache, so latencies are the machine's, not a
  // device's.
  cpr::faster::FasterKv::Options fo;
  fo.dir = dir;
  fo.value_size = 8;
  fo.sync_to_disk = false;
  switch (w.kind) {
    case Kind::kKvExecHot:
      fo.page_bits = kHotPageBits;
      fo.memory_pages = kHotMemoryPages;
      s.backend = std::make_unique<cpr::kv::FasterBackend>(fo);
      break;
    case Kind::kKvDurableSharded: {
      fo.page_bits = kShardPageBits;
      fo.memory_pages = kShardMemoryPages;
      cpr::kv::ShardedKv::Options so;
      so.base = fo;
      so.num_shards = kShards;
      s.backend = std::make_unique<cpr::kv::ShardedKv>(so);
      break;
    }
    case Kind::kTxnBank: {
      cpr::txdb::TxDbBackend::Options to;
      to.db.durability_dir = dir;
      to.db.sync_to_disk = false;
      to.db.mode = cpr::txdb::DurabilityMode::kCpr;
      to.tables = {cpr::txdb::TxDbBackend::TableSpec{w.keys, 8}};
      s.backend = std::make_unique<cpr::txdb::TxDbBackend>(std::move(to));
      break;
    }
  }
  if (traced) {
    s.timed = std::make_unique<TimedBackend>(s.backend.get(), kSpanEvery);
  }
  return s;
}

cpr::server::KvServerOptions ServerOptions(const Workload& w) {
  cpr::server::KvServerOptions o;
  o.num_workers = kWorkers;
  o.checkpoint_interval_ms = w.checkpoint_ms;
  return o;
}

// ---------------------------------------------------------------------------
// Loader: preload and verification traffic on its own executed-ack session.

int64_t ValueOf(const CprClient::Result& r) {
  int64_t v = 0;
  if (r.value.size() >= sizeof(v)) std::memcpy(&v, r.value.data(), sizeof(v));
  return v;
}

// Issues n ops through a pipelined window; `on_result` sees every result.
// False (with `error` set) on a transport failure or a non-OK status.
bool RunLoader(uint16_t port, uint64_t n,
               const std::function<void(CprClient&, uint64_t)>& enqueue,
               const std::function<void(const CprClient::Result&)>& on_result,
               std::string* error) {
  CprClient::Options co;
  co.port = port;
  co.track_replay = false;
  CprClient c(co);
  cpr::Status s = c.Connect();
  uint64_t next = 0;
  std::vector<CprClient::Result> results;
  while (s.ok() && (next < n || c.inflight() > 0)) {
    while (next < n && c.inflight() < kLoaderWindow) enqueue(c, next++);
    s = c.Flush();
    results.clear();
    if (s.ok()) s = c.Drain(&results, c.inflight() / 2 + 1);
    for (const auto& r : results) {
      if (r.status != net::WireStatus::kOk) {
        *error = "loader op answered status " +
                 std::to_string(static_cast<int>(r.status));
        return false;
      }
      on_result(r);
    }
  }
  if (!s.ok()) *error = "loader: " + s.ToString();
  c.Close();
  return s.ok();
}

int64_t PreloadValue(const Workload& w) {
  return w.kind == Kind::kTxnBank ? kOpeningBalance : 0;
}

bool Preload(const Workload& w, uint16_t port, std::string* error) {
  const int64_t value = PreloadValue(w);
  return RunLoader(
      port, w.keys,
      [&](CprClient& c, uint64_t i) { c.EnqueueUpsert(i, &value); },
      [](const CprClient::Result&) {}, error);
}

// Sum of every key's (or row's) value, read back over the wire.
bool SumValues(const Workload& w, uint16_t port, int64_t* sum,
               std::string* error) {
  *sum = 0;
  return RunLoader(
      port, w.keys, [](CprClient& c, uint64_t i) { c.EnqueueRead(i); },
      [&](const CprClient::Result& r) { *sum += ValueOf(r); }, error);
}

// ---------------------------------------------------------------------------
// Load sessions.

struct ClientSpan {
  uint64_t guid = 0, serial = 0, flush_ns = 0, ack_ns = 0;
  uint32_t session = 0;
  char op = 'r';
};

// One session's ack percentiles in one slice of a timed window.
struct SliceFigures {
  Quantile p50, p99;  // ns
};

struct SessionResult {
  std::string error;
  uint64_t guid = 0;
  // Whole session (warm-up, timed window and final drain).
  uint64_t attempted = 0, failed = 0, conflicts = 0;
  uint64_t rmw_ok = 0;            // KV sum check
  uint64_t max_update_serial = 0; // durable check
  uint64_t final_commit_point = 0;
  // Acks observed inside the timed window, and per slice of it (the last
  // slice may be partial).
  uint64_t ok_in_window = 0, updates_in_window = 0;
  std::vector<SliceFigures> slices;
  // Client-layer timers, timed window only.
  uint64_t flushes = 0, flush_ns = 0, ops_flushed = 0;
  uint64_t drains = 0, drain_ns = 0, trydrains = 0, trydrain_ns = 0;
  uint64_t max_inflight = 0;
  std::vector<ClientSpan> spans;  // traced runs only
};

// Run phases, published by the main thread. Times are NowNanos().
struct Phase {
  uint64_t slice_ns = 0;  // set before the sessions start
  std::atomic<uint64_t> t0{UINT64_MAX};  // timed window start
  std::atomic<uint64_t> t1{UINT64_MAX};  // timed window end; sessions stop
  std::atomic<uint32_t> warmed{0};       // sessions past their warm-up
};

struct PendingOp {
  uint64_t flush_ns = 0;
  char op = 'r';  // r(ead) m(rmw) t(xn read-only) x(txn transfer)
};

class OpSource {
 public:
  OpSource(const Workload& w, uint64_t seed, uint32_t session,
           cpr::ZipfianGenerator* zipf)
      : w_(w), rng_(seed * 0x9E3779B97F4A7C15ULL + session + 1), zipf_(zipf) {}

  // Enqueues the next op and returns its kind.
  char Next(CprClient& c) {
    if (w_.kind == Kind::kTxnBank) return NextTxn(c);
    const uint64_t key =
        zipf_ != nullptr ? cpr::ScrambleKey(zipf_->Next(rng_), w_.keys)
                         : rng_.Uniform(w_.keys);
    if (rng_.Uniform(2) == 0) {
      c.EnqueueRead(key);
      return 'r';
    }
    c.EnqueueRmw(key, 1);
    return 'm';
  }

 private:
  // Half read-only (4 reads), half transfers: 4 adds summing to zero, over
  // 4 distinct uniform rows.
  char NextTxn(CprClient& c) {
    uint64_t rows[4];
    for (int i = 0; i < 4; ++i) {
      bool dup = true;
      while (dup) {
        rows[i] = rng_.Uniform(w_.keys);
        dup = std::find(rows, rows + i, rows[i]) != rows + i;
      }
    }
    const bool transfer = rng_.Uniform(2) == 0;
    ops_.assign(4, net::TxnWireOp{});
    int64_t total = 0;
    for (int i = 0; i < 4; ++i) {
      ops_[i].row = rows[i];
      if (!transfer) continue;
      ops_[i].kind = net::TxnOpKind::kAdd;
      ops_[i].delta =
          i < 3 ? static_cast<int64_t>(rng_.Uniform(201)) - 100 : -total;
      total += ops_[i].delta;
    }
    c.EnqueueTxn(ops_);
    return transfer ? 'x' : 't';
  }

  const Workload& w_;
  cpr::Rng rng_;
  cpr::ZipfianGenerator* zipf_;  // Next() only reads it: shared by sessions
  std::vector<net::TxnWireOp> ops_;
};

bool IsUpdate(char op) { return op == 'm' || op == 'x'; }

void SessionMain(const Workload& w, uint16_t port, uint64_t seed,
                 uint32_t session, bool traced,
                 cpr::ZipfianGenerator* zipf, Phase& phase,
                 SessionResult& out) {
  CprClient::Options co;
  co.port = port;
  co.ack_mode = w.durable_ack ? net::AckMode::kDurable : net::AckMode::kExecuted;
  // The replay buffer is pruned only by durable acks; an executed-ack
  // session that never reconnects would grow it by one request per op.
  co.track_replay = w.durable_ack;
  CprClient c(co);
  bool warm = false;
  auto mark_warm = [&] {
    if (!warm) phase.warmed.fetch_add(1);
    warm = true;
  };
  cpr::Status s = c.Connect();
  out.guid = c.guid();
  OpSource source(w, seed, session, zipf);
  std::deque<PendingOp> fifo;
  std::vector<CprClient::Result> results;
  uint64_t acks = 0;
  ExactLatency slice_ack;  // acks of the current slice, out.slices.size()
  auto close_slice = [&] {
    out.slices.push_back(SliceFigures{slice_ack.At(0.50), slice_ack.At(0.99)});
    slice_ack.Reset();
  };

  auto account = [&](const CprClient::Result& r, uint64_t now) {
    const PendingOp p = fifo.front();
    fifo.pop_front();
    ++out.attempted;
    ++acks;
    const uint64_t t0 = phase.t0.load(std::memory_order_relaxed);
    const bool in_window =
        now >= t0 && now <= phase.t1.load(std::memory_order_relaxed);
    if (r.status == net::WireStatus::kTxnConflict) {
      ++out.conflicts;
      return;
    }
    if (r.status != net::WireStatus::kOk) {
      ++out.failed;
      return;
    }
    if (p.op == 'm') ++out.rmw_ok;
    if (IsUpdate(p.op)) {
      out.max_update_serial = std::max(out.max_update_serial, r.serial);
    }
    if (!in_window) return;
    ++out.ok_in_window;
    if (IsUpdate(p.op)) ++out.updates_in_window;
    while (out.slices.size() < (now - t0) / phase.slice_ns) close_slice();
    slice_ack.Add(now - p.flush_ns);
    if (traced && r.serial % kSpanEvery == 0) {
      out.spans.push_back(
          ClientSpan{out.guid, r.serial, p.flush_ns, now, session, p.op});
    }
  };

  while (s.ok()) {
    const uint64_t t1 = phase.t1.load(std::memory_order_relaxed);
    size_t fresh = 0;
    while (c.inflight() < w.window) {
      fifo.push_back(PendingOp{0, source.Next(c)});
      ++fresh;
    }
    const uint64_t f0 = NowNanos();
    s = c.Flush();
    const uint64_t f1 = NowNanos();
    for (size_t i = fifo.size() - fresh; i < fifo.size(); ++i) {
      fifo[i].flush_ns = f0;
    }
    results.clear();
    if (s.ok()) s = c.Drain(&results, 1);
    const uint64_t d1 = NowNanos();
    if (s.ok()) s = c.TryDrain(&results);
    const uint64_t now = NowNanos();
    if (f0 >= phase.t0.load(std::memory_order_relaxed) && now <= t1) {
      ++out.flushes;
      out.flush_ns += f1 - f0;
      out.ops_flushed += fresh;
      ++out.drains;
      out.drain_ns += d1 - f1;
      ++out.trydrains;
      out.trydrain_ns += now - d1;
    }
    for (const auto& r : results) account(r, now);
    if (acks >= w.warmup_acks) mark_warm();
    if (now >= t1) break;
  }
  // Final drain: every op sent gets its answer before the checks run.
  if (s.ok() && c.inflight() > 0) {
    results.clear();
    s = c.Drain(&results);
    const uint64_t now = NowNanos();
    for (const auto& r : results) account(r, now);
  }
  close_slice();
  if (s.ok() && w.durable_ack) s = c.CommitPoint(&out.final_commit_point);
  if (!s.ok()) {
    out.error = "session " + std::to_string(session) + ": " + s.ToString();
    out.failed += fifo.size();  // dropped
    out.attempted += fifo.size();
  }
  out.max_inflight = c.stats().max_inflight;
  c.Close();
  mark_warm();  // never leave the main thread waiting on a failed session
}

// ---------------------------------------------------------------------------
// Readings taken around the timed window from outside the program.

const char* const kFasterPhases[] = {"prepare", "in_progress", "wait_pending",
                                     "wait_flush"};
const char* const kTxdbPhases[] = {"prepare", "in_progress", "wait_flush"};

std::vector<std::string> RegistryCounterNames() {
  std::vector<std::string> names = {
      "cpr_faster_checkpoints_started_total",
      "cpr_faster_checkpoint_failures_total", "cpr_shard_rounds_total",
      "cpr_txdb_commits_started_total", "cpr_io_jobs_total"};
  for (const char* p : kFasterPhases) {
    names.push_back(std::string("cpr_faster_checkpoint_phase_ns_total{phase=\"") +
                    p + "\"}");
  }
  for (const char* p : kTxdbPhases) {
    names.push_back(std::string("cpr_txdb_commit_phase_ns_total{phase=\"") +
                    p + "\"}");
  }
  return names;
}

std::vector<std::string> RegistryHistogramNames() {
  std::vector<std::string> names = {"cpr_io_job_ns"};
  for (const char* st : cpr::obs::kReqStageNames) {
    names.push_back(std::string("cpr_req_stage_ns{stage=\"") + st + "\"}");
  }
  return names;
}

struct Reading {
  cpr::ServerCounters::Snapshot server{};
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> hists;  // sum, count
  std::vector<uint64_t> shard_ops;
  uint64_t wchar = 0;  // bytes this process passed to write(2)/pwrite(2)
};

uint64_t ProcIoWchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

Reading TakeReading(const cpr::server::KvServer& server,
                    const cpr::kv::Backend& backend) {
  Reading r;
  auto& reg = cpr::obs::MetricsRegistry::Default();
  for (const auto& n : RegistryCounterNames()) {
    r.counters[n] = static_cast<double>(reg.GetCounter(n)->Value());
  }
  for (const auto& n : RegistryHistogramNames()) {
    const cpr::HistogramData d = reg.GetHistogram(n)->Sample();
    r.hists[n] = {static_cast<double>(d.sum), static_cast<double>(d.count)};
  }
  for (uint32_t i = 0; i < backend.num_shards(); ++i) {
    r.shard_ops.push_back(backend.ShardOpCount(i));
  }
  r.server = server.counters();
  r.wchar = ProcIoWchar();
  return r;
}

double DirBytes(const std::string& dir) {
  std::error_code ec;
  double bytes = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += static_cast<double>(it->file_size(ec));
  }
  return bytes;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// One measured run: `setups` complete set-ups, each timed for an equal share
// of the run and checked. Each set-up has a fresh store, server and
// threads.

double MedianOf(std::vector<double> v) { return ExactQuantile(v, 0.5).value; }

struct RunResult {
  std::vector<std::string> problems;  // failed correctness checks
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;  // per set-up, over its whole window
  // Each session's ack percentiles (ns) in each full slice of every
  // set-up's timed window.
  std::vector<Quantile> slice_p50, slice_p99;
  std::vector<SessionResult> sessions;  // every set-up's sessions
  // VmHWM through the first set-up: a fresh process serving one store.
  // Later set-ups run in threads' malloc arenas that earlier ones grew.
  double peak_rss_mb = 0;
  // The last set-up's window, for the per-layer readings (traced runs
  // have one set-up).
  uint64_t t0 = 0, t1 = 0;
  Reading before, after;
  double store_bytes_end = 0;
  CallLog calls;                                // traced runs only
  std::vector<cpr::obs::TraceSpan> ckpt_spans;  // inside the window

  uint64_t Sum(uint64_t SessionResult::*field) const {
    uint64_t total = 0;
    for (const auto& s : sessions) total += s.*field;
    return total;
  }
};

// The state must account for exactly the acked work of `sessions`.
void CheckState(const Workload& w, uint16_t port,
                const std::vector<SessionResult>& sessions,
                std::vector<std::string>* problems) {
  int64_t sum = 0;
  std::string error;
  if (!SumValues(w, port, &sum, &error)) {
    problems->push_back("verify: " + error);
    return;
  }
  int64_t want = static_cast<int64_t>(w.keys) * kOpeningBalance;
  if (w.kind != Kind::kTxnBank) {
    want = 0;
    for (const auto& s : sessions) want += static_cast<int64_t>(s.rmw_ok);
  }
  if (sum != want) {
    problems->push_back("sum of values " + std::to_string(sum) +
                        " != expected " + std::to_string(want));
  }
  if (!w.durable_ack) return;
  for (const auto& s : sessions) {
    if (s.max_update_serial > s.final_commit_point) {
      problems->push_back("durable ack serial " +
                          std::to_string(s.max_update_serial) +
                          " beyond commit point " +
                          std::to_string(s.final_commit_point));
    }
  }
}

RunResult RunWorkload(const Workload& w, uint64_t seed, double seconds,
                      bool traced, uint32_t setups,
                      const std::string& data_dir) {
  RunResult res;
  std::unique_ptr<cpr::ZipfianGenerator> zipf;
  if (w.zipf_theta > 0) {
    // Built once per process: its O(keys) table is input generation, not
    // set-up of the system under test.
    zipf = std::make_unique<cpr::ZipfianGenerator>(w.keys, w.zipf_theta);
  }
  const auto window =
      std::chrono::nanoseconds(static_cast<int64_t>(seconds / setups * 1e9));
  const uint64_t slice_ns =
      std::min<uint64_t>(kSliceNs, static_cast<uint64_t>(window.count()));
  for (uint32_t round = 0; round < setups && res.problems.empty(); ++round) {
    const std::string dir =
        data_dir + "/" + w.name + "-" + std::to_string(round);
    fs::remove_all(dir);
    fs::create_directories(dir);

    const uint64_t setup_start = NowNanos();
    Store store = MakeStore(w, dir, traced);
    cpr::server::KvServer server(store.served(), ServerOptions(w));
    std::string error;
    if (!server.Start().ok()) {
      res.problems.push_back("server failed to start");
      break;
    }
    if (!Preload(w, server.port(), &error)) {
      res.problems.push_back("preload: " + error);
      server.Stop();
      break;
    }
    Phase phase;
    phase.slice_ns = slice_ns;
    std::vector<SessionResult> sessions(kSessions);
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < kSessions; ++i) {
      threads.emplace_back(SessionMain, std::cref(w), server.port(), seed, i,
                           traced, zipf.get(), std::ref(phase),
                           std::ref(sessions[i]));
    }
    while (phase.warmed.load() < kSessions) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    res.setup_s.push_back(static_cast<double>(NowNanos() - setup_start) *
                          1e-9);

    res.before = TakeReading(server, *store.backend);
    if (store.timed) store.timed->set_recording(true);
    res.t0 = NowNanos();
    phase.t0.store(res.t0);
    std::this_thread::sleep_for(window);
    res.t1 = NowNanos();
    phase.t1.store(res.t1);
    if (store.timed) store.timed->set_recording(false);
    res.after = TakeReading(server, *store.backend);
    for (auto& t : threads) t.join();

    res.store_bytes_end = DirBytes(dir);
    const uint64_t full_slices = (res.t1 - res.t0) / slice_ns;
    uint64_t acked = 0;
    for (const auto& s : sessions) {
      if (!s.error.empty()) res.problems.push_back(s.error);
      acked += s.ok_in_window;
      for (uint64_t k = 0; k < full_slices && k < s.slices.size(); ++k) {
        res.slice_p50.push_back(s.slices[k].p50);
        res.slice_p99.push_back(s.slices[k].p99);
      }
    }
    res.ops_per_s.push_back(static_cast<double>(acked) * 1e9 /
                            static_cast<double>(res.t1 - res.t0));
    CheckState(w, server.port(), sessions, &res.problems);
    if (round == 0) res.peak_rss_mb = PeakRssMb();
    server.Stop();
    if (store.timed) res.calls = store.timed->Merge();
    res.ckpt_spans.clear();
    for (const auto& sp : cpr::obs::Tracer::Default().Snapshot()) {
      if (sp.start_ns >= res.t0 && sp.start_ns + sp.dur_ns <= res.t1) {
        res.ckpt_spans.push_back(sp);
      }
    }
    for (auto& s : sessions) res.sessions.push_back(std::move(s));
    store = Store{};
    fs::remove_all(dir);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count, or why the layer reads 0
};

std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

std::string Count(const char* what, uint64_t n) {
  return std::string(what) + "=" + std::to_string(n);
}

// Percentile metric; reads 0 with a note when the sample cannot support it.
Metric PercentileMetric(const std::string& name, std::vector<uint32_t> samples,
                        double q, double scale, const std::string& unit) {
  const Quantile qt = ExactQuantile(samples, q);
  Metric m{name, qt.reported ? qt.value * scale : 0, unit,
           Count("n", qt.count) + " " + Count("beyond", qt.beyond)};
  if (!qt.reported) m.note += " (not reported: too few samples)";
  return m;
}

Metric MeanMetric(const std::string& name, double total, double n,
                  double scale, const std::string& unit) {
  return Metric{name, Ratio(total, n) * scale, unit,
                Count("n", static_cast<uint64_t>(n))};
}

double CounterDelta(const RunResult& r, const std::string& name) {
  return r.after.counters.at(name) - r.before.counters.at(name);
}

std::pair<double, double> HistDelta(const RunResult& r,
                                    const std::string& name) {
  const auto& a = r.after.hists.at(name);
  const auto& b = r.before.hists.at(name);
  return {a.first - b.first, a.second - b.second};
}

// Duration of each checkpoint (or round, or commit) of one category: the
// span from its first phase's start to its last phase's end, keyed by the
// id the engine stamps on every phase span.
std::vector<uint32_t> SpanGroupDurations(const RunResult& r, const char* cat,
                                         const std::vector<std::string>& names) {
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> groups;
  for (const auto& sp : r.ckpt_spans) {
    if (std::strcmp(sp.cat, cat) != 0 ||
        std::find(names.begin(), names.end(), sp.name) == names.end()) {
      continue;
    }
    auto [it, fresh] =
        groups.try_emplace(sp.id, sp.start_ns, sp.start_ns + sp.dur_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, sp.start_ns);
      it->second.second = std::max(it->second.second, sp.start_ns + sp.dur_ns);
    }
  }
  std::vector<uint32_t> out;
  for (const auto& [id, g] : groups) {
    out.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(g.second - g.first, UINT32_MAX)));
  }
  return out;
}

// Median over slices of one ack percentile; 0 when a slice cannot support
// it.
Metric SliceQuantileMetric(const std::string& name,
                           const std::vector<Quantile>& slices) {
  std::vector<double> values;
  uint64_t samples = 0, beyond = 0;
  bool reported = !slices.empty();
  for (const Quantile& q : slices) {
    values.push_back(q.value * 1e-3);
    samples += q.count;
    beyond += q.beyond;
    reported = reported && q.reported;
  }
  Metric m{name, reported ? MedianOf(values) : 0, "us",
           Count("slices", slices.size()) + " (median) " +
               Count("n", samples) + " " + Count("beyond", beyond)};
  if (!reported) m.note += " (not reported: a slice has too few samples)";
  return m;
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  std::vector<Metric> m;
  m.push_back({"setup_s", MedianOf(r.setup_s), "s",
               Count("setups", r.setup_s.size()) + " (median)"});
  m.push_back({"ops_per_s", MedianOf(r.ops_per_s), "1/s",
               Count("setups", r.ops_per_s.size()) + " (median) " +
                   Count("acked", r.Sum(&SessionResult::ok_in_window))});
  m.push_back(SliceQuantileMetric("ack_p50_us", r.slice_p50));
  m.push_back(SliceQuantileMetric("ack_p99_us", r.slice_p99));
  const uint64_t attempted = r.Sum(&SessionResult::attempted);
  const uint64_t failed = r.Sum(&SessionResult::failed);
  m.push_back({"success_frac",
               1.0 - Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
               "ratio",
               Count("attempted", attempted) + " " + Count("failed", failed)});
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MiB",
               "VmHWM through the first set-up"});
  return m;
}

// Client ack latency minus backend call time, joined on (guid, serial).
std::vector<uint32_t> SelfTimes(const RunResult& r) {
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> backend_ns;
  for (const auto& b : r.calls.spans) {
    backend_ns[{b.guid, b.serial}] = b.dur_ns;
  }
  std::vector<uint32_t> self;
  for (const auto& s : r.sessions) {
    for (const auto& c : s.spans) {
      const auto it = backend_ns.find({c.guid, c.serial});
      if (it == backend_ns.end()) continue;
      const uint64_t total = c.ack_ns - c.flush_ns;
      self.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(total > it->second ? total - it->second : 0,
                             UINT32_MAX)));
    }
  }
  return self;
}

std::vector<Metric> PerLayer(const RunResult& r) {
  std::vector<Metric> m;
  const CallLog& calls = r.calls;
  const auto& sb = r.before.server;
  const auto& sa = r.after.server;

  // client.*
  m.push_back(MeanMetric("client.flush_us_mean",
                         static_cast<double>(r.Sum(&SessionResult::flush_ns)),
                         static_cast<double>(r.Sum(&SessionResult::flushes)),
                         1e-3, "us"));
  m.push_back(MeanMetric("client.drain_us_mean",
                         static_cast<double>(r.Sum(&SessionResult::drain_ns)),
                         static_cast<double>(r.Sum(&SessionResult::drains)),
                         1e-3, "us"));
  m.push_back(MeanMetric(
      "client.trydrain_us_mean",
      static_cast<double>(r.Sum(&SessionResult::trydrain_ns)),
      static_cast<double>(r.Sum(&SessionResult::trydrains)), 1e-3, "us"));
  m.push_back(MeanMetric(
      "client.ops_per_flush",
      static_cast<double>(r.Sum(&SessionResult::ops_flushed)),
      static_cast<double>(r.Sum(&SessionResult::flushes)), 1, "count"));
  uint64_t max_inflight = 0;
  for (const auto& s : r.sessions) {
    max_inflight = std::max(max_inflight, s.max_inflight);
  }
  m.push_back({"client.max_inflight", static_cast<double>(max_inflight),
               "count", "max over sessions"});

  // server.*
  const std::vector<uint32_t> self = SelfTimes(r);
  m.push_back(PercentileMetric("server.self_us_p50", self, 0.50, 1e-3, "us"));
  m.push_back(PercentileMetric("server.self_us_p99", self, 0.99, 1e-3, "us"));
  const double requests = static_cast<double>(sa.requests - sb.requests);
  const double responses = static_cast<double>(sa.responses - sb.responses);
  m.push_back(MeanMetric(
      "server.bytes_per_op",
      static_cast<double>((sa.bytes_in - sb.bytes_in) +
                          (sa.bytes_out - sb.bytes_out)),
      requests, 1, "B"));
  m.push_back({"server.held_frac",
               Ratio(static_cast<double>(sa.durable_held - sb.durable_held),
                     responses),
               "ratio", Count("responses", static_cast<uint64_t>(responses))});
  for (const char* st : cpr::obs::kReqStageNames) {
    const auto [sum, n] =
        HistDelta(r, std::string("cpr_req_stage_ns{stage=\"") + st + "\"}");
    m.push_back(MeanMetric(std::string("server.stage_us_mean.") + st, sum, n,
                           1e-3, "us"));
  }

  // epoch.*
  m.push_back(MeanMetric("epoch.refresh_ns_mean",
                         static_cast<double>(calls.refresh_ns),
                         static_cast<double>(calls.refresh_calls), 1, "ns"));
  m.push_back(MeanMetric("epoch.refresh_per_op",
                         static_cast<double>(calls.refresh_calls),
                         static_cast<double>(calls.data_calls), 1, "count"));

  // faster.* (single-key calls; on the txdb backend they are unused)
  auto mean_of = [](const std::vector<uint32_t>& v) { return Mean(v); };
  m.push_back({"faster.read_ns_mean", mean_of(calls.read_ns), "ns",
               Count("n", calls.read_ns.size())});
  m.push_back(PercentileMetric("faster.read_ns_p99", calls.read_ns, 0.99, 1,
                               "ns"));
  m.push_back({"faster.rmw_ns_mean", mean_of(calls.rmw_ns), "ns",
               Count("n", calls.rmw_ns.size())});
  m.push_back(
      PercentileMetric("faster.rmw_ns_p99", calls.rmw_ns, 0.99, 1, "ns"));
  const double key_calls =
      static_cast<double>(calls.read_ns.size() + calls.rmw_ns.size());
  m.push_back({"faster.pending_frac",
               Ratio(static_cast<double>(calls.pending), key_calls), "ratio",
               Count("pending", calls.pending)});
  m.push_back(MeanMetric("faster.complete_pending_us_mean",
                         static_cast<double>(calls.complete_busy_ns),
                         static_cast<double>(calls.complete_busy_calls), 1e-3,
                         "us"));
  const std::vector<std::string> faster_phases(std::begin(kFasterPhases),
                                               std::end(kFasterPhases));
  const double ckpts = CounterDelta(r, "cpr_faster_checkpoints_started_total");
  m.push_back(PercentileMetric("faster.ckpt_ms_p50",
                               SpanGroupDurations(r, "faster", faster_phases),
                               0.5, 1e-6, "ms"));
  for (const char* p : kFasterPhases) {
    m.push_back(MeanMetric(
        std::string("faster.ckpt_phase_ms.") + p,
        CounterDelta(r, std::string("cpr_faster_checkpoint_phase_ns_total{"
                                    "phase=\"") + p + "\"}"),
        ckpts, 1e-6, "ms"));
  }
  m.push_back({"faster.ckpt_count", ckpts, "count", "store checkpoints"});
  m.push_back({"faster.ckpt_failures",
               CounterDelta(r, "cpr_faster_checkpoint_failures_total"), "count",
               ""});

  // shard.*
  m.push_back(PercentileMetric(
      "shard.round_ms_p50",
      SpanGroupDurations(r, "shard", {"broadcast", "collect",
                                      "publish_manifest"}),
      0.5, 1e-6, "ms"));
  m.push_back({"shard.rounds", CounterDelta(r, "cpr_shard_rounds_total"),
               "count", ""});
  double shard_max = 0, shard_sum = 0;
  for (size_t i = 0; i < r.after.shard_ops.size(); ++i) {
    const double ops =
        static_cast<double>(r.after.shard_ops[i] - r.before.shard_ops[i]);
    shard_max = std::max(shard_max, ops);
    shard_sum += ops;
  }
  const double shards = static_cast<double>(r.after.shard_ops.size());
  m.push_back({"shard.ops_max_over_mean",
               Ratio(shard_max, Ratio(shard_sum, shards)), "ratio",
               Count("shards", r.after.shard_ops.size())});

  // txdb.*
  m.push_back({"txdb.txn_us_mean", mean_of(calls.txn_ns) * 1e-3, "us",
               Count("n", calls.txn_ns.size())});
  m.push_back(
      PercentileMetric("txdb.txn_us_p99", calls.txn_ns, 0.99, 1e-3, "us"));
  m.push_back({"txdb.conflict_frac",
               Ratio(static_cast<double>(calls.txn_conflicts),
                     static_cast<double>(calls.txn_ns.size())),
               "ratio", Count("conflicts", calls.txn_conflicts)});
  const std::vector<std::string> txdb_phases(std::begin(kTxdbPhases),
                                             std::end(kTxdbPhases));
  const double commits = CounterDelta(r, "cpr_txdb_commits_started_total");
  m.push_back(PercentileMetric("txdb.commit_ms_p50",
                               SpanGroupDurations(r, "txdb", txdb_phases), 0.5,
                               1e-6, "ms"));
  for (const char* p : kTxdbPhases) {
    m.push_back(MeanMetric(
        std::string("txdb.commit_phase_ms.") + p,
        CounterDelta(r, std::string("cpr_txdb_commit_phase_ns_total{phase=\"") +
                            p + "\"}"),
        commits, 1e-6, "ms"));
  }

  // io.*
  const auto [job_sum, jobs] = HistDelta(r, "cpr_io_job_ns");
  m.push_back(MeanMetric("io.job_us_mean", job_sum, jobs, 1e-3, "us"));
  m.push_back(MeanMetric("io.jobs_per_ckpt", CounterDelta(r, "cpr_io_jobs_total"),
                         ckpts + commits, 1, "count"));
  const double updates =
      static_cast<double>(r.Sum(&SessionResult::updates_in_window));
  m.push_back(MeanMetric("io.bytes_written_per_update",
                         static_cast<double>(r.after.wchar - r.before.wchar),
                         updates, 1, "B"));
  m.push_back({"io.store_mb_end", r.store_bytes_end / (1024.0 * 1024.0), "MiB",
               "file bytes under the store directory"});
  return m;
}

// Chrome trace_event JSON: sampled client op spans, the backend calls they
// caused (args.parent names the client span; both carry the (guid, serial)
// id) and every checkpoint/round/commit phase span, on one timeline.
void WriteChromeTrace(const RunResult& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  auto us = [&](uint64_t ns) {
    return Num(static_cast<double>(ns - std::min(ns, r.t0)) * 1e-3);
  };
  const char* sep = "";
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (const auto& s : r.sessions) {
    for (const auto& c : s.spans) {
      if (c.serial % kChromeEvery != 0) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"client.%c\",\"cat\":\"client\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%s,\"dur\":%s,\"args\":{"
                   "\"id\":\"%llu:%llu\"}}",
                   sep, c.op, 100 + c.session, us(c.flush_ns).c_str(),
                   Num(static_cast<double>(c.ack_ns - c.flush_ns) * 1e-3).c_str(),
                   static_cast<unsigned long long>(c.guid),
                   static_cast<unsigned long long>(c.serial));
      sep = ",";
    }
  }
  for (const auto& b : r.calls.spans) {
    if (b.serial % kChromeEvery != 0 || b.start_ns < r.t0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"backend.%c\",\"cat\":\"backend\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%s,\"dur\":%s,\"args\":{"
                 "\"id\":\"%llu:%llu\",\"parent\":\"client:%llu:%llu\"}}",
                 sep, b.op, 1 + b.thread, us(b.start_ns).c_str(),
                 Num(static_cast<double>(b.dur_ns) * 1e-3).c_str(),
                 static_cast<unsigned long long>(b.guid),
                 static_cast<unsigned long long>(b.serial),
                 static_cast<unsigned long long>(b.guid),
                 static_cast<unsigned long long>(b.serial));
    sep = ",";
  }
  for (const auto& sp : r.ckpt_spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":2,"
                 "\"tid\":%u,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%llu}}",
                 sep, sp.name, sp.cat, sp.tid, us(sp.start_ns).c_str(),
                 Num(static_cast<double>(sp.dur_ns) * 1e-3).c_str(),
                 static_cast<unsigned long long>(sp.id));
    sep = ",";
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string rev = "unknown";
  std::string out_dir = ".bench_build/out";
  std::string data_dir = ".bench_build/data";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--rev") {
      a->rev = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

struct CpuTicks {
  uint64_t total = 0, steal = 0;
};

// Machine-wide CPU time from the first line of /proc/stat.
CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

std::string MachineLine(const Workload& w, const Args& a) {
  utsname u{};
  uname(&u);
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel\":\"" + JsonEscape(u.release) + "\",\"build_type\":\"" +
         PERFBENCH_BUILD_TYPE + "\",\"compiler\":\"" + kCompiler + " " +
         JsonEscape(__VERSION__) + "\",\"rev\":\"" + JsonEscape(a.rev) +
         "\",\"workload\":\"" + w.name + "\",\"seed\":" +
         std::to_string(a.seed) + ",\"seconds\":" + Num(a.seconds) +
         ",\"trace\":" + std::to_string(a.trace) +
         ",\"server_workers\":" + std::to_string(kWorkers) +
         ",\"client_threads\":" + std::to_string(kSessions) +
         ",\"connections\":" + std::to_string(kSessions) +
         ",\"window_per_session\":" + std::to_string(w.window) +
         ",\"keys_or_rows\":" + std::to_string(w.keys) +
         ",\"memory_budget_bytes\":" + std::to_string(MemoryBudgetBytes(w)) +
         ",\"ack_mode\":\"" + (w.durable_ack ? "durable" : "executed") +
         "\",\"checkpoint_interval_ms\":" + std::to_string(w.checkpoint_ms) +
         ",\"sync_to_disk\":false}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
           Num(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--rev REV] [--out-dir DIR] [--data-dir DIR]\n");
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  fs::create_directories(a.out_dir);
  fs::create_directories(a.data_dir);
  const std::string machine = MachineLine(*w, a);
  std::printf("machine %s\n", machine.c_str());
  const CpuTicks cpu_start = ReadCpuTicks();

  std::vector<Metric> metrics;
  RunResult res;
  if (a.trace == 0) {
    res = RunWorkload(*w, a.seed, a.seconds, false, kSetups, a.data_dir);
    if (res.problems.empty()) metrics = EndToEnd(res);
  } else {
    // Untraced first, then traced on a fresh set-up, each for half the
    // run: their ops_per_s ratio is the tracing overhead.
    const RunResult plain =
        RunWorkload(*w, a.seed, a.seconds / 2, false, 1, a.data_dir);
    res = RunWorkload(*w, a.seed, a.seconds / 2, true, 1, a.data_dir);
    res.problems.insert(res.problems.end(), plain.problems.begin(),
                        plain.problems.end());
    if (res.problems.empty()) {
      metrics = PerLayer(res);
      const double untraced = MedianOf(plain.ops_per_s);
      const double traced = MedianOf(res.ops_per_s);
      metrics.push_back({"trace.ops_per_s_untraced", untraced, "1/s", ""});
      metrics.push_back({"trace.ops_per_s_traced", traced, "1/s", ""});
      metrics.push_back({"trace.overhead_frac", 1.0 - Ratio(traced, untraced),
                         "ratio", "1 - traced/untraced ops_per_s"});
      const std::string trace_path = a.out_dir + "/trace-" + w->name +
                                     "-seed" + std::to_string(a.seed) + ".json";
      WriteChromeTrace(res, trace_path);
      std::printf("chrome trace %s\n", trace_path.c_str());
    }
  }
  fs::remove_all(a.data_dir);
  // Share of the machine's CPU time the hypervisor took away during the
  // run: a disturbed run shows here, not in the metrics' names.
  const CpuTicks cpu_end = ReadCpuTicks();
  const double steal_frac =
      Ratio(static_cast<double>(cpu_end.steal - cpu_start.steal),
            static_cast<double>(cpu_end.total - cpu_start.total));
  std::printf("steal_frac %s\n", Num(steal_frac).c_str());

  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14s %-6s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
  for (const auto& p : res.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = res.problems.empty();
  const uint64_t attempted = res.Sum(&SessionResult::attempted);
  const uint64_t failed = res.Sum(&SessionResult::failed);
  const std::string result =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(attempted) + ",\"failed\":" +
      std::to_string(failed) + ",\"metrics\":" + MetricsJson(metrics) + "}";
  const std::string record_path = a.out_dir + "/result-" + w->name + "-seed" +
                                  std::to_string(a.seed) + "-trace" +
                                  std::to_string(a.trace) + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f, "{\"machine\":%s,\"steal_frac\":%s,\"result\":%s}\n",
                 machine.c_str(), Num(steal_frac).c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
