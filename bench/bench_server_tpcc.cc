// TPC-C over the wire: a KvServer fronting a TxDbBackend serves New-Order +
// Payment transactions (src/workloads/tpcc) issued by concurrent pipelining
// CprClients as multi-key TXN requests. New-Order write sets above the wire
// protocol's per-frame op cap travel as chunked TXN frames (TXN_CHUNK
// continuations), so raising CPR_BENCH_MIN_OL/MAX_OL exercises streaming
// transactions end to end.
//
// This is also the crash-consistency certification driver: with
// --certify-dir=DIR every client journals its observed history
// (src/certify), the loaded state is captured as baseline.dump, and the
// quiesced end state as final.dump — certify_check then verifies the CPR
// contract offline. --crash kills the server (and its volatile tail)
// mid-run, recovers from the last durable checkpoint on the same port, and
// lets every client reconnect + replay before certification.
//
// Transactions are pre-generated from --seed so a certification failure is
// reproducible bit-for-bit from the seed alone.
//
// Knobs: CPR_BENCH_CLIENTS (4), CPR_BENCH_PIPELINE (16), CPR_BENCH_TXNS
// per client (400), CPR_BENCH_WAREHOUSES (2), CPR_BENCH_MIN_OL (5),
// CPR_BENCH_MAX_OL (15), CPR_BENCH_DURABLE (1), CPR_BENCH_WORKERS (2).
// Flags: --stats-json=PATH, --certify-dir=DIR, --seed=N, --crash.
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "certify/checker.h"
#include "certify/history.h"
#include "client/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "txdb/txdb_backend.h"
#include "util/random.h"
#include "workloads/tpcc.h"

namespace cpr::bench {
namespace {

struct PreTxn {
  bool new_order = false;
  std::vector<net::TxnWireOp> ops;
};

std::vector<net::TxnWireOp> ToWire(const txdb::Transaction& txn,
                                   txdb::TransactionalDb& db) {
  std::vector<net::TxnWireOp> ops;
  ops.reserve(txn.ops.size());
  for (const txdb::TxnOp& op : txn.ops) {
    net::TxnWireOp w;
    w.table = op.table_id;
    w.row = op.row;
    switch (op.type) {
      case txdb::OpType::kRead:
        w.kind = net::TxnOpKind::kRead;
        break;
      case txdb::OpType::kAdd:
        w.kind = net::TxnOpKind::kAdd;
        w.delta = op.delta;
        break;
      case txdb::OpType::kWrite: {
        w.kind = net::TxnOpKind::kWrite;
        const uint32_t n = db.table(op.table_id).value_size();
        const char* p = static_cast<const char*>(op.value);
        w.value.assign(p, p + n);
        break;
      }
    }
    ops.push_back(std::move(w));
  }
  return ops;
}

struct RunConfig {
  uint32_t clients = 4;
  uint32_t pipeline = 16;
  uint32_t txns_per_client = 400;
  uint32_t workers = 2;
  uint32_t payment_pct = 43;
  bool durable = true;
  bool crash = false;
  uint64_t seed = 1;
  workloads::TpccConfig tpcc;
  std::string certify_dir;   // empty: no recording
  std::string stats_json;    // empty: no json
};

struct RunStats {
  double elapsed_s = 0;
  uint64_t total_txns = 0;
  uint64_t committed = 0;
  uint64_t new_orders_issued = 0;
  uint64_t new_orders_committed = 0;
  uint64_t conflicts = 0;
  uint64_t chunked_txns = 0;
  ServerCounters::Snapshot counters;
};

bool EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  std::fprintf(stderr, "mkdir %s: %s\n", path.c_str(), std::strerror(errno));
  return false;
}

txdb::TxDbBackend::Options BackendOptions(const std::string& dir,
                                          uint32_t clients) {
  txdb::TxDbBackend::Options bo;
  bo.db.durability_dir = dir;
  bo.db.max_threads = clients + 8;  // connections + pump + dump sessions
  bo.tables = {txdb::TxDbBackend::TableSpec{1 << 10, 8}};
  return bo;
}

server::KvServerOptions ServerOptions(uint32_t workers, uint32_t clients,
                                      uint16_t port) {
  server::KvServerOptions so;
  so.port = port;
  so.num_workers = workers;
  so.idle_poll_ms = 1;
  so.checkpoint_interval_ms = 25;
  so.max_connections = clients + 4;
  return so;
}

int RunTpcc(const RunConfig& cfg) {
  const std::string dir = FreshBenchDir("srvtpcc");
  const bool record = !cfg.certify_dir.empty();
  if (record && !EnsureDir(cfg.certify_dir)) return 1;

  auto backend =
      std::make_unique<txdb::TxDbBackend>(BackendOptions(dir, cfg.clients));
  auto workload = std::make_unique<workloads::TpccWorkload>(&backend->db(),
                                                            cfg.tpcc);
  auto server = std::make_unique<server::KvServer>(
      backend.get(), ServerOptions(cfg.workers, cfg.clients, 0));
  if (!server->Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  const uint16_t port = server->port();

  // Pre-generate every transaction (single-threaded, so the order-slot
  // cursors advance deterministically): the run is a pure function of the
  // seed, which is what makes a certification failure replayable.
  std::vector<std::vector<PreTxn>> plans(cfg.clients);
  uint64_t new_orders_issued = 0;
  uint64_t chunked = 0;
  for (uint32_t t = 0; t < cfg.clients; ++t) {
    Rng rng(cfg.seed + uint64_t{t} * 7919 + 1);
    plans[t].reserve(cfg.txns_per_client);
    txdb::Transaction txn;
    for (uint32_t i = 0; i < cfg.txns_per_client; ++i) {
      PreTxn pre;
      pre.new_order = rng.Uniform(100) >= cfg.payment_pct;
      if (pre.new_order) {
        workload->MakeNewOrder(rng, &txn);
        ++new_orders_issued;
      } else {
        workload->MakePayment(rng, &txn);
      }
      pre.ops = ToWire(txn, backend->db());
      if (pre.ops.size() > net::kMaxTxnOps) ++chunked;
      plans[t].push_back(std::move(pre));
    }
  }

  // Baseline state (loaded, untrafficked), then an initial durable
  // checkpoint so a --crash always has a recovery point.
  certify::StateDump baseline;
  {
    client::CprClient::Options co;
    co.port = port;
    client::CprClient dumper(co);
    if (!dumper.Connect().ok()) {
      std::fprintf(stderr, "dump client connect failed\n");
      return 1;
    }
    if (record && !dumper.DumpState(&baseline).ok()) {
      std::fprintf(stderr, "baseline dump failed\n");
      return 1;
    }
    if (!dumper.Checkpoint().ok()) {
      std::fprintf(stderr, "initial checkpoint failed\n");
      return 1;
    }
    dumper.Close();
  }

  std::vector<certify::HistoryRecorder> recorders(cfg.clients);
  std::vector<uint64_t> conflicts(cfg.clients, 0);
  std::atomic<uint64_t> completed{0};
  std::atomic<int> epoch{0};
  std::mutex restart_mu;
  std::condition_variable restart_cv;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  for (uint32_t t = 0; t < cfg.clients; ++t) {
    threads.emplace_back([&, t] {
      client::CprClient::Options co;
      co.port = port;
      co.ack_mode =
          cfg.durable ? net::AckMode::kDurable : net::AckMode::kExecuted;
      co.connect_attempts = 200;  // outlive the restart window
      if (record) co.recorder = &recorders[t];
      client::CprClient c(co);
      if (!c.Connect().ok()) return;
      int my_epoch = 0;
      const std::vector<PreTxn>& plan = plans[t];
      size_t next = 0;
      std::vector<client::CprClient::Result> results;
      auto recover = [&] {
        std::unique_lock<std::mutex> lk(restart_mu);
        restart_cv.wait(lk, [&] { return epoch.load() > my_epoch; });
        my_epoch = epoch.load();
        lk.unlock();
        while (!c.Reconnect().ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      };
      while (next < plan.size()) {
        const size_t batch_end =
            std::min(next + cfg.pipeline, plan.size());
        for (size_t i = next; i < batch_end; ++i) {
          c.EnqueueTxn(plan[i].ops);
        }
        // Enqueued requests live in the replay buffer: if the server dies
        // anywhere past this point, Reconnect() re-issues them, so the
        // cursor advances regardless.
        next = batch_end;
        bool ok = c.Flush().ok();
        if (ok) {
          results.clear();
          ok = c.Drain(&results).ok();
          if (ok) completed.fetch_add(results.size());
        }
        if (!ok) recover();
      }
      // The certification protocol requires every history to extend through
      // the final server incarnation: clients that finished before the
      // crash reconnect (and replay any non-durable suffix) too.
      if (cfg.crash && my_epoch == 0) recover();
      conflicts[t] = c.stats().txn_conflicts;
      c.Close();
    });
  }

  // Crash monitor: once ~40% of the workload is acked, kill the server and
  // its backend (the un-checkpointed tail evaporates with them), then
  // recover from the surviving checkpoint on the same port. The recreated
  // workload reloads initial stock deterministically (Rng(42)); Recover()
  // then overlays the checkpointed state.
  std::thread crasher;
  if (cfg.crash) {
    crasher = std::thread([&] {
      const uint64_t target =
          (uint64_t{cfg.clients} * cfg.txns_per_client * 2) / 5;
      while (completed.load() < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      server->Stop();
      server.reset();
      backend.reset();
      workload.reset();
      backend = std::make_unique<txdb::TxDbBackend>(
          BackendOptions(dir, cfg.clients));
      workload = std::make_unique<workloads::TpccWorkload>(&backend->db(),
                                                           cfg.tpcc);
      if (const Status rs = backend->Recover(); !rs.ok()) {
        std::fprintf(stderr, "recover failed: %s\n", rs.message().c_str());
        std::abort();
      }
      server = std::make_unique<server::KvServer>(
          backend.get(), ServerOptions(cfg.workers, cfg.clients, port));
      if (!server->Start().ok()) {
        std::fprintf(stderr, "server restart failed\n");
        std::abort();
      }
      {
        std::lock_guard<std::mutex> lk(restart_mu);
        epoch.fetch_add(1);
      }
      restart_cv.notify_all();
    });
  }

  for (auto& th : threads) th.join();
  if (crasher.joinable()) crasher.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RunStats stats;
  stats.elapsed_s = elapsed;
  stats.total_txns = uint64_t{cfg.clients} * cfg.txns_per_client;
  stats.new_orders_issued = new_orders_issued;
  stats.chunked_txns = chunked;
  for (uint64_t n : conflicts) stats.conflicts += n;
  stats.counters = server->counters();

  // Commit outcomes from the recorded histories (serial s is plan[s-1]; the
  // last recorded ack per serial is the one that stuck). Without recording,
  // fall back to acked-minus-conflicted.
  if (record) {
    for (uint32_t t = 0; t < cfg.clients; ++t) {
      const certify::History& h = recorders[t].history();
      std::vector<uint8_t> committed(cfg.txns_per_client + 1, 0);
      for (const certify::Event& e : h.events) {
        if (e.kind != certify::Event::Kind::kOp) continue;
        if (e.op.serial == 0 || e.op.serial > cfg.txns_per_client) continue;
        committed[e.op.serial] =
            e.op.status == net::WireStatus::kOk ||
            e.op.status == net::WireStatus::kNotDurable;
      }
      for (uint64_t s = 1; s <= cfg.txns_per_client; ++s) {
        if (!committed[s]) continue;
        ++stats.committed;
        if (plans[t][s - 1].new_order) ++stats.new_orders_committed;
      }
    }
  } else {
    stats.committed = stats.total_txns - stats.conflicts;
    stats.new_orders_committed =
        stats.new_orders_issued -
        std::min(stats.new_orders_issued, stats.conflicts);
  }

  // Quiesced final state + certification artifacts.
  if (record) {
    certify::StateDump final_state;
    client::CprClient::Options co;
    co.port = port;
    client::CprClient dumper(co);
    if (!dumper.Connect().ok() || !dumper.DumpState(&final_state).ok()) {
      std::fprintf(stderr, "final dump failed\n");
      return 1;
    }
    dumper.Close();
    Status st = certify::WriteStateDumpFile(cfg.certify_dir + "/baseline.dump",
                                            baseline);
    if (st.ok()) {
      st = certify::WriteStateDumpFile(cfg.certify_dir + "/final.dump",
                                       final_state);
    }
    for (uint32_t t = 0; st.ok() && t < cfg.clients; ++t) {
      char name[64];
      std::snprintf(name, sizeof(name), "/history-%04u.blob", t);
      st = recorders[t].WriteFile(cfg.certify_dir + name);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "certify artifacts: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("  certification artifacts -> %s (%u histories)\n",
                cfg.certify_dir.c_str(), cfg.clients);
  }
  server->Stop();

  const double no_per_sec =
      static_cast<double>(stats.new_orders_committed) / elapsed;
  std::printf(
      "  %llu txns in %.2fs (%s%s): %.1f committed New-Orders/s, "
      "%llu/%llu committed, %llu conflicts (%.2f%%), %llu chunked\n",
      static_cast<unsigned long long>(stats.total_txns), elapsed,
      cfg.durable ? "durable-ack" : "executed-ack",
      cfg.crash ? ", crash+recover" : "", no_per_sec,
      static_cast<unsigned long long>(stats.committed),
      static_cast<unsigned long long>(stats.total_txns),
      static_cast<unsigned long long>(stats.conflicts),
      stats.total_txns > 0 ? 100.0 * static_cast<double>(stats.conflicts) /
                                 static_cast<double>(stats.total_txns)
                           : 0.0,
      static_cast<unsigned long long>(stats.chunked_txns));
  const auto& sc = stats.counters;
  if (sc.durable_lag_max_ns > 0) {
    std::printf("  durable lag: p50=%.2fms p99=%.2fms max=%.2fms\n",
                static_cast<double>(sc.DurableLagQuantile(0.5)) / 1e6,
                static_cast<double>(sc.DurableLagQuantile(0.99)) / 1e6,
                static_cast<double>(sc.durable_lag_max_ns) / 1e6);
  }

  if (!cfg.stats_json.empty()) {
    std::FILE* f = std::fopen(cfg.stats_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cfg.stats_json.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n  \"bench\": \"server_tpcc\",\n  \"clients\": %u,\n"
        "  \"pipeline\": %u,\n  \"txns_per_client\": %u,\n"
        "  \"warehouses\": %u,\n  \"min_order_lines\": %u,\n"
        "  \"max_order_lines\": %u,\n  \"seed\": %llu,\n"
        "  \"durable\": %s,\n  \"crash\": %s,\n  \"elapsed_s\": %.3f,\n"
        "  \"total_txns\": %llu,\n  \"committed_txns\": %llu,\n"
        "  \"new_orders_issued\": %llu,\n"
        "  \"new_orders_committed\": %llu,\n"
        "  \"new_orders_per_sec\": %.1f,\n  \"conflicts\": %llu,\n"
        "  \"conflict_rate\": %.4f,\n  \"chunked_txns\": %llu,\n"
        "  \"checkpoints\": %llu,\n  \"checkpoint_failures\": %llu,\n"
        "  \"durable_lag_ns\": {\"p50\": %llu, \"p99\": %llu, "
        "\"max\": %llu}\n}\n",
        cfg.clients, cfg.pipeline, cfg.txns_per_client,
        cfg.tpcc.num_warehouses, cfg.tpcc.min_order_lines,
        cfg.tpcc.max_order_lines,
        static_cast<unsigned long long>(cfg.seed),
        cfg.durable ? "true" : "false", cfg.crash ? "true" : "false",
        stats.elapsed_s, static_cast<unsigned long long>(stats.total_txns),
        static_cast<unsigned long long>(stats.committed),
        static_cast<unsigned long long>(stats.new_orders_issued),
        static_cast<unsigned long long>(stats.new_orders_committed),
        no_per_sec, static_cast<unsigned long long>(stats.conflicts),
        stats.total_txns > 0 ? static_cast<double>(stats.conflicts) /
                                   static_cast<double>(stats.total_txns)
                             : 0.0,
        static_cast<unsigned long long>(stats.chunked_txns),
        static_cast<unsigned long long>(sc.checkpoints),
        static_cast<unsigned long long>(sc.checkpoint_failures),
        static_cast<unsigned long long>(sc.DurableLagQuantile(0.5)),
        static_cast<unsigned long long>(sc.DurableLagQuantile(0.99)),
        static_cast<unsigned long long>(sc.durable_lag_max_ns));
    std::fclose(f);
    std::printf("  stats json -> %s\n", cfg.stats_json.c_str());
  }
  return 0;
}

int Run(const RunConfig& base) {
  RunConfig cfg = base;
  cfg.clients = static_cast<uint32_t>(EnvU64("CPR_BENCH_CLIENTS", 4));
  cfg.pipeline = static_cast<uint32_t>(EnvU64("CPR_BENCH_PIPELINE", 16));
  cfg.txns_per_client = static_cast<uint32_t>(EnvU64("CPR_BENCH_TXNS", 400));
  cfg.workers = static_cast<uint32_t>(EnvU64("CPR_BENCH_WORKERS", 2));
  cfg.durable = EnvU64("CPR_BENCH_DURABLE", 1) != 0;
  cfg.tpcc.num_warehouses =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_WAREHOUSES", 2));
  cfg.tpcc.items = static_cast<uint32_t>(EnvU64("CPR_BENCH_ITEMS", 2'000));
  cfg.tpcc.customers_per_district = 300;
  cfg.tpcc.order_pool_per_district = 256;
  cfg.tpcc.min_order_lines =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_MIN_OL", 5));
  cfg.tpcc.max_order_lines =
      static_cast<uint32_t>(EnvU64("CPR_BENCH_MAX_OL", 15));

  PrintHeader("Server",
              "TPC-C (New-Order/Payment) over loopback TCP, txdb backend, " +
                  std::to_string(cfg.clients) + " clients x " +
                  std::to_string(cfg.txns_per_client) + " txns, " +
                  std::to_string(cfg.tpcc.min_order_lines) + "-" +
                  std::to_string(cfg.tpcc.max_order_lines) +
                  " order lines, seed " + std::to_string(cfg.seed));
  return RunTpcc(cfg);
}

}  // namespace
}  // namespace cpr::bench

int main(int argc, char** argv) {
  cpr::bench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--stats-json=", 13) == 0) {
      cfg.stats_json = arg + 13;
    } else if (std::strncmp(arg, "--certify-dir=", 14) == 0) {
      cfg.certify_dir = arg + 14;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      cfg.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--crash") == 0) {
      cfg.crash = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--stats-json=PATH] [--certify-dir=DIR] "
                   "[--seed=N] [--crash]\n",
                   argv[0]);
      return 2;
    }
  }
  return cpr::bench::Run(cfg);
}
