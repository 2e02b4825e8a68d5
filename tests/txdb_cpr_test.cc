#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/file.h"
#include "txdb/db.h"

namespace cpr::txdb {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_txdb_cpr"); }

TransactionalDb::Options CprOptions(const std::string& dir) {
  TransactionalDb::Options o;
  o.mode = DurabilityMode::kCpr;
  o.durability_dir = dir;
  return o;
}

int64_t RowValue(Table& t, uint64_t row) {
  int64_t v;
  std::memcpy(&v, t.live(row), sizeof(v));
  return v;
}

// Runs increments on `row` until the commit of `version` is durable,
// refreshing every txn so the state machine advances.
void DriveUntilDurable(TransactionalDb& db, ThreadContext& ctx, uint32_t table,
                       uint64_t version) {
  Transaction txn;
  txn.ops.push_back(TxnOp{table, OpType::kAdd, 0, nullptr, 0});  // no-op add
  while (db.CurrentVersion() <= version) {
    db.Execute(ctx, txn);
    db.Refresh(ctx);
  }
}

TEST(CprCommitTest, CommitWithNoWorkersCompletes) {
  const std::string dir = FreshDir();
  TransactionalDb db(CprOptions(dir));
  db.CreateTable(16, 8);
  const uint64_t v = db.RequestCommit();
  EXPECT_EQ(v, 1u);
  db.WaitForCommit(v);
  EXPECT_FALSE(db.CommitInProgress());
  EXPECT_EQ(db.CurrentVersion(), 2u);
}

TEST(CprCommitTest, SecondRequestWhileInFlightIsRejected) {
  const std::string dir = FreshDir();
  TransactionalDb db(CprOptions(dir));
  db.CreateTable(16, 8);
  ThreadContext* ctx = db.RegisterThread();  // gates the state machine
  const uint64_t v = db.RequestCommit();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(db.RequestCommit(), 0u);  // already in flight
  DriveUntilDurable(db, *ctx, 0, v);
  db.WaitForCommit(v);
  db.DeregisterThread(ctx);
}

TEST(CprCommitTest, RecoverWithoutCheckpointIsNotFound) {
  const std::string dir = FreshDir();
  TransactionalDb db(CprOptions(dir));
  db.CreateTable(16, 8);
  EXPECT_EQ(db.Recover().code(), Status::Code::kNotFound);
}

TEST(CprCommitTest, SingleThreadCommitRecoverRoundTrip) {
  const std::string dir = FreshDir();
  {
    TransactionalDb db(CprOptions(dir));
    const uint32_t t = db.CreateTable(64, 8);
    ThreadContext* ctx = db.RegisterThread();
    Transaction txn;
    for (uint64_t row = 0; row < 64; ++row) {
      txn.ops.clear();
      int64_t delta = static_cast<int64_t>(row * 3 + 1);
      txn.ops.push_back(TxnOp{t, OpType::kAdd, row, nullptr, delta});
      ASSERT_EQ(db.Execute(*ctx, txn), TxnResult::kCommitted);
    }
    const uint64_t v = db.RequestCommit();
    ASSERT_EQ(v, 1u);
    DriveUntilDurable(db, *ctx, t, v);
    db.DeregisterThread(ctx);
    db.WaitForCommit(v);
  }
  // "Crash" and recover into a fresh instance.
  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(64, 8);
  std::vector<CommitPoint> points;
  ASSERT_TRUE(db.Recover(&points).ok());
  for (uint64_t row = 0; row < 64; ++row) {
    EXPECT_EQ(RowValue(db.table(t), row), static_cast<int64_t>(row * 3 + 1));
  }
  ASSERT_EQ(points.size(), 1u);
  // The driving loop added no-op txns after the 64 writes; the point covers
  // at least them.
  EXPECT_GE(points[0].serial, 64u);
}

TEST(CprCommitTest, VersionAdvancesAcrossCommits) {
  const std::string dir = FreshDir();
  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(8, 8);
  ThreadContext* ctx = db.RegisterThread();
  for (uint64_t expect_v = 1; expect_v <= 3; ++expect_v) {
    EXPECT_EQ(db.CurrentVersion(), expect_v);
    const uint64_t v = db.RequestCommit();
    ASSERT_EQ(v, expect_v);
    DriveUntilDurable(db, *ctx, t, v);
  }
  EXPECT_EQ(db.CurrentVersion(), 4u);
  db.DeregisterThread(ctx);
}

TEST(CprCommitTest, CallbackReportsPerThreadPoints) {
  const std::string dir = FreshDir();
  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(8, 8);
  ThreadContext* ctx = db.RegisterThread();
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 1, nullptr, 1});
  for (int i = 0; i < 10; ++i) db.Execute(*ctx, txn);

  std::atomic<bool> called{false};
  std::vector<CommitPoint> got;
  uint64_t got_version = 0;
  const uint64_t v = db.RequestCommit(
      [&](uint64_t version, const Status& status,
          const std::vector<CommitPoint>& points) {
        ASSERT_TRUE(status.ok()) << status.message();
        got_version = version;
        got = points;
        called = true;
      });
  DriveUntilDurable(db, *ctx, t, v);
  db.WaitForCommit(v);
  // The commit thread runs the callback after publishing the commit that
  // WaitForCommit returns on, so it can trail the wait.
  for (int spin = 0; spin < 10'000 && !called.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(called.load());
  EXPECT_EQ(got_version, v);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].thread_id, ctx->thread_id);
  EXPECT_GE(got[0].serial, 10u);
  db.DeregisterThread(ctx);
}

// The core CPR guarantee (Definition 1): for every thread, the snapshot
// contains exactly the transactions before its commit point. Each thread
// increments its own row by 1 per transaction, so the recovered row value
// must equal the reported per-thread serial.
TEST(CprConsistencyTest, RecoveredStateMatchesPerThreadPointsExactly) {
  const std::string dir = FreshDir();
  constexpr int kThreads = 4;
  std::vector<CommitPoint> points;
  {
    TransactionalDb db(CprOptions(dir));
    const uint32_t t = db.CreateTable(kThreads, 8);
    std::atomic<bool> stop{false};
    std::atomic<bool> commit_done{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&] {
        ThreadContext* ctx = db.RegisterThread();
        // Row keyed by the registered id, which the commit point reports
        // (registration order, not spawn order).
        Transaction txn;
        txn.ops.push_back(TxnOp{t, OpType::kAdd, ctx->thread_id, nullptr, 1});
        int n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          db.Execute(*ctx, txn);
          if (++n % 8 == 0) db.Refresh(*ctx);
        }
        // Keep refreshing until the commit completes so the state machine
        // never waits on this thread.
        while (!commit_done.load(std::memory_order_relaxed)) {
          db.Refresh(*ctx);
        }
        db.DeregisterThread(ctx);
      });
    }
    // Let the workers run, then commit mid-stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    uint64_t v = 0;
    while ((v = db.RequestCommit(
                [&](uint64_t, const Status& s,
                    const std::vector<CommitPoint>& p) {
                  if (s.ok()) points = p;
                })) == 0) {
      std::this_thread::yield();
    }
    db.WaitForCommit(v);
    commit_done = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop = true;
    for (auto& w : workers) w.join();
  }

  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(kThreads, 8);
  std::vector<CommitPoint> recovered_points;
  ASSERT_TRUE(db.Recover(&recovered_points).ok());
  ASSERT_EQ(recovered_points.size(), static_cast<size_t>(kThreads));
  for (const CommitPoint& p : recovered_points) {
    EXPECT_EQ(RowValue(db.table(t), p.thread_id),
              static_cast<int64_t>(p.serial))
        << "thread " << p.thread_id
        << ": snapshot must contain exactly the first serial transactions";
  }
}

// Conflict-equivalence to a point-in-time snapshot (Theorem 1c): when every
// thread hammers the SAME record, the recovered value must equal the sum of
// the per-thread commit points — i.e., exactly the committed transactions,
// no torn or extra effects.
TEST(CprConsistencyTest, SharedRecordSumEqualsSumOfPoints) {
  const std::string dir = FreshDir();
  constexpr int kThreads = 4;
  std::vector<CommitPoint> points;
  {
    TransactionalDb db(CprOptions(dir));
    const uint32_t t = db.CreateTable(1, 8);
    std::atomic<bool> stop{false};
    std::atomic<bool> commit_done{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&] {
        ThreadContext* ctx = db.RegisterThread();
        Transaction txn;
        txn.ops.push_back(TxnOp{t, OpType::kAdd, 0, nullptr, 1});
        int n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          db.Execute(*ctx, txn);  // conflicts abort and simply retry
          if (++n % 8 == 0) db.Refresh(*ctx);
        }
        while (!commit_done.load(std::memory_order_relaxed)) {
          db.Refresh(*ctx);
        }
        db.DeregisterThread(ctx);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    uint64_t v = 0;
    while ((v = db.RequestCommit()) == 0) std::this_thread::yield();
    db.WaitForCommit(v);
    commit_done = true;
    stop = true;
    for (auto& w : workers) w.join();
  }

  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(1, 8);
  ASSERT_TRUE(db.Recover(&points).ok());
  ASSERT_EQ(points.size(), static_cast<size_t>(kThreads));
  int64_t sum = 0;
  for (const CommitPoint& p : points) sum += static_cast<int64_t>(p.serial);
  EXPECT_EQ(RowValue(db.table(t), 0), sum);
}

// At most one transaction per thread aborts with a CPR shift per commit
// (§4.1): the thread refreshes immediately and moves on.
TEST(CprConsistencyTest, AtMostOneCprAbortPerThreadPerCommit) {
  const std::string dir = FreshDir();
  constexpr int kThreads = 3;
  constexpr int kCommits = 5;
  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(4, 8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::vector<uint64_t> cpr_aborts(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      ThreadContext* ctx = db.RegisterThread();
      Transaction txn;
      txn.ops.push_back(
          TxnOp{t, OpType::kAdd, static_cast<uint64_t>(w % 4), nullptr, 1});
      int n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        db.Execute(*ctx, txn);
        if (++n % 4 == 0) db.Refresh(*ctx);
      }
      cpr_aborts[w] = ctx->counters.cpr_aborts;
      db.DeregisterThread(ctx);
    });
  }
  for (int c = 0; c < kCommits; ++c) {
    uint64_t v = 0;
    while ((v = db.RequestCommit()) == 0) std::this_thread::yield();
    db.WaitForCommit(v);
  }
  stop = true;
  for (auto& w : workers) w.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_LE(cpr_aborts[w], static_cast<uint64_t>(kCommits));
  }
}

TEST(CprCommitTest, RecoveredDbCanCommitAgain) {
  const std::string dir = FreshDir();
  {
    TransactionalDb db(CprOptions(dir));
    const uint32_t t = db.CreateTable(4, 8);
    ThreadContext* ctx = db.RegisterThread();
    Transaction txn;
    txn.ops.push_back(TxnOp{t, OpType::kAdd, 0, nullptr, 5});
    db.Execute(*ctx, txn);
    const uint64_t v = db.RequestCommit();
    DriveUntilDurable(db, *ctx, t, v);
    db.DeregisterThread(ctx);
  }
  TransactionalDb db(CprOptions(dir));
  const uint32_t t = db.CreateTable(4, 8);
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.CurrentVersion(), 2u);
  ThreadContext* ctx = db.RegisterThread();
  Transaction txn;
  txn.ops.push_back(TxnOp{t, OpType::kAdd, 0, nullptr, 2});
  db.Execute(*ctx, txn);
  const uint64_t v = db.RequestCommit();
  ASSERT_EQ(v, 2u);
  DriveUntilDurable(db, *ctx, t, v);
  db.DeregisterThread(ctx);

  TransactionalDb db2(CprOptions(dir));
  const uint32_t t2 = db2.CreateTable(4, 8);
  ASSERT_TRUE(db2.Recover().ok());
  EXPECT_EQ(RowValue(db2.table(t2), 0), 7);
}

TEST(CprCommitTest, SchemaMismatchDetectedOnRecovery) {
  const std::string dir = FreshDir();
  {
    TransactionalDb db(CprOptions(dir));
    db.CreateTable(4, 8);
    const uint64_t v = db.RequestCommit();
    db.WaitForCommit(v);
  }
  TransactionalDb db(CprOptions(dir));
  db.CreateTable(8, 8);  // wrong row count
  EXPECT_EQ(db.Recover().code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace cpr::txdb
