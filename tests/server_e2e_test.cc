// End-to-end tests for the network serving layer: a real KvServer over a
// real socket, driven by CprClient. Covers basic ops, pipelining, protocol
// abuse from a raw socket, live reconnect (ContinueSession), and the
// headline CPR story: a durable-ack client that survives a server crash
// with exactly-once effects.
#include <gtest/gtest.h>

#include "test_dirs.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "faster/faster.h"
#include "io/fault_injection.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "server/server.h"
#include "server/wire.h"
#include "shard/sharded_kv.h"

namespace cpr {
namespace {

using client::CprClient;
using faster::FasterKv;
using server::KvServer;
using server::KvServerOptions;

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_srv"); }

FasterKv::Options SmallOptions(const std::string& dir) {
  FasterKv::Options o;
  o.dir = dir;
  o.index_buckets = 1 << 10;
  o.value_size = 8;
  o.page_bits = 14;
  o.memory_pages = 8;
  o.ro_lag_pages = 2;
  return o;
}

KvServerOptions ServerOptions(uint16_t port = 0) {
  KvServerOptions o;
  o.port = port;
  o.num_workers = 2;
  o.idle_poll_ms = 1;
  return o;
}

CprClient::Options ClientOptions(uint16_t port) {
  CprClient::Options o;
  o.port = port;
  o.recv_timeout_ms = 2'000;
  return o;
}

int64_t ReadValue(CprClient& c, uint64_t key, bool* found) {
  int64_t v = 0;
  EXPECT_TRUE(c.Read(key, &v, found).ok());
  return v;
}

kv::ShardedKv::Options ShardedOptions(const std::string& dir,
                                      uint32_t num_shards = 4) {
  kv::ShardedKv::Options o;
  o.base = SmallOptions(dir);
  o.num_shards = num_shards;
  return o;
}

struct InjectorScope {
  FaultInjector inj;
  InjectorScope() { FaultInjector::Install(&inj); }
  ~InjectorScope() { FaultInjector::Install(nullptr); }
};

TEST(ServerE2E, BasicOpsRoundTrip) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  EXPECT_NE(c.guid(), 0u);
  EXPECT_EQ(c.recovered_serial(), 0u);
  EXPECT_EQ(c.value_size(), 8u);

  bool found = true;
  ReadValue(c, 1, &found);
  EXPECT_FALSE(found);

  const int64_t v = 1234;
  ASSERT_TRUE(c.Upsert(1, &v).ok());
  EXPECT_EQ(ReadValue(c, 1, &found), 1234);
  EXPECT_TRUE(found);

  ASSERT_TRUE(c.Rmw(1, 6).ok());
  EXPECT_EQ(ReadValue(c, 1, &found), 1240);

  ASSERT_TRUE(c.Delete(1, &found).ok());
  EXPECT_TRUE(found);
  ReadValue(c, 1, &found);
  EXPECT_FALSE(found);
  ASSERT_TRUE(c.Delete(1, &found).ok());
  EXPECT_TRUE(found);  // deletes are blind tombstone appends: always OK

  c.Close();
  server.Stop();
  const auto counters = server.counters();
  EXPECT_GE(counters.requests, 8u);
  EXPECT_EQ(counters.requests, counters.responses);
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_GT(counters.bytes_in, 0u);
  EXPECT_GT(counters.bytes_out, 0u);
}

TEST(ServerE2E, PipelinedOpsKeepOrderAndSerials) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());

  constexpr int kOps = 400;
  for (int i = 0; i < kOps; ++i) c.EnqueueRmw(i % 16, 1);
  for (int i = 0; i < 16; ++i) c.EnqueueRead(i);
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kOps + 16));

  uint64_t prev_serial = 0;
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(results[i].op, net::Op::kRmw);
    EXPECT_EQ(results[i].status, net::WireStatus::kOk);
    EXPECT_EQ(results[i].serial, prev_serial + 1);
    prev_serial = results[i].serial;
  }
  for (int i = 0; i < 16; ++i) {
    const auto& r = results[kOps + i];
    EXPECT_EQ(r.op, net::Op::kRead);
    ASSERT_EQ(r.status, net::WireStatus::kOk);
    int64_t v = 0;
    std::memcpy(&v, r.value.data(), sizeof(v));
    EXPECT_EQ(v, kOps / 16);
  }
  c.Close();
  server.Stop();
}

TEST(ServerE2E, RawSocketProtocolErrors) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A data op before HELLO is answered with NO_SESSION, not a disconnect.
  net::Request req;
  req.op = net::Op::kRead;
  req.seq = 1;
  req.key = 7;
  std::vector<char> frame;
  net::EncodeRequest(req, &frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  char buf[256];
  ssize_t got = 0;
  while (got < static_cast<ssize_t>(net::kFrameHeaderBytes)) {
    const ssize_t n = ::recv(fd, buf + got, sizeof(buf) - got, 0);
    ASSERT_GT(n, 0);
    got += n;
  }
  uint32_t len = 0;
  std::memcpy(&len, buf, sizeof(len));
  while (got < static_cast<ssize_t>(net::kFrameHeaderBytes + len)) {
    const ssize_t n = ::recv(fd, buf + got, sizeof(buf) - got, 0);
    ASSERT_GT(n, 0);
    got += n;
  }
  net::Response resp;
  ASSERT_TRUE(net::DecodeResponse(
      std::string_view(buf + net::kFrameHeaderBytes, len), &resp));
  EXPECT_EQ(resp.status, net::WireStatus::kNoSession);

  // An oversized frame header closes the connection.
  const uint32_t huge = net::kMaxFrameBytes + 1;
  ASSERT_EQ(::send(fd, &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // orderly close
  ::close(fd);

  server.Stop();
  EXPECT_GE(server.counters().protocol_errors, 1u);
}

TEST(ServerE2E, DuplicateLiveGuidIsRejected) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient a(ClientOptions(server.port()));
  ASSERT_TRUE(a.Connect().ok());

  CprClient::Options bo = ClientOptions(server.port());
  bo.guid = a.guid();
  bo.connect_attempts = 1;
  CprClient b(bo);
  const Status s = b.Connect();
  EXPECT_EQ(s.code(), Status::Code::kBusy);

  a.Close();
  server.Stop();
}

TEST(ServerE2E, LiveReconnectResumesExactSerial) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(c.Rmw(5, 3).ok());
  EXPECT_EQ(c.replay_backlog(), 10u);  // nothing known durable yet

  // Drop the connection. The server parks the session; HELLO with the same
  // guid resumes at the exact serial, so nothing is replayed.
  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_EQ(c.recovered_serial(), 10u);
  EXPECT_EQ(c.replay_backlog(), 0u);

  ASSERT_TRUE(c.Rmw(5, 3).ok());
  bool found = false;
  EXPECT_EQ(ReadValue(c, 5, &found), 33);  // 11 RMWs, applied exactly once
  EXPECT_TRUE(found);

  c.Close();
  server.Stop();
}

TEST(ServerE2E, CommitPointTracksCheckpoint) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());

  uint64_t point = 1;
  ASSERT_TRUE(c.CommitPoint(&point).ok());
  EXPECT_EQ(point, 0u);  // nothing checkpointed yet

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(c.Rmw(i, 7).ok());
  uint64_t token = 0;
  uint64_t commit = 0;
  ASSERT_TRUE(c.Checkpoint(&token, &commit, false, true).ok());
  EXPECT_GT(token, 0u);
  EXPECT_GE(commit, 20u);
  EXPECT_EQ(c.replay_backlog(), 0u);  // checkpoint response pruned replay

  ASSERT_TRUE(c.CommitPoint(&point).ok());
  EXPECT_EQ(point, commit);

  c.Close();
  server.Stop();
  EXPECT_GE(server.counters().checkpoints, 1u);
}

// The acceptance scenario: a durable-ack client pipelines RMWs, a checkpoint
// makes a prefix durable (acks flow only then), the server is torn down and
// the store recovered from disk. The client reconnects with its guid, learns
// the recovered commit point, replays exactly the unacknowledged suffix, and
// every key ends up incremented exactly once per issued RMW.
TEST(ServerE2E, CrashRecoveryDurableClientExactlyOnce) {
  const std::string dir = FreshDir();
  constexpr uint64_t kKeys = 10;
  constexpr int kBatch1 = 50;  // durably acknowledged before the crash
  constexpr int kBatch2 = 30;  // executed but never durable: must replay

  auto kv1 = std::make_unique<FasterKv>(SmallOptions(dir));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient::Options copts;
  copts.ack_mode = net::AckMode::kDurable;
  copts.recv_timeout_ms = 2'000;
  copts.port = port;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();

  for (int i = 0; i < kBatch1; ++i) c.EnqueueRmw(i % kKeys, 1);
  c.EnqueueCheckpoint(/*snapshot=*/false, /*include_index=*/true);
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kBatch1 + 1));
  // Durable acks arrived for every batch-1 op: they are committed.
  for (int i = 0; i < kBatch1; ++i) {
    ASSERT_EQ(results[i].status, net::WireStatus::kOk);
  }
  ASSERT_EQ(results[kBatch1].status, net::WireStatus::kOk);
  EXPECT_GE(c.durable_serial(), static_cast<uint64_t>(kBatch1));
  EXPECT_EQ(c.replay_backlog(), 0u);

  // Batch 2: flushed to the server (and executed there), but the client
  // never sees an ack — the crash arrives first.
  for (int i = 0; i < kBatch2; ++i) c.EnqueueRmw(i % kKeys, 1);
  ASSERT_TRUE(c.Flush().ok());
  EXPECT_EQ(c.replay_backlog(), static_cast<size_t>(kBatch2));

  // Crash: tear the server down with no further checkpoint. Batch 2 only
  // ever lived in volatile memory past the checkpoint. The client object
  // survives — its replay buffer is the durability contract's other half.
  server1->Stop();
  server1.reset();
  kv1.reset();

  // Recover the store from the on-disk checkpoint and serve it again.
  FasterKv kv(SmallOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  KvServer server(&kv, ServerOptions(port));
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  // The recovered commit point is exactly the durably-acked prefix.
  EXPECT_EQ(c.recovered_serial(), static_cast<uint64_t>(kBatch1));
  // Reconnect replayed the whole unacknowledged suffix and (durable mode)
  // forced a checkpoint behind it, so the backlog is clean again.
  EXPECT_EQ(c.replay_backlog(), 0u);
  EXPECT_GE(c.durable_serial(), static_cast<uint64_t>(kBatch1 + kBatch2));

  // Exactly-once: every key counts batch-1 plus batch-2 increments, with
  // no acknowledged op lost and no replayed op double-applied.
  for (uint64_t k = 0; k < kKeys; ++k) {
    bool found = false;
    const int64_t v = ReadValue(c, k, &found);
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, (kBatch1 + kBatch2) / static_cast<int>(kKeys))
        << "key " << k;
  }

  uint64_t point = 0;
  ASSERT_TRUE(c.CommitPoint(&point).ok());
  EXPECT_GE(point, static_cast<uint64_t>(kBatch1 + kBatch2));

  c.Close();
  server.Stop();
}

// A 4-shard ShardedKv behind the unchanged wire protocol: the client cannot
// tell it is talking to a partitioned store. Ops route by hash, a CHECKPOINT
// request runs one coordinated round, and the reported commit point is the
// cross-shard global point.
TEST(ServerE2E, ShardedBackendServesUnchangedProtocol) {
  kv::ShardedKv kv(ShardedOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  EXPECT_EQ(c.value_size(), 8u);

  constexpr uint64_t kKeys = 64;
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t v = static_cast<int64_t>(k * 3);
    ASSERT_TRUE(c.Upsert(k, &v).ok());
  }
  bool found = false;
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(ReadValue(c, k, &found), static_cast<int64_t>(k * 3));
    EXPECT_TRUE(found) << "key " << k;
  }

  // Every shard saw some of the traffic.
  uint64_t total_ops = 0;
  for (uint32_t i = 0; i < kv.num_shards(); ++i) {
    EXPECT_GT(kv.ShardOpCount(i), 0u) << "shard " << i;
    total_ops += kv.ShardOpCount(i);
  }
  EXPECT_EQ(total_ops, 2 * kKeys);

  // One coordinated round through the wire protocol: the returned token is
  // the round number and the commit point covers all issued ops.
  uint64_t token = 0;
  uint64_t commit = 0;
  ASSERT_TRUE(c.Checkpoint(&token, &commit, false, true).ok());
  EXPECT_EQ(token, 1u);
  EXPECT_EQ(commit, 2 * kKeys);
  EXPECT_EQ(kv.LastCheckpointToken(), 1u);
  EXPECT_EQ(kv.ManifestShardTokens().size(), kv.num_shards());

  c.Close();
  server.Stop();
}

// The ISSUE acceptance scenario: a durable client against a 4-shard store, a
// coordinated checkpoint covering batch 1, then a storage fault injected
// mid-round-2 (some shards flush, the manifest is never published). Recovery
// must land every shard on the round-1 manifest — no shard ahead of the
// global commit point — and the reconnecting client replays exactly the
// unacknowledged suffix with exactly-once effects.
TEST(ServerE2E, ShardedCrashRecoveryDurableClientExactlyOnce) {
  const std::string dir = FreshDir();
  constexpr uint64_t kKeys = 10;
  constexpr int kBatch1 = 50;  // durably acknowledged via round 1
  constexpr int kBatch2 = 30;  // executed, round 2 crashes: must replay

  auto kv1 = std::make_unique<kv::ShardedKv>(ShardedOptions(dir));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient::Options copts;
  copts.ack_mode = net::AckMode::kDurable;
  copts.recv_timeout_ms = 2'000;
  copts.port = port;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();

  for (int i = 0; i < kBatch1; ++i) c.EnqueueRmw(i % kKeys, 1);
  c.EnqueueCheckpoint(/*snapshot=*/false, /*include_index=*/true);
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kBatch1 + 1));
  for (int i = 0; i <= kBatch1; ++i) {
    ASSERT_EQ(results[i].status, net::WireStatus::kOk) << "op " << i;
  }
  EXPECT_GE(c.durable_serial(), static_cast<uint64_t>(kBatch1));
  EXPECT_EQ(c.replay_backlog(), 0u);

  // The round-1 manifest is the global commit point recovery must land on.
  const std::vector<uint64_t> committed_tokens = kv1->ManifestShardTokens();
  ASSERT_EQ(committed_tokens.size(), 4u);
  for (uint64_t t : committed_tokens) EXPECT_GT(t, 0u);

  // Batch 2 executes on the shards, then round 2 hits injected storage
  // faults partway through: some shards may flush their own checkpoint, but
  // the cross-shard manifest is never published. Durable acks degrade to
  // NOT_DURABLE (ops stay in the replay buffer) and the CHECKPOINT request
  // itself reports an error rather than hanging.
  {
    InjectorScope guard;
    for (int i = 0; i < kBatch2; ++i) c.EnqueueRmw(i % kKeys, 1);
    ASSERT_TRUE(c.Flush().ok());
    guard.inj.CrashAfter(3);
    c.EnqueueCheckpoint(/*snapshot=*/false, /*include_index=*/true);
    ASSERT_TRUE(c.Flush().ok());
    results.clear();
    ASSERT_TRUE(c.Drain(&results).ok());
    ASSERT_EQ(results.size(), static_cast<size_t>(kBatch2 + 1));
    for (int i = 0; i < kBatch2; ++i) {
      ASSERT_EQ(results[i].status, net::WireStatus::kNotDurable) << "op " << i;
    }
    ASSERT_EQ(results[kBatch2].status, net::WireStatus::kError);
    EXPECT_EQ(c.replay_backlog(), static_cast<size_t>(kBatch2));

    // Crash: tear the server down with the faults still armed.
    server1->Stop();
    server1.reset();
    kv1.reset();
  }

  // Recover: the newest *complete* manifest is round 1. Every shard must be
  // restored to exactly the token that manifest names — shards that flushed
  // further during the doomed round 2 are rolled back.
  kv::ShardedKv kv(ShardedOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  EXPECT_EQ(kv.ManifestShardTokens(), committed_tokens);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kv.shard(i).LastCheckpointToken(), committed_tokens[i])
        << "shard " << i << " recovered ahead of the manifest";
  }
  uint64_t recovered_point = 0;
  ASSERT_TRUE(kv.DurableCommitPoint(guid, &recovered_point).ok());
  EXPECT_EQ(recovered_point, static_cast<uint64_t>(kBatch1));

  KvServer server(&kv, ServerOptions(port));
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_EQ(c.recovered_serial(), static_cast<uint64_t>(kBatch1));
  EXPECT_EQ(c.replay_backlog(), 0u);
  EXPECT_GE(c.durable_serial(), static_cast<uint64_t>(kBatch1 + kBatch2));

  // Exactly-once across shards: every acked op present, no replay applied
  // twice on any shard.
  for (uint64_t k = 0; k < kKeys; ++k) {
    bool found = false;
    const int64_t v = ReadValue(c, k, &found);
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, (kBatch1 + kBatch2) / static_cast<int>(kKeys))
        << "key " << k;
  }

  uint64_t point = 0;
  ASSERT_TRUE(c.CommitPoint(&point).ok());
  EXPECT_GE(point, static_cast<uint64_t>(kBatch1 + kBatch2));

  c.Close();
  server.Stop();
}

// Instant restart: the restarted server opens its listener before recovery
// completes, HELLO parks until the commit point is pinned, and ops issued
// while shards are still restoring (parked, demand-prioritized, or rejected
// RECOVERING and retried by the client) apply exactly once.
TEST(ServerE2E, InstantRestartServesDuringRecoveryExactlyOnce) {
  const std::string dir = FreshDir();
  constexpr uint32_t kShards = 8;
  constexpr uint64_t kKeys = 32;
  constexpr int kSeedRounds = 2;  // increments per key before the crash

  auto kv1 = std::make_unique<kv::ShardedKv>(ShardedOptions(dir, kShards));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient c(ClientOptions(port));
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();
  for (int r = 0; r < kSeedRounds; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) c.EnqueueRmw(k, 1);
  }
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  for (const auto& r : results) ASSERT_EQ(r.status, net::WireStatus::kOk);
  uint64_t commit = 0;
  ASSERT_TRUE(c.Checkpoint(nullptr, &commit, /*snapshot=*/false,
                           /*include_index=*/true).ok());
  ASSERT_EQ(commit, kSeedRounds * kKeys);

  // Crash the server and store with the round published.
  server1->Stop();
  server1.reset();
  kv1.reset();

  // Restart with recover_on_start: Start() returns with the listener up
  // while the shards restore on a background pool; a single worker keeps
  // the restore window wide enough that some ops really race it.
  kv::ShardedKv::Options sopts = ShardedOptions(dir, kShards);
  sopts.recovery_workers = 1;
  kv::ShardedKv kv(sopts);
  KvServerOptions ropts = ServerOptions(port);
  ropts.recover_on_start = true;
  KvServer server(&kv, ropts);
  ASSERT_TRUE(server.Start().ok());

  // The pre-crash session resumes mid-recovery: HELLO parks until the
  // commit point is pinned, then reports the recovered serial; the replay
  // buffer is empty (everything was covered by the checkpoint response).
  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_EQ(c.recovered_serial(), kSeedRounds * kKeys);
  EXPECT_EQ(c.replay_backlog(), 0u);

  // Ops issued while recovery is (possibly still) in flight: the sync
  // helpers absorb parked waits and RECOVERING retries transparently.
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(c.Rmw(k, 1).ok()) << "key " << k;
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    bool found = false;
    const int64_t v = ReadValue(c, k, &found);
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, kSeedRounds + 1) << "key " << k;  // exactly once
  }

  ASSERT_TRUE(kv.WaitForRecovery().ok());
  // The server's recovery thread stamps recovery_duration_ns after its own
  // WaitForRecovery() returns, which can trail the one above.
  auto counters = server.counters();
  for (int spin = 0; spin < 10'000 && counters.recovery_duration_ns == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    counters = server.counters();
  }
  EXPECT_GT(counters.time_to_first_op_ns, 0u);
  EXPECT_GT(counters.recovery_duration_ns, 0u);

  c.Close();
  server.Stop();
}

// Pipelined ops travel as BATCH frames; a batch touching a still-restoring
// shard must park whole, like a standalone op, rather than answer its
// restoring sub-ops RECOVERING: a pipelining client sees no difference from
// steady state.
TEST(ServerE2E, InstantRestartParksWholeBatch) {
  const std::string dir = FreshDir();
  constexpr uint32_t kShards = 8;
  constexpr uint64_t kKeys = 32;
  constexpr int kSeedRounds = 2;  // increments per key before the crash

  auto kv1 = std::make_unique<kv::ShardedKv>(ShardedOptions(dir, kShards));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient c(ClientOptions(port));
  ASSERT_TRUE(c.Connect().ok());
  for (int r = 0; r < kSeedRounds; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) c.EnqueueRmw(k, 1);
  }
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  for (const auto& r : results) ASSERT_EQ(r.status, net::WireStatus::kOk);
  uint64_t commit = 0;
  ASSERT_TRUE(c.Checkpoint(nullptr, &commit, /*snapshot=*/false,
                           /*include_index=*/true).ok());
  ASSERT_EQ(commit, kSeedRounds * kKeys);

  server1->Stop();
  server1.reset();
  kv1.reset();

  // Slow every storage read down so the batch reliably arrives while most
  // shards are still restoring.
  InjectorScope guard;
  FaultRule slow_reads;
  slow_reads.any_op = false;
  slow_reads.op = FaultOp::kRead;
  slow_reads.sticky = true;
  slow_reads.action = FaultAction::kNone;
  slow_reads.delay_ms = 5;
  guard.inj.AddRule(slow_reads);
  kv::ShardedKv::Options sopts = ShardedOptions(dir, kShards);
  sopts.recovery_workers = 1;
  kv::ShardedKv kv(sopts);
  KvServerOptions ropts = ServerOptions(port);
  ropts.recover_on_start = true;
  KvServer server(&kv, ropts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(c.Reconnect().ok());

  // One increment per key, all shards, one flush: the keys span every
  // shard, so the BATCH frame races the restore of most of them.
  for (uint64_t k = 0; k < kKeys; ++k) c.EnqueueRmw(k, 1);
  ASSERT_TRUE(c.Flush().ok());
  results.clear();
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kKeys));
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(results[k].status, net::WireStatus::kOk) << "key " << k;
  }
  EXPECT_EQ(c.stats().recovering_rejections, 0u);

  for (uint64_t k = 0; k < kKeys; ++k) {
    bool found = false;
    const int64_t v = ReadValue(c, k, &found);
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, kSeedRounds + 1) << "key " << k;  // exactly once
  }

  c.Close();
  server.Stop();
}

// Shutdown drain: queued responses a dying server can still answer must go
// out with an honest status instead of being silently dropped — here a
// durable-gated update whose covering checkpoint never happened is released
// as NOT_DURABLE during Stop().
TEST(ServerE2E, ShutdownDrainReleasesGatedOpsAsNotDurable) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient::Options copts = ClientOptions(server.port());
  copts.ack_mode = net::AckMode::kDurable;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());

  c.EnqueueRmw(1, 5);
  ASSERT_TRUE(c.Flush().ok());
  // Let the worker execute the op; its ack is now gated on a checkpoint
  // that will never run.
  std::vector<CprClient::Result> results;
  for (int spin = 0; spin < 200 && results.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(c.TryDrain(&results).ok());
  }
  ASSERT_TRUE(results.empty());  // gate held while the server lives

  server.Stop();
  ASSERT_TRUE(c.Drain(&results, 1).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, net::WireStatus::kNotDurable);
  // The op stayed in the replay buffer — NOT_DURABLE is not an ack.
  EXPECT_EQ(c.replay_backlog(), 1u);
  EXPECT_EQ(server.counters().not_durable_acks, 1u);
}

// Regression: in durable-ack mode the server releases a READ's ack as soon
// as every earlier update is covered — before any checkpoint covers the
// read's *own* serial. The client must not treat that ack as proof the
// read's serial is durable: trimming the read from the replay buffer would
// make a post-crash replay regenerate every later serial shifted down by
// one, and a sharded store — which dedups replayed ops per shard by serial
// identity — could then skip (silently lose) a replayed update whose
// shifted serial lands at or below a shard's recovered point.
TEST(ServerE2E, ShardedDurableReadAckDoesNotTrimReplay) {
  const std::string dir = FreshDir();
  constexpr uint64_t kKeys = 16;
  constexpr int kBatch1 = 32;  // durably acknowledged via round 1
  constexpr int kTail = 32;    // executed after the read; never durable

  auto kv1 = std::make_unique<kv::ShardedKv>(ShardedOptions(dir));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient::Options copts;
  copts.ack_mode = net::AckMode::kDurable;
  copts.recv_timeout_ms = 2'000;
  copts.port = port;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();

  for (int i = 0; i < kBatch1; ++i) c.EnqueueRmw(i % kKeys, 1);
  c.EnqueueCheckpoint(/*snapshot=*/false, /*include_index=*/true);
  ASSERT_TRUE(c.Flush().ok());
  ASSERT_TRUE(c.Drain(nullptr, kBatch1 + 1).ok());
  EXPECT_EQ(c.durable_serial(), static_cast<uint64_t>(kBatch1));
  EXPECT_EQ(c.replay_backlog(), 0u);

  // The read draws serial kBatch1+1, above the published global commit
  // point. Its ack arrives immediately (all earlier updates are covered)
  // but must leave the replay buffer and the durable point untouched.
  bool found = false;
  ReadValue(c, 0, &found);
  ASSERT_TRUE(found);
  EXPECT_EQ(c.replay_backlog(), 1u);  // the read itself
  EXPECT_EQ(c.durable_serial(), static_cast<uint64_t>(kBatch1));

  // Tail updates execute on the shards but no checkpoint ever covers them.
  for (int i = 0; i < kTail; ++i) c.EnqueueRmw(i % kKeys, 1);
  ASSERT_TRUE(c.Flush().ok());
  EXPECT_EQ(c.replay_backlog(), static_cast<size_t>(1 + kTail));

  // Crash: read and tail only ever lived in volatile memory.
  server1->Stop();
  server1.reset();
  kv1.reset();

  kv::ShardedKv kv(ShardedOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  KvServer server(&kv, ServerOptions(port));
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_EQ(c.recovered_serial(), static_cast<uint64_t>(kBatch1));
  // The replay re-issued the read too, so every tail update regenerated
  // exactly its pre-crash serial.
  EXPECT_EQ(c.stats().replayed_ops, static_cast<uint64_t>(1 + kTail));
  EXPECT_EQ(c.replay_backlog(), 0u);

  // Exactly-once across shards: every tail update re-applied, none skipped.
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t v = ReadValue(c, k, &found);
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, (kBatch1 + kTail) / static_cast<int>(kKeys)) << "key " << k;
  }

  // Serial identity, end to end: the replay round's commit point must land
  // exactly one past the tail (the read kept its slot in the serial space).
  // A shifted replay would end one serial short.
  uint64_t point = 0;
  ASSERT_TRUE(c.CommitPoint(&point).ok());
  EXPECT_EQ(point, static_cast<uint64_t>(kBatch1 + 1 + kTail));

  c.Close();
  server.Stop();
}

// -- STATS: observability over the wire -------------------------------------

// Pulls every (name, id) pair out of an exported Chrome trace. Each event
// serializes as {...,"name":"X",...,"args":{"id":N}}.
std::vector<std::pair<std::string, uint64_t>> TraceEvents(
    const std::string& json) {
  std::vector<std::pair<std::string, uint64_t>> out;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    const size_t name_start = pos + 9;
    const size_t name_end = json.find('"', name_start);
    const size_t id_key = json.find("\"args\":{\"id\":", name_end);
    if (name_end == std::string::npos || id_key == std::string::npos) break;
    out.emplace_back(json.substr(name_start, name_end - name_start),
                     std::strtoull(json.c_str() + id_key + 13, nullptr, 10));
    pos = name_end;
  }
  return out;
}

// First value of a metric family in the text exposition (any label set), or
// -1 when the family never appears.
double MetricValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    if (pos > 0 && text[pos - 1] != '\n') {  // header or substring hit
      pos += name.size();
      continue;
    }
    const size_t sp = text.find(' ', pos);
    if (sp == std::string::npos) break;
    // Skip label block, if any, by finding the space before the value.
    return std::strtod(text.c_str() + sp + 1, nullptr);
  }
  return -1.0;
}

TEST(ServerE2E, StatsScrapeCoversAllLayers) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(c.Rmw(i, 1).ok());
  ASSERT_TRUE(c.Checkpoint(nullptr, nullptr, false, true).ok());

  std::string text;
  ASSERT_TRUE(c.ServerStats(&text).ok());
  ASSERT_FALSE(text.empty());
  // Server layer.
  EXPECT_GE(MetricValue(text, "cpr_server_requests_total"), 22.0) << text;
  EXPECT_GE(MetricValue(text, "cpr_server_checkpoints_total"), 1.0);
  EXPECT_GE(MetricValue(text, "cpr_server_not_durable_acks_engine_total"),
            0.0);
  EXPECT_GE(MetricValue(text, "cpr_server_not_durable_acks_degraded_total"),
            0.0);
  // Engine layer: the checkpoint left nonzero phase time behind.
  EXPECT_NE(text.find("cpr_faster_checkpoint_phase_ns_total{phase=\"prepare\""),
            std::string::npos);
  EXPECT_GE(MetricValue(text, "cpr_faster_checkpoints_started_total"), 1.0);
  // Epoch table (registered per store, labeled).
  EXPECT_NE(text.find("cpr_epoch_current{"), std::string::npos);
  // IO pool: the checkpoint flushed through it.
  EXPECT_GE(MetricValue(text, "cpr_io_jobs_total"), 1.0);

  // The engine's per-phase checkpoint time reads back from the registry.
  uint64_t phase_total = 0;
  for (const char* phase : faster::kCheckpointPhaseNames) {
    phase_total += faster::CheckpointPhaseNs(phase)->Value();
  }
  EXPECT_GT(phase_total, 0u);

  c.Close();
  server.Stop();
}

// Durable-lag quantiles come from log2 buckets whose upper bound can exceed
// every recorded sample; the snapshot and the exported p50/p99 are clamped
// to the recorded max.
TEST(ServerE2E, DurableLagQuantilesNeverExceedMax) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServerOptions so = ServerOptions();
  so.checkpoint_interval_ms = 20;
  KvServer server(&kv, so);
  ASSERT_TRUE(server.Start().ok());

  CprClient::Options copts = ClientOptions(server.port());
  copts.ack_mode = net::AckMode::kDurable;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());
  for (int i = 0; i < 50; ++i) c.EnqueueRmw(i % 4, 1);
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results, 50).ok());
  ASSERT_EQ(results.size(), 50u);

  std::string text;
  ASSERT_TRUE(c.ServerStats(&text).ok());
  const auto counters = server.counters();
  ASSERT_GT(counters.durable_lag.count, 0u);
  EXPECT_LE(counters.DurableLagQuantile(0.99), counters.durable_lag_max_ns);
  const double max = MetricValue(text, "cpr_server_durable_lag_max_ns");
  EXPECT_GT(max, 0.0) << text;
  EXPECT_LE(MetricValue(text, "cpr_server_durable_lag_p50_ns"), max);
  EXPECT_LE(MetricValue(text, "cpr_server_durable_lag_p99_ns"), max);

  c.Close();
  server.Stop();
}

// Stop() shuts the listener down and joins the acceptor before closing the
// fd, so the acceptor never reads listen_fd_ mid-write or a reused fd number.
// Repeated cycles (with and without a client) let TSan see any such race.
TEST(ServerE2E, RepeatedStartStopIsClean) {
  FasterKv kv(SmallOptions(FreshDir()));
  for (int i = 0; i < 20; ++i) {
    KvServer server(&kv, ServerOptions());
    ASSERT_TRUE(server.Start().ok());
    if (i % 2 == 0) {
      CprClient c(ClientOptions(server.port()));
      ASSERT_TRUE(c.Connect().ok());
      ASSERT_TRUE(c.Rmw(1, 1).ok());
      c.Close();
    }
    server.Stop();
    EXPECT_FALSE(server.running());
  }
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  bool found = false;
  EXPECT_EQ(ReadValue(c, 1, &found), 10);  // one RMW per client cycle
  c.Close();
  server.Stop();
}

TEST(ServerE2E, StatsTraceJsonHasCheckpointLifecycle) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(c.Rmw(i, 1).ok());
  ASSERT_TRUE(c.Checkpoint(nullptr, nullptr, false, true).ok());

  std::string json;
  ASSERT_TRUE(c.ServerTrace(&json).ok());
  const auto events = TraceEvents(json);
  ASSERT_FALSE(events.empty());
  // At least one checkpoint completed its full lifecycle: a prepare span and
  // a wait_flush span correlated by the same id (the checkpoint token).
  bool complete_round = false;
  for (const auto& [name, id] : events) {
    if (name != "prepare") continue;
    for (const auto& [name2, id2] : events) {
      if (name2 == "wait_flush" && id2 == id) complete_round = true;
    }
  }
  EXPECT_TRUE(complete_round) << json;
  // The index artifact write is traced too (include_index was set).
  bool index_flush = false;
  for (const auto& [name, id] : events) {
    if (name == "index_flush") index_flush = true;
  }
  EXPECT_TRUE(index_flush);

  c.Close();
  server.Stop();
}

TEST(ServerE2E, StatsNeedsNoSession) {
  // Monitoring must work on a bare connection: STATS before HELLO.
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  net::Request req;
  req.op = net::Op::kStats;
  req.seq = 9;
  req.stats_kind = net::StatsKind::kMetricsText;
  std::vector<char> frame;
  net::EncodeRequest(req, &frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  std::vector<char> buf;
  net::Response resp;
  while (true) {
    std::string_view payload;
    size_t consumed = 0;
    const net::FrameResult fr =
        net::TryExtractFrame(buf.data(), buf.size(), &payload, &consumed);
    ASSERT_NE(fr, net::FrameResult::kBadFrame);
    if (fr == net::FrameResult::kFrame) {
      ASSERT_TRUE(net::DecodeResponse(payload, &resp));
      break;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    buf.insert(buf.end(), chunk, chunk + n);
  }
  EXPECT_EQ(resp.op, net::Op::kStats);
  EXPECT_EQ(resp.status, net::WireStatus::kOk);
  EXPECT_EQ(resp.seq, 9u);
  const std::string text(resp.stats.begin(), resp.stats.end());
  EXPECT_NE(text.find("cpr_server_requests_total"), std::string::npos);

  ::close(fd);
  server.Stop();
}

TEST(ServerE2E, ShardedStatsCoverCoordinatedRounds) {
  kv::ShardedKv kv(ShardedOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  for (uint64_t k = 0; k < 64; ++k) {
    const int64_t v = 1;
    ASSERT_TRUE(c.Upsert(k, &v).ok());
  }
  ASSERT_TRUE(c.Checkpoint(nullptr, nullptr, false, true).ok());

  std::string text;
  ASSERT_TRUE(c.ServerStats(&text).ok());
  EXPECT_GE(MetricValue(text, "cpr_shard_rounds_total"), 1.0) << text;
  EXPECT_NE(text.find("cpr_shard_count"), std::string::npos);
  EXPECT_NE(text.find("cpr_shard_ops_total{shard=\"0\"}"), std::string::npos);

  std::string json;
  ASSERT_TRUE(c.ServerTrace(&json).ok());
  const auto events = TraceEvents(json);
  bool broadcast = false;
  bool publish = false;
  for (const auto& [name, id] : events) {
    if (name == "broadcast") broadcast = true;
    if (name == "publish_manifest") publish = true;
  }
  EXPECT_TRUE(broadcast) << json;
  EXPECT_TRUE(publish) << json;

  c.Close();
  server.Stop();
}

// The per-op critical-path stages must partition the recv->write-done
// interval exactly: over any quiesced window, each stage histogram saw the
// same number of ops as the e2e histogram and the per-stage sums telescope
// to the e2e sum — no microsecond unaccounted for.
TEST(ServerE2E, ReqStageBreakdownPartitionsEndToEnd) {
  auto& reg = obs::MetricsRegistry::Default();
  auto stage_hist = [&reg](uint32_t i) {
    return reg.GetHistogram(std::string("cpr_req_stage_ns{stage=\"") +
                            obs::kReqStageNames[i] + "\"}");
  };
  // The registry is process-global and cumulative: measure this server's
  // contribution as a delta around the run.
  obs::HistogramData stage_base[obs::kNumReqStages];
  for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
    stage_base[i] = stage_hist(i)->Sample();
  }
  const obs::HistogramData e2e_base =
      reg.GetHistogram("cpr_req_e2e_ns")->Sample();

  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(c.Rmw(i, 1).ok());
  ASSERT_TRUE(c.Checkpoint().ok());
  c.Close();
  server.Stop();  // quiesce: every worker has folded its spans in

  const obs::HistogramData e2e =
      reg.GetHistogram("cpr_req_e2e_ns")->Sample();
  const uint64_t e2e_count = e2e.count - e2e_base.count;
  const uint64_t e2e_sum = e2e.sum - e2e_base.sum;
  EXPECT_GE(e2e_count, 32u);  // every data op got a span
  EXPECT_GT(e2e_sum, 0u);
  uint64_t stage_sum_total = 0;
  for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
    const obs::HistogramData s = stage_hist(i)->Sample();
    EXPECT_EQ(s.count - stage_base[i].count, e2e_count)
        << "stage " << obs::kReqStageNames[i];
    stage_sum_total += s.sum - stage_base[i].sum;
  }
  EXPECT_EQ(stage_sum_total, e2e_sum);
}

TEST(ServerE2E, StatsHealthAndBreakdownRoundTrip) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServerOptions opts = ServerOptions();
  opts.watchdog_interval_ms = 5;
  KvServer server(&kv, opts);
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(c.Rmw(i, 1).ok());

  // kHealth: the watchdog record, with every registered stall predicate.
  std::string health;
  ASSERT_TRUE(c.ServerHealth(&health).ok());
  EXPECT_NE(health.find("\"health\":\"OK\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"checks\":["), std::string::npos) << health;
  for (const char* check :
       {"checkpoint_stuck", "recovery_stalled", "parked_pinned",
        "durable_lag_growing", "switch_overdue"}) {
    EXPECT_NE(health.find(std::string("\"name\":\"") + check + "\""),
              std::string::npos)
        << health;
  }

  // kReqBreakdown: the cumulative per-stage latency breakdown, populated by
  // the ops above.
  std::string breakdown;
  ASSERT_TRUE(c.ServerBreakdown(&breakdown).ok());
  EXPECT_NE(breakdown.find("\"stages\":{"), std::string::npos) << breakdown;
  for (uint32_t i = 0; i < obs::kNumReqStages; ++i) {
    EXPECT_NE(breakdown.find(std::string("\"") + obs::kReqStageNames[i] +
                             "\":{\"count\":"),
              std::string::npos)
        << breakdown;
  }
  EXPECT_NE(breakdown.find("\"e2e_ns\":{"), std::string::npos) << breakdown;
  EXPECT_EQ(breakdown.find("\"recorded_ops\":0,"), std::string::npos)
      << breakdown;

  c.Close();
  server.Stop();
}

// -- BATCH frames end to end --------------------------------------------------

// Pipelined data ops travel coalesced into BATCH frames; batching is
// transport-level only, so results, order and serials are per op — and a
// miss inside a batch still answers its own NOT_FOUND.
TEST(ServerE2E, BatchedPipelineKeepsOrderAndSerials) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServer server(&kv, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  CprClient c(ClientOptions(server.port()));
  ASSERT_TRUE(c.Connect().ok());

  constexpr int kOps = 4000;  // also an ack-burst drain regression: one
                              // Drain consumes thousands of buffered frames
  for (int i = 0; i < kOps; ++i) c.EnqueueRmw(i % 16, 1);
  for (int i = 0; i < 16; ++i) c.EnqueueRead(i);
  c.EnqueueRead(99999);  // miss inside a batch: per-op NOT_FOUND status
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kOps + 17));

  uint64_t prev_serial = 0;
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(results[i].op, net::Op::kRmw);
    EXPECT_EQ(results[i].status, net::WireStatus::kOk);
    ASSERT_EQ(results[i].serial, prev_serial + 1);
    prev_serial = results[i].serial;
  }
  for (int i = 0; i < 16; ++i) {
    const auto& r = results[kOps + i];
    EXPECT_EQ(r.op, net::Op::kRead);
    ASSERT_EQ(r.status, net::WireStatus::kOk);
    int64_t v = 0;
    std::memcpy(&v, r.value.data(), sizeof(v));
    EXPECT_EQ(v, kOps / 16);
  }
  EXPECT_EQ(results[kOps + 16].status, net::WireStatus::kNotFound);

  c.Close();
  server.Stop();
  // The server counted every sub-op as a request and answered all of them.
  const auto counters = server.counters();
  EXPECT_GE(counters.requests, static_cast<uint64_t>(kOps + 17));
  EXPECT_EQ(counters.requests, counters.responses);
}

// The headline crash story over BATCH frames: the durably-acked prefix
// survives, the unacked suffix replays (as BATCH frames) exactly once.
TEST(ServerE2E, BatchedCrashRecoveryDurableClientExactlyOnce) {
  const std::string dir = FreshDir();
  constexpr uint64_t kKeys = 10;
  constexpr int kBatch1 = 50;
  constexpr int kBatch2 = 30;

  auto kv1 = std::make_unique<FasterKv>(SmallOptions(dir));
  auto server1 = std::make_unique<KvServer>(kv1.get(), ServerOptions());
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  CprClient::Options copts;
  copts.ack_mode = net::AckMode::kDurable;
  copts.recv_timeout_ms = 2'000;
  copts.port = port;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t guid = c.guid();

  for (int i = 0; i < kBatch1; ++i) c.EnqueueRmw(i % kKeys, 1);
  c.EnqueueCheckpoint(/*snapshot=*/false, /*include_index=*/true);
  ASSERT_TRUE(c.Flush().ok());
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kBatch1 + 1));
  for (int i = 0; i < kBatch1 + 1; ++i) {
    ASSERT_EQ(results[i].status, net::WireStatus::kOk);
  }
  EXPECT_GE(c.durable_serial(), static_cast<uint64_t>(kBatch1));
  EXPECT_EQ(c.replay_backlog(), 0u);

  for (int i = 0; i < kBatch2; ++i) c.EnqueueRmw(i % kKeys, 1);
  ASSERT_TRUE(c.Flush().ok());
  EXPECT_EQ(c.replay_backlog(), static_cast<size_t>(kBatch2));

  server1->Stop();
  server1.reset();
  kv1.reset();

  FasterKv kv(SmallOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  KvServer server(&kv, ServerOptions(port));
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(c.Reconnect().ok());
  EXPECT_EQ(c.guid(), guid);
  EXPECT_EQ(c.recovered_serial(), static_cast<uint64_t>(kBatch1));
  EXPECT_EQ(c.replay_backlog(), 0u);
  EXPECT_GE(c.durable_serial(), static_cast<uint64_t>(kBatch1 + kBatch2));

  for (uint64_t k = 0; k < kKeys; ++k) {
    bool found = false;
    const int64_t v = ReadValue(c, k, &found);
    ASSERT_TRUE(found) << "key " << k;
    EXPECT_EQ(v, (kBatch1 + kBatch2) / static_cast<int>(kKeys))
        << "key " << k;
  }

  c.Close();
  server.Stop();
}

// -- Slow-reader flow control -------------------------------------------------

// A client that floods STATS requests without draining responses pushes the
// connection's outbuf past the soft cap: the server must stop reading from
// it (counted), then resume and deliver everything once the client drains.
TEST(ServerE2E, SlowReaderSoftCapThrottlesThenResumes) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServerOptions sopts = ServerOptions();
  sopts.outbuf_soft_cap_bytes = 16u << 10;
  sopts.outbuf_hard_cap_bytes = 0;  // this test is about throttling only
  KvServer server(&kv, sopts);
  ASSERT_TRUE(server.Start().ok());

  CprClient::Options copts = ClientOptions(server.port());
  copts.recv_timeout_ms = 10'000;
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());

  // Each metrics-text response is multiple KB; a few thousand of them far
  // exceed what the kernel socket buffers can absorb, so the backlog must
  // cross the soft cap while this thread is not yet reading.
  constexpr int kStats = 3000;
  for (int i = 0; i < kStats; ++i) c.EnqueueStats();
  ASSERT_TRUE(c.Flush().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().slow_reader_throttled == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.counters().slow_reader_throttled, 1u);

  // Drain everything: reads resume server-side, nothing is lost or closed.
  std::vector<CprClient::Result> results;
  ASSERT_TRUE(c.Drain(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kStats));
  for (const auto& r : results) {
    EXPECT_EQ(r.status, net::WireStatus::kOk);
    EXPECT_FALSE(r.stats.empty());
  }
  EXPECT_EQ(server.counters().slow_reader_closed, 0u);

  c.Close();
  server.Stop();
}

// Past the hard cap the server stops buffering for a non-draining peer and
// closes the connection instead of growing the outbuf without bound.
TEST(ServerE2E, SlowReaderHardCapClosesConnection) {
  FasterKv kv(SmallOptions(FreshDir()));
  KvServerOptions sopts = ServerOptions();
  sopts.outbuf_soft_cap_bytes = 0;  // keep reading: force outbuf growth
  sopts.outbuf_hard_cap_bytes = 256u << 10;
  KvServer server(&kv, sopts);
  ASSERT_TRUE(server.Start().ok());

  CprClient::Options copts = ClientOptions(server.port());
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());

  constexpr int kStats = 3000;
  for (int i = 0; i < kStats; ++i) c.EnqueueStats();
  ASSERT_TRUE(c.Flush().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().slow_reader_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.counters().slow_reader_closed, 1u);

  // The connection is gone: draining all 3000 responses must fail partway.
  std::vector<CprClient::Result> results;
  EXPECT_FALSE(c.Drain(&results, kStats).ok());

  c.Close();
  server.Stop();
}

// -- SendAll under a tiny send buffer -----------------------------------------

// Regression for two SendAll bugs: send() returning 0 surfaced a stale-errno
// IoError, and EAGAIN (SO_SNDTIMEO expiry on a full buffer) was treated as
// fatal instead of waiting for writability. A stub server that answers HELLO
// and then stalls longer than the client's send timeout forces the full
// buffer; the client must wait out the stall and complete the flush.
TEST(ServerE2E, SendAllSurvivesFullSendBufferStall) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  const int rcvbuf = 4096;  // inherited by the accepted socket: tiny window
  setsockopt(lfd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const uint16_t port = ntohs(addr.sin_port);

  constexpr int kOps = 8000;
  std::thread stub([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(cfd, 0);
    // Read the HELLO frame (header, then exactly the payload).
    char buf[4096];
    size_t got = 0;
    uint32_t len = 0;
    while (got < net::kFrameHeaderBytes) {
      const ssize_t n = ::recv(cfd, buf + got, sizeof(buf) - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    std::memcpy(&len, buf, sizeof(len));
    while (got < net::kFrameHeaderBytes + len) {
      const ssize_t n = ::recv(cfd, buf + got, sizeof(buf) - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    net::Request hello;
    ASSERT_TRUE(net::DecodeRequest(
        std::string_view(buf + net::kFrameHeaderBytes, len), &hello));
    net::Response resp;
    resp.op = net::Op::kHello;
    resp.status = net::WireStatus::kOk;
    resp.seq = hello.seq;
    resp.guid = 7;
    resp.recovered_serial = 0;
    resp.value_size = 8;
    std::vector<char> frame;
    net::EncodeResponse(resp, &frame);
    ASSERT_EQ(::send(cfd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    // Stall: longer than one send timeout, shorter than two, so the client
    // exhausts its send buffer, times out inside send(), and sits in the
    // POLLOUT wait when draining starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    size_t drained = 0;
    while (true) {
      const ssize_t n = ::recv(cfd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      drained += static_cast<size_t>(n);
    }
    // Every byte of the burst arrived: 8000 RMW sub-frames, 25 bytes each,
    // coalesced into full BATCH frames with a 13-byte header each
    // (u32 len | u8 op | u32 seq | u32 n).
    static_assert(kOps % CprClient::kBatchMaxOps == 0);
    EXPECT_EQ(drained, static_cast<size_t>(kOps) * 25 +
                           static_cast<size_t>(kOps / CprClient::kBatchMaxOps) *
                               13);
    ::close(cfd);
  });

  CprClient::Options copts;
  copts.port = port;
  copts.so_sndbuf = 4096;
  copts.send_timeout_ms = 400;
  copts.track_replay = false;  // keep the 8000-op burst cheap
  CprClient c(copts);
  ASSERT_TRUE(c.Connect().ok());

  for (int i = 0; i < kOps; ++i) c.EnqueueRmw(i, 1);
  // ~200 KB against a 4 KB send buffer and a stalled reader: with the old
  // SendAll this failed with IoError the moment the buffer filled.
  ASSERT_TRUE(c.Flush().ok());

  c.Close();  // stub's recv sees the close and finishes counting
  stub.join();
  ::close(lfd);
}

}  // namespace
}  // namespace cpr
