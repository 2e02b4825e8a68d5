#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <span>
#include <unordered_map>

#include "shard/faster_backend.h"
#include "util/clock.h"

#if defined(__linux__) && !defined(CPR_FORCE_POLL)
#define CPR_HAVE_EPOLL 1
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

namespace cpr::server {
namespace {

constexpr uint32_t kReadable = 1;
constexpr uint32_t kWritable = 2;
constexpr uint32_t kHangup = 4;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// The data ops a frame carries: a BATCH's sub-ops, or the frame itself.
std::span<const net::Request> FrameOps(const net::Request& req) {
  if (req.op == net::Op::kBatch) return req.batch;
  return {&req, 1};
}

// Level-triggered readiness over a set of fds: epoll on Linux, poll(2)
// elsewhere (or with -DCPR_FORCE_POLL).
class Poller {
 public:
  ~Poller() {
#ifdef CPR_HAVE_EPOLL
    if (epfd_ >= 0) ::close(epfd_);
#endif
  }

  bool Init() {
#ifdef CPR_HAVE_EPOLL
    epfd_ = epoll_create1(0);
    return epfd_ >= 0;
#else
    return true;
#endif
  }

  void Add(int fd) {
#ifdef CPR_HAVE_EPOLL
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
#else
    fds_.push_back(pollfd{fd, POLLIN, 0});
#endif
  }

  // Read interest can be masked too (slow-reader throttling): with no
  // events of interest the fd stays registered but silent until the backlog
  // drains and reads are re-armed.
  void SetInterest(int fd, bool read, bool write) {
#ifdef CPR_HAVE_EPOLL
    epoll_event ev{};
    ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
#else
    for (auto& p : fds_) {
      if (p.fd == fd) {
        p.events = static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
        return;
      }
    }
#endif
  }

  void Remove(int fd) {
#ifdef CPR_HAVE_EPOLL
    epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#else
    fds_.erase(std::remove_if(fds_.begin(), fds_.end(),
                              [fd](const pollfd& p) { return p.fd == fd; }),
               fds_.end());
#endif
  }

  void Wait(int timeout_ms, std::vector<std::pair<int, uint32_t>>* out) {
    out->clear();
#ifdef CPR_HAVE_EPOLL
    epoll_event events[128];
    const int n = epoll_wait(epfd_, events, 128, timeout_ms);
    for (int i = 0; i < n; ++i) {
      uint32_t flags = 0;
      if (events[i].events & EPOLLIN) flags |= kReadable;
      if (events[i].events & EPOLLOUT) flags |= kWritable;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) flags |= kHangup;
      out->emplace_back(static_cast<int>(events[i].data.fd), flags);
    }
#else
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      uint32_t flags = 0;
      if (p.revents & POLLIN) flags |= kReadable;
      if (p.revents & POLLOUT) flags |= kWritable;
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) flags |= kHangup;
      out->emplace_back(p.fd, flags);
    }
#endif
  }

 private:
#ifdef CPR_HAVE_EPOLL
  int epfd_ = -1;
#else
  std::vector<pollfd> fds_;
#endif
};

}  // namespace

// A response slot in a connection's FIFO. Responses are released strictly
// in request order; a slot can be unfilled (operation went async) or gated
// (durable ack / checkpoint completion).
struct KvServer::PendingResponse {
  bool ready = false;
  uint64_t durable_gate = 0;  // release when durable point >= this serial
  uint64_t token_gate = 0;    // release when LastCheckpointToken() >= this
  uint64_t serial = 0;        // async completion matching
  // CheckpointFailures() sampled when the durable gate was armed. If the
  // store reports more failures later while the gate still hasn't opened,
  // the covering checkpoint failed persistently: release as NOT_DURABLE
  // instead of hanging the session.
  uint64_t failures_at_enqueue = 0;
  // When the durable gate was armed (execution time); the execute→durable
  // lag is recorded when the gate opens.
  uint64_t enqueue_ns = 0;
  // Request tracing (obs::ReqTrace). Data/TXN ops that reached the backend
  // set traced and the stamps below; the stage widths are derived at release
  // and write time so they partition [t_recv, write-done] exactly.
  bool traced = false;
  uint64_t t_recv = 0;        // frame bytes were available (span start)
  uint64_t park_ns = 0;       // accumulated instant-restart park wait
  uint64_t t_exec_start = 0;  // backend dispatch began
  uint64_t t_ready = 0;       // execution result known (sync or async)
  // BATCH membership: all sub-ops of one BATCH frame release atomically as
  // one response frame. Every member sets in_batch; the FIRST member also
  // carries the group size and the outer frame's seq.
  bool in_batch = false;
  uint32_t batch_size = 0;
  uint32_t batch_seq = 0;
  net::Response resp;
};

struct KvServer::Connection {
  int fd = -1;
  Worker* worker = nullptr;
  kv::Session* session = nullptr;
  uint64_t guid = 0;
  net::AckMode ack_mode = net::AckMode::kExecuted;
  std::vector<char> inbuf;
  std::vector<char> outbuf;
  size_t out_off = 0;
  std::deque<PendingResponse> queue;
  bool want_write = false;
  bool want_read = true;
  bool closed = false;
  // A malformed frame was answered with a best-effort BAD_REQUEST: stop
  // reading, flush what is queued, then close (framing is unreliable past
  // the bad frame).
  bool close_after_flush = false;
  // Cached durable commit point; re-queried when a checkpoint completes.
  uint64_t durable_point = 0;
  uint64_t durable_token_seen = 0;
  // TXN_CHUNK staging: ops accumulated for a chunked logical transaction.
  // Non-empty between the first chunk and the final TXN frame; every frame
  // of the transaction must carry txn_stage_seq.
  std::vector<net::TxnWireOp> txn_stage;
  uint32_t txn_stage_seq = 0;
  uint32_t txn_next_chunk = 0;
  // Instant restart: one request may park here waiting for its shard to
  // finish restoring (or, for HELLO, for the commit point to be pinned).
  // While parked the connection stops consuming frames, so every later
  // request waits unread in inbuf and per-session serial order holds.
  bool parked = false;
  uint32_t parked_shard = 0;
  net::Request parked_req;
  // Request-tracing stamps. recv_batch_ns is (re)stamped whenever frame
  // consumption (re)starts, so each op's decode stage covers only its own
  // extract+decode+dispatch; req_recv_ns/req_park_ns describe the frame
  // currently being handled (park wait accumulates across re-parks).
  uint64_t recv_batch_ns = 0;
  uint64_t req_recv_ns = 0;
  uint64_t req_park_ns = 0;
  uint64_t parked_since_ns = 0;
  // Ack/write attribution survives outbuf compaction by tracking cumulative
  // bytes queued/sent instead of buffer offsets: a traced frame's bytes have
  // reached the kernel once cum_sent covers its frame_end.
  uint64_t cum_queued = 0;
  uint64_t cum_sent = 0;
  struct WriteTrack {
    uint64_t frame_end = 0;    // cum_queued after this frame was encoded
    uint64_t encoded_ns = 0;   // ack serialize finished
    obs::ReqSpan span;         // stages through kAck filled; kWrite pending
  };
  std::deque<WriteTrack> write_track;
};

struct KvServer::Worker {
  uint32_t id = 0;
  std::thread thread;
  Poller poller;
  int wake_r = -1;
  int wake_w = -1;
  std::mutex mu;
  std::vector<int> incoming;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
};

KvServer::KvServer(kv::Backend* backend, KvServerOptions options)
    : kv_(backend), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

KvServer::KvServer(faster::FasterKv* kv, KvServerOptions options)
    : owned_backend_(std::make_unique<kv::FasterBackend>(kv)),
      kv_(owned_backend_.get()),
      options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

KvServer::~KvServer() { Stop(); }

Status KvServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  stop_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind() failed: " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  workers_.clear();
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->id = i;
    int pipefd[2];
    if (pipe(pipefd) != 0 || !w->poller.Init()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      workers_.clear();
      return Status::IoError("worker setup failed");
    }
    w->wake_r = pipefd[0];
    w->wake_w = pipefd[1];
    SetNonBlocking(w->wake_r);
    SetNonBlocking(w->wake_w);
    w->poller.Add(w->wake_r);
    workers_.push_back(std::move(w));
  }
  // Per-run state the workers read: set before any of them starts.
  last_periodic_ckpt_ns_ = NowNanos();
  adaptive_policy_ = durability::AdaptivePolicy(options_.adaptive);
  last_adaptive_ns_ = 0;
  serve_start_ns_ = NowNanos();
  first_op_served_.store(false, std::memory_order_relaxed);
  recovery_installed_.store(!options_.recover_on_start,
                            std::memory_order_release);
  recovery_done_.store(!options_.recover_on_start, std::memory_order_release);
  for (auto& w : workers_) {
    Worker* raw = w.get();
    w->thread = std::thread([this, raw] { WorkerLoop(*raw); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });

  // Instant restart: the listener is already up, so HELLO and STATS answer
  // immediately; backend recovery (if requested) proceeds on its own thread
  // while data ops park or serve per shard readiness.
  if (options_.recover_on_start) {
    recovery_thread_ = std::thread([this] { RecoveryMain(); });
  }

  // Absorb ServerCounters into the unified registry: the hot paths keep
  // recording into the relaxed atomics; STATS scrapes pull from here.
  obs_collector_id_ = obs::MetricsRegistry::Default().AddCollector(
      [this](const obs::MetricsRegistry::EmitFn& emit) {
        ServerCounters::Export(counters_.Sample(), emit);
      });

  // Per-request critical-path recorder (process-global; stage histograms
  // land in the default registry, sampled spans in the shared ring).
  reqtrace_ = &obs::ReqTrace::Default();
  if (options_.reqtrace_sample != 0) {
    reqtrace_->set_sample_every(options_.reqtrace_sample);
  }

  // Health watchdog: stall predicates over the machinery that can hang
  // silently. Every check is a cheap read of atomics/backend progress
  // tokens; escalation and dumping live in obs::Watchdog.
  {
    obs::WatchdogOptions wd;
    wd.interval_ms = options_.watchdog_interval_ms;
    wd.warn_evals = options_.watchdog_warn_evals;
    wd.stall_evals = options_.watchdog_stall_evals;
    wd.dump_path = options_.watchdog_dump_path;
    watchdog_ = std::make_unique<obs::Watchdog>(wd);
    watchdog_->SetDumpExtra(
        [this] { return reqtrace_->RenderSpansText(); });
    // (a) A checkpoint round stuck: in flight, yet no round has finished
    // since the previous evaluation.
    watchdog_->AddCheck(
        "checkpoint_stuck", [this, last_finished = uint64_t{0}]() mutable {
          obs::Probe p;
          const uint64_t finished = kv_->LastFinishedToken();
          if (kv_->CheckpointInProgress() && finished == last_finished) {
            p.suspicious = true;
            p.evidence = static_cast<int64_t>(kv_->LastCheckpointToken());
            p.detail = "checkpoint in flight, no round finished since last "
                       "evaluation (last_finished=" +
                       std::to_string(finished) + ")";
          }
          last_finished = finished;
          return p;
        });
    // (b) Recovery making no progress: still recovering and the number of
    // ready shards did not advance since the previous evaluation.
    watchdog_->AddCheck(
        "recovery_stalled", [this, last_ready = uint32_t{0}]() mutable {
          obs::Probe p;
          if (kv_->Recovering()) {
            uint32_t ready = 0;
            for (uint32_t i = 0; i < kv_->num_shards(); ++i) {
              if (kv_->ShardReady(i)) ++ready;
            }
            if (ready == last_ready) {
              p.suspicious = true;
              p.evidence = static_cast<int64_t>(ready);
              p.detail = "recovering with " + std::to_string(ready) + "/" +
                         std::to_string(kv_->num_shards()) +
                         " shards ready, no progress since last evaluation";
            }
            last_ready = ready;
          } else {
            last_ready = 0;
          }
          return p;
        });
    // (c) Parked-op queue pinned at capacity: every new cold-shard op is
    // being rejected RECOVERING.
    watchdog_->AddCheck("parked_pinned", [this] {
      obs::Probe p;
      const uint32_t parked = parked_ops_.load(std::memory_order_relaxed);
      if (options_.max_parked_ops > 0 && parked >= options_.max_parked_ops) {
        p.suspicious = true;
        p.evidence = static_cast<int64_t>(parked);
        p.detail = "parked ops pinned at capacity " +
                   std::to_string(options_.max_parked_ops);
      }
      return p;
    });
    // (d) Durable lag growing monotonically: the backlog of armed-but-
    // unreleased durable gates kept growing across evaluations (acks are
    // falling ever further behind execution).
    watchdog_->AddCheck(
        "durable_lag_growing", [this, last_outstanding = int64_t{0}]() mutable {
          obs::Probe p;
          const ServerCounters::Snapshot s = counters_.Sample();
          const int64_t outstanding = static_cast<int64_t>(s.durable_held) -
                                      static_cast<int64_t>(s.durable_lag.count) -
                                      static_cast<int64_t>(s.not_durable_acks);
          if (outstanding > 0 && last_outstanding > 0 &&
              outstanding >= last_outstanding) {
            p.suspicious = true;
            p.evidence = outstanding;
            p.detail = "durable-gated backlog not shrinking (" +
                       std::to_string(outstanding) + " acks outstanding)";
          }
          last_outstanding = outstanding;
          return p;
        });
    // (e) Provider switch pending past its boundary: a checkpoint boundary
    // completed after the switch was requested and it still has not landed.
    watchdog_->AddCheck(
        "switch_overdue",
        [this, first_finished = uint64_t{0}, was_pending = false]() mutable {
          obs::Probe p;
          const bool pending = kv_->ProviderSwitchPending();
          const uint64_t finished = kv_->LastFinishedToken();
          if (pending) {
            if (!was_pending) {
              first_finished = finished;
            } else if (finished > first_finished) {
              p.suspicious = true;
              p.evidence = static_cast<int64_t>(finished - first_finished);
              p.detail = "provider switch still pending after " +
                         std::to_string(finished - first_finished) +
                         " completed checkpoint boundaries";
            }
          }
          was_pending = pending;
          return p;
        });
    if (options_.watchdog_interval_ms > 0) watchdog_->Start();
  }

  running_.store(true, std::memory_order_release);
  return Status::Ok();
}

void KvServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Watchdog first: its checks read the backend and counters, which are
  // about to be drained/torn down.
  if (watchdog_) watchdog_->Stop();
  obs::MetricsRegistry::Default().RemoveCollector(obs_collector_id_);
  stop_.store(true, std::memory_order_release);
  // shutdown() wakes the blocked accept(); close only after the join, so
  // the acceptor never reads listen_fd_ mid-write or a reused fd number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& w : workers_) {
    (void)!::write(w->wake_w, "x", 1);
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Let background recovery conclude: the backend's shard state must be
  // settled before sessions are drained and before the backend is reusable.
  if (recovery_thread_.joinable()) recovery_thread_.join();
  // Workers have parked every still-pending session in draining_ /
  // detached_. Drive them together so cross-session dependencies (a CPR
  // wait-pending phase needs *all* sessions' pendings to finish) resolve,
  // then stop each one.
  std::vector<kv::Session*> leftovers;
  {
    std::lock_guard<std::mutex> lock(draining_mu_);
    leftovers.swap(draining_);
  }
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    for (auto& [guid, s] : detached_) leftovers.push_back(s);
    detached_.clear();
  }
  ShutdownDrainSessions(std::move(leftovers));
  for (auto& w : workers_) {
    ::close(w->wake_r);
    ::close(w->wake_w);
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(guids_mu_);
    live_guids_.clear();
  }
  running_.store(false, std::memory_order_release);
}

void KvServer::ShutdownDrainSessions(std::vector<kv::Session*> sessions) {
  bool pending = true;
  while (pending) {
    pending = false;
    for (kv::Session* s : sessions) {
      kv_->CompletePending(*s);
      kv_->Refresh(*s);
      if (s->pending_count() > 0) pending = true;
    }
    if (pending) std::this_thread::yield();
  }
  for (kv::Session* s : sessions) kv_->StopSession(s);
}

void KvServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket gone
    }
    if (counters_.connections_active.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_active.fetch_add(1, std::memory_order_relaxed);
    Worker& w = *workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                          workers_.size()];
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.incoming.push_back(fd);
    }
    (void)!::write(w.wake_w, "x", 1);
  }
}

void KvServer::WorkerLoop(Worker& w) {
  std::vector<std::pair<int, uint32_t>> ready;
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(w.mu);
      for (int fd : w.incoming) AdoptConnection(w, fd);
      w.incoming.clear();
    }
    // Socket readiness wakes us immediately; a short timeout is only needed
    // while asynchronous work (pending ops, an in-flight checkpoint, gated
    // responses) must be polled for progress.
    const int timeout =
        AnyWorkPending(w) ? 1 : static_cast<int>(options_.idle_poll_ms);
    w.poller.Wait(timeout, &ready);
    for (const auto& [fd, ev] : ready) {
      if (fd == w.wake_r) {
        char buf[64];
        while (::read(w.wake_r, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Connection* c = it->second.get();
      if (ev & kHangup) {
        c->closed = true;
        continue;
      }
      if (ev & kReadable) OnReadable(w, c);
      if (!c->closed && (ev & kWritable)) FlushOut(w, c);
    }
    DriveConnections(w);
    TickDetached();
    if (w.id == 0) {
      MaybePeriodicCheckpoint();
      MaybeAdaptiveSwitch();
      // Mirror the store's persistent-failure count into the server's
      // counters so monitoring sees storage degradation.
      counters_.checkpoint_failures.store(kv_->CheckpointFailures(),
                                          std::memory_order_relaxed);
    }
  }
  // Shutdown: answer what is still queued with an honest status and flush
  // best-effort, then close sockets; sessions with no pendings stop here,
  // the rest are handed to Stop() for the combined drain.
  for (auto& [fd, conn] : w.conns) {
    Connection* c = conn.get();
    FailPendingAtShutdown(w, c);
    ::close(c->fd);
    counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
    if (c->session != nullptr) {
      c->session->set_async_callback(nullptr);
      std::lock_guard<std::mutex> lock(draining_mu_);
      draining_.push_back(c->session);
    }
  }
  w.conns.clear();
}

void KvServer::AdoptConnection(Worker& w, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->worker = &w;
  w.poller.Add(fd);
  w.conns.emplace(fd, std::move(conn));
}

bool KvServer::AnyWorkPending(const Worker& w) const {
  if (kv_->CheckpointInProgress()) return true;
  for (const auto& [fd, c] : w.conns) {
    if (!c->queue.empty() || c->out_off < c->outbuf.size()) return true;
    if (c->session != nullptr && c->session->pending_count() > 0) return true;
    // A parked op has no socket event to wake us: poll until its shard
    // (or the recovery install, for HELLO) is ready.
    if (c->parked) return true;
  }
  return false;
}

void KvServer::OnReadable(Worker& w, Connection* c) {
  // Frames handled out of this read batch start their decode stage here
  // (closest stamp to the socket read).
  c->recv_batch_ns = NowNanos();
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      counters_.bytes_in.fetch_add(static_cast<uint64_t>(n),
                                   std::memory_order_relaxed);
      c->inbuf.insert(c->inbuf.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      c->closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c->closed = true;
    break;
  }
  if (!c->inbuf.empty()) ParseFrames(w, c);
}

void KvServer::ParseFrames(Worker& w, Connection* c) {
  (void)w;
  if (c->close_after_flush) {
    c->inbuf.clear();
    return;
  }
  size_t off = 0;
  // A parked connection stops consuming: its parked request must execute
  // before any later frame, so those wait unread in inbuf.
  while (!c->closed && !c->parked) {
    std::string_view payload;
    size_t consumed = 0;
    const net::FrameResult fr = net::TryExtractFrame(
        c->inbuf.data() + off, c->inbuf.size() - off, &payload, &consumed);
    if (fr == net::FrameResult::kNeedMore) break;
    if (fr == net::FrameResult::kBadFrame) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      c->closed = true;
      break;
    }
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    net::Request req;
    if (!net::DecodeRequest(payload, &req)) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      // Best-effort decline instead of a silent close: echo op/seq when the
      // header was readable so the client can fail the request cleanly, then
      // drain and close — framing past a bad frame is unreliable.
      PendingResponse entry;
      entry.ready = true;
      entry.resp.op = net::Op::kHello;
      entry.resp.status = net::WireStatus::kBadRequest;
      if (payload.size() >= 5) {
        const uint8_t op = static_cast<uint8_t>(payload[0]);
        if (op >= static_cast<uint8_t>(net::Op::kHello) &&
            op <= static_cast<uint8_t>(net::Op::kBatch)) {
          // TXN_CHUNK is not a valid response op; its errors answer as TXN.
          entry.resp.op = op == static_cast<uint8_t>(net::Op::kTxnChunk)
                              ? net::Op::kTxn
                              : static_cast<net::Op>(op);
        }
        std::memcpy(&entry.resp.seq, payload.data() + 1, sizeof(uint32_t));
      }
      c->queue.push_back(std::move(entry));
      c->close_after_flush = true;
      off += consumed;
      break;
    }
    // Fresh frame: its span starts at the read batch stamp; park wait (if
    // it parks) accumulates from zero.
    c->req_recv_ns = c->recv_batch_ns;
    c->req_park_ns = 0;
    HandleRequest(c, req);
    off += consumed;
    // The next frame's decode stage must not absorb this op's handling
    // time: restart the decode clock.
    c->recv_batch_ns = NowNanos();
  }
  c->inbuf.erase(c->inbuf.begin(), c->inbuf.begin() + off);
}

void KvServer::HandleRequest(Connection* c, const net::Request& req) {
  // Mid-staging, only further chunks or the final TXN may arrive; anything
  // else means the client lost track of its own transaction.
  if (!c->txn_stage.empty() && req.op != net::Op::kTxnChunk &&
      req.op != net::Op::kTxn) {
    FailTxnStaging(c, c->txn_stage_seq);
    return;
  }
  switch (req.op) {
    case net::Op::kHello:
      HandleHello(c, req);
      return;
    case net::Op::kCheckpoint:
      HandleCheckpoint(c, req);
      return;
    case net::Op::kCommitPoint:
      HandleCommitPoint(c, req);
      return;
    case net::Op::kStats:
      HandleStats(c, req);
      return;
    case net::Op::kTxn:
      HandleTxn(c, req);
      return;
    case net::Op::kTxnChunk:
      HandleTxnChunk(c, req);
      return;
    case net::Op::kDump:
      HandleDump(c, req);
      return;
    case net::Op::kProvider:
      HandleProvider(c, req);
      return;
    default:
      HandleDataOps(c, req);
      return;
  }
}

void KvServer::HandleDataOps(Connection* c, const net::Request& frame) {
  const bool batch = frame.op == net::Op::kBatch;
  const std::span<const net::Request> ops = FrameOps(frame);
  // Instant restart: ops for already-restored shards serve at full speed.
  // Before executing anything, the frame parks (bounded) on the first
  // still-restoring shard it touches, and the restore queue is reordered to
  // front that shard. A BATCH parks whole, so its response group stays
  // complete and in order. In steady state this is one acquire load per
  // frame.
  if (!recovery_done_.load(std::memory_order_acquire) &&
      c->session != nullptr) {
    for (const net::Request& op : ops) {
      const uint32_t shard = kv_->ShardOfKey(op.key);
      if (kv_->ShardReady(shard)) continue;
      kv_->PrioritizeShard(shard);
      if (TryParkRequest(c, frame, shard)) return;
      break;  // parking queue full: restoring shards answer RECOVERING
    }
  }
  // The frame itself was counted by ParseFrames; count a BATCH's remaining
  // sub-ops so requests/responses stay symmetric per logical op.
  if (batch) {
    counters_.requests.fetch_add(ops.size() - 1, std::memory_order_relaxed);
  }
  const size_t qbase = c->queue.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) {
      // Each sub-op's trace span starts where the previous sub-op's handling
      // ended, mirroring ParseFrames' per-frame decode-clock restart — but
      // without a fresh clock read per sub-op: the previous sub-op already
      // stamped t_ready at exactly that boundary, so chain it.
      const uint64_t prev_ready = c->queue.back().t_ready;
      c->req_recv_ns = prev_ready != 0 ? prev_ready : NowNanos();
      c->req_park_ns = 0;
    }
    HandleDataOp(c, ops[i]);
  }
  // HandleDataOp queues exactly one entry per op, so a BATCH's group is
  // contiguous and complete: mark its members for atomic release. Op-mix
  // counters take one atomic add per frame; only ops that reached the
  // backend (`traced`) count.
  size_t reads = 0;
  size_t writes = 0;
  for (size_t i = qbase; i < c->queue.size(); ++i) {
    PendingResponse& e = c->queue[i];
    e.in_batch = batch;
    if (!e.traced) continue;
    if (e.resp.op == net::Op::kRead) {
      ++reads;
    } else {
      ++writes;
    }
  }
  if (batch) {
    PendingResponse& first = c->queue[qbase];
    first.batch_size = static_cast<uint32_t>(ops.size());
    first.batch_seq = frame.seq;
  }
  if (reads > 0) counters_.read_ops.fetch_add(reads, std::memory_order_relaxed);
  if (writes > 0) {
    counters_.write_ops.fetch_add(writes, std::memory_order_relaxed);
  }
}

void KvServer::FailTxnStaging(Connection* c, uint32_t seq) {
  counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  c->txn_stage.clear();
  c->txn_stage.shrink_to_fit();
  c->txn_next_chunk = 0;
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kTxn;
  entry.resp.seq = seq;
  entry.resp.status = net::WireStatus::kBadRequest;
  c->queue.push_back(std::move(entry));
  c->close_after_flush = true;
}

void KvServer::HandleTxnChunk(Connection* c, const net::Request& req) {
  if (c->session == nullptr) {
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    PendingResponse entry;
    entry.ready = true;
    entry.resp.op = net::Op::kTxn;
    entry.resp.seq = req.seq;
    entry.resp.status = net::WireStatus::kNoSession;
    c->queue.push_back(std::move(entry));
    c->close_after_flush = true;
    return;
  }
  if (c->txn_stage.empty()) {
    if (req.chunk_index != 0) {
      FailTxnStaging(c, req.seq);
      return;
    }
    c->txn_stage_seq = req.seq;
    c->txn_next_chunk = 0;
  } else if (req.seq != c->txn_stage_seq ||
             req.chunk_index != c->txn_next_chunk) {
    FailTxnStaging(c, c->txn_stage_seq);
    return;
  }
  // The final TXN frame must still contribute at least one op, so staging
  // may hold at most kMaxTxnOpsLogical - 1.
  if (c->txn_stage.size() + req.txn_ops.size() > net::kMaxTxnOpsLogical - 1) {
    FailTxnStaging(c, c->txn_stage_seq);
    return;
  }
  c->txn_stage.insert(c->txn_stage.end(),
                      std::make_move_iterator(req.txn_ops.begin()),
                      std::make_move_iterator(req.txn_ops.end()));
  ++c->txn_next_chunk;
  // No response: the final TXN frame answers for the whole transaction.
}

void KvServer::HandleDump(Connection* c, const net::Request& req) {
  // Certification path: no session required, never gated on durability
  // (like STATS). Row payload is bounded so the frame stays legal.
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kDump;
  entry.resp.seq = req.seq;
  constexpr uint32_t kDumpBytesCap = net::kMaxFrameBytes - 256;
  uint32_t value_size = 0;
  uint64_t rows_total = 0;
  uint64_t next_row = 0;
  std::vector<kv::DumpRow> rows;
  const Status st = kv_->Dump(req.table, req.start_row, req.max_rows,
                              kDumpBytesCap, &value_size, &rows_total,
                              &next_row, &rows);
  if (st.ok()) {
    entry.resp.status = net::WireStatus::kOk;
    entry.resp.value_size = value_size;
    entry.resp.dump_rows_total = rows_total;
    entry.resp.dump_next_row = next_row;
    entry.resp.dump_rows.reserve(rows.size());
    for (kv::DumpRow& r : rows) {
      net::DumpRow out;
      out.row = r.row;
      out.value = std::move(r.value);
      entry.resp.dump_rows.push_back(std::move(out));
    }
  } else if (st.code() == Status::Code::kNotFound) {
    entry.resp.status = net::WireStatus::kNotFound;
  } else {
    entry.resp.status = net::WireStatus::kBadRequest;
  }
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleStats(Connection* c, const net::Request& req) {
  // Monitoring path: no session required, never gated on durability.
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kStats;
  entry.resp.seq = req.seq;
  entry.resp.status = net::WireStatus::kOk;
  std::string text;
  if (req.stats_kind == net::StatsKind::kMetricsText) {
    text = obs::MetricsRegistry::Default().RenderText();
  } else if (req.stats_kind == net::StatsKind::kHealth) {
    text = watchdog_ ? watchdog_->RenderHealthJson() : "{}";
  } else if (req.stats_kind == net::StatsKind::kReqBreakdown) {
    text = reqtrace_ != nullptr ? reqtrace_->RenderBreakdownJson()
                                : obs::ReqTrace::Default().RenderBreakdownJson();
  } else {
    // Export already prefers the newest spans under a budget safely below
    // the frame cap.
    text = obs::Tracer::Default().ExportChromeTrace();
  }
  // Response header (18 bytes) + payload must fit one frame. The metrics
  // text is the only unbounded input: truncate at a line boundary.
  constexpr size_t kStatsBytesCap = net::kMaxFrameBytes - 64;
  if (text.size() > kStatsBytesCap) {
    const size_t cut = text.rfind('\n', kStatsBytesCap);
    text.resize(cut == std::string::npos ? kStatsBytesCap : cut + 1);
  }
  entry.resp.stats.assign(text.begin(), text.end());
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleProvider(Connection* c, const net::Request& req) {
  // Durability-control path: no session required, never gated. SWITCH only
  // queues the request — the flip happens at the next checkpoint boundary on
  // the backend's switch thread — so the report always describes the CURRENT
  // provider; clients poll QUERY to observe the change.
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kProvider;
  entry.resp.seq = req.seq;
  entry.resp.status = net::WireStatus::kOk;
  if (req.provider_action == net::ProviderAction::kSwitch &&
      !kv_->RequestProviderSwitch(req.provider_kind)) {
    entry.resp.status = net::WireStatus::kError;
  }
  entry.resp.provider_kind = kv_->Provider();
  entry.resp.provider_pending = kv_->ProviderSwitchPending();
  entry.resp.provider_switches = kv_->ProviderSwitches();
  entry.resp.provider_last_boundary = kv_->ProviderLastBoundary();
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleHello(Connection* c, const net::Request& req) {
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kHello;
  entry.resp.seq = req.seq;
  // Sessions cannot be created until StartRecovery() pins the commit point
  // (HELLO must report the recovered serial, and the engines may still be
  // swapping state underneath). Park the HELLO — this window is the cheap
  // phase A of recovery, milliseconds — or shed load with retryable BUSY
  // once the parking queue is full.
  if (!recovery_installed_.load(std::memory_order_acquire)) {
    if (!TryParkRequest(c, req, 0)) {
      entry.resp.status = net::WireStatus::kBusy;
      c->queue.push_back(std::move(entry));
    }
    return;
  }
  if (c->session != nullptr) {
    entry.resp.status = net::WireStatus::kBadRequest;
    c->queue.push_back(std::move(entry));
    return;
  }
  if (req.guid != 0) {
    std::lock_guard<std::mutex> lock(guids_mu_);
    if (live_guids_.count(req.guid) != 0) {
      entry.resp.status = net::WireStatus::kBusy;
      c->queue.push_back(std::move(entry));
      return;
    }
    live_guids_.insert(req.guid);
  }
  kv::Session* session = nullptr;
  uint64_t resumed = 0;
  if (req.guid != 0) {
    // A live (detached) session resumes at its exact serial: nothing was
    // lost, the client replays nothing.
    std::lock_guard<std::mutex> lock(detached_mu_);
    auto it = detached_.find(req.guid);
    if (it != detached_.end()) {
      session = it->second;
      detached_.erase(it);
      resumed = session->serial();
    }
  }
  if (session == nullptr) {
    session = kv_->StartSession(req.guid);
    if (session == nullptr) {  // epoch table full
      if (req.guid != 0) {
        std::lock_guard<std::mutex> lock(guids_mu_);
        live_guids_.erase(req.guid);
      }
      entry.resp.status = net::WireStatus::kBusy;
      c->queue.push_back(std::move(entry));
      return;
    }
    // After Recover() this is the recovered commit point; the client
    // replays everything past it. 0 for a fresh session.
    resumed = session->last_commit_point();
  }
  c->session = session;
  c->guid = session->guid();
  c->ack_mode = req.ack_mode;
  if (req.guid == 0) {
    std::lock_guard<std::mutex> lock(guids_mu_);
    live_guids_.insert(c->guid);
  }
  session->set_async_callback(
      [this, c](const faster::AsyncResult& r) { OnAsyncComplete(c, r); });
  entry.resp.status = net::WireStatus::kOk;
  entry.resp.guid = c->guid;
  entry.resp.recovered_serial = resumed;
  entry.resp.value_size = kv_->value_size();
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleDataOp(Connection* c, const net::Request& req) {
  PendingResponse entry;
  entry.resp.op = req.op;
  entry.resp.seq = req.seq;
  if (c->session == nullptr) {
    entry.ready = true;
    entry.resp.status = net::WireStatus::kNoSession;
    c->queue.push_back(std::move(entry));
    return;
  }
  if (req.op == net::Op::kUpsert &&
      req.value.size() != kv_->value_size()) {
    entry.ready = true;
    entry.resp.status = net::WireStatus::kBadRequest;
    c->queue.push_back(std::move(entry));
    return;
  }
  // A shard still restoring here means HandleDataOps could not park the
  // frame (parking queue full, or recovery concluded with the shard
  // terminally failed): burn one serial and answer the retryable RECOVERING.
  const uint32_t shard = kv_->ShardOfKey(req.key);
  if (!kv_->ShardReady(shard)) {
    kv_->PrioritizeShard(shard);
    RejectRecovering(c, req);
    return;
  }
  kv::Session& s = *c->session;
  faster::OpStatus st = faster::OpStatus::kOk;
  std::vector<char> value(req.op == net::Op::kRead ? kv_->value_size() : 0);
  // Decode stage ends (and execute begins) here; the accumulated park wait
  // is carved out of the decode width at release time.
  entry.traced = true;
  entry.t_recv = c->req_recv_ns;
  entry.park_ns = c->req_park_ns;
  c->req_park_ns = 0;
  entry.t_exec_start = NowNanos();
  switch (req.op) {
    case net::Op::kRead:
      st = kv_->Read(s, req.key, value.data());
      break;
    case net::Op::kUpsert:
      st = kv_->Upsert(s, req.key, req.value.data());
      break;
    case net::Op::kRmw:
      st = kv_->Rmw(s, req.key, req.delta);
      break;
    case net::Op::kDelete:
      st = kv_->Delete(s, req.key);
      break;
    default:
      entry.ready = true;
      entry.traced = false;
      entry.resp.status = net::WireStatus::kBadRequest;
      c->queue.push_back(std::move(entry));
      return;
  }
  entry.t_ready = NowNanos();  // async completion re-stamps
  entry.serial = s.serial();
  entry.resp.serial = entry.serial;
  // Only updates gate on durability. Reads still bump the session serial,
  // but their acks release as soon as every earlier queued update has been
  // covered (the FIFO release order enforces that), so a durable-mode read
  // never waits on its own serial — which no checkpoint may cover yet.
  if (c->ack_mode == net::AckMode::kDurable && req.op != net::Op::kRead) {
    entry.durable_gate = entry.serial;
    entry.failures_at_enqueue = kv_->CheckpointFailures();
    entry.enqueue_ns = NowNanos();
    counters_.durable_held.fetch_add(1, std::memory_order_relaxed);
  }
  if (st == faster::OpStatus::kPending) {
    counters_.ops_pending.fetch_add(1, std::memory_order_relaxed);
    entry.ready = false;  // filled by OnAsyncComplete
  } else {
    entry.ready = true;
    entry.resp.status = st == faster::OpStatus::kOk
                            ? net::WireStatus::kOk
                            : net::WireStatus::kNotFound;
    if (req.op == net::Op::kRead && st == faster::OpStatus::kOk) {
      entry.resp.value = std::move(value);
    }
  }
  if (!first_op_served_.load(std::memory_order_relaxed) &&
      !first_op_served_.exchange(true, std::memory_order_relaxed)) {
    // Time-to-first-op: how long after the listener came up the first data
    // operation actually executed. With recover_on_start this is the
    // availability headline — far below the full recovery duration.
    counters_.time_to_first_op_ns.store(NowNanos() - serve_start_ns_,
                                        std::memory_order_relaxed);
  }
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleTxn(Connection* c, const net::Request& req) {
  // Fold in any staged TXN_CHUNK ops: this frame concludes the chunked
  // logical transaction (same seq on every frame).
  std::vector<net::TxnWireOp> staged;
  if (!c->txn_stage.empty()) {
    if (req.seq != c->txn_stage_seq) {
      FailTxnStaging(c, c->txn_stage_seq);
      return;
    }
    staged = std::move(c->txn_stage);
    c->txn_stage.clear();
    c->txn_next_chunk = 0;
  }
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kTxn;
  entry.resp.seq = req.seq;
  if (c->session == nullptr) {
    entry.resp.status = net::WireStatus::kNoSession;
    c->queue.push_back(std::move(entry));
    return;
  }
  kv::Session& s = *c->session;
  std::vector<kv::TxnOp> ops;
  ops.reserve(staged.size() + req.txn_ops.size());
  bool has_update = false;
  uint32_t n_reads = 0;
  auto convert = [&](const net::TxnWireOp& w) {
    kv::TxnOp op;
    op.kind = static_cast<kv::TxnOp::Kind>(w.kind);
    op.table = w.table;
    op.row = w.row;
    op.value = w.value;
    op.delta = w.delta;
    if (op.kind == kv::TxnOp::Kind::kRead) {
      ++n_reads;
    } else {
      has_update = true;
    }
    ops.push_back(std::move(op));
  };
  for (const net::TxnWireOp& w : staged) convert(w);
  for (const net::TxnWireOp& w : req.txn_ops) convert(w);
  // Chunking exists for large write sets; the single response frame must
  // still fit every read result, so reads per logical transaction stay
  // within one frame's worth. The whole logical op set is also bounded.
  // Rejecting consumes no serial.
  if (n_reads > net::kMaxTxnOps || ops.size() > net::kMaxTxnOpsLogical) {
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    entry.resp.status = net::WireStatus::kBadRequest;
    c->queue.push_back(std::move(entry));
    return;
  }
  counters_.read_ops.fetch_add(n_reads, std::memory_order_relaxed);
  counters_.write_ops.fetch_add(ops.size() - n_reads,
                                std::memory_order_relaxed);
  std::vector<std::vector<char>> reads;
  entry.traced = true;
  entry.t_recv = c->req_recv_ns;
  entry.park_ns = c->req_park_ns;
  c->req_park_ns = 0;
  entry.t_exec_start = NowNanos();
  switch (kv_->Txn(s, ops, &reads)) {
    case kv::TxnStatus::kCommitted:
      entry.serial = s.serial();
      entry.resp.serial = entry.serial;
      entry.resp.status = net::WireStatus::kOk;
      entry.resp.txn_reads = std::move(reads);
      // Same gating rule as single-key ops: only update-bearing transactions
      // await durability; a read-only transaction's ack releases once every
      // earlier queued update is covered (FIFO release order).
      if (c->ack_mode == net::AckMode::kDurable && has_update) {
        entry.durable_gate = entry.serial;
        entry.failures_at_enqueue = kv_->CheckpointFailures();
        entry.enqueue_ns = NowNanos();
        counters_.durable_held.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case kv::TxnStatus::kConflict:
      // The conflicted transaction consumed one serial with zero effects;
      // there is nothing to make durable, so the (retryable) error releases
      // immediately and the client neutralizes its replay entry.
      entry.serial = s.serial();
      entry.resp.serial = entry.serial;
      entry.resp.status = net::WireStatus::kTxnConflict;
      break;
    case kv::TxnStatus::kBadRequest:
    case kv::TxnStatus::kUnsupported:
      entry.resp.status = net::WireStatus::kBadRequest;
      break;
  }
  entry.t_ready = NowNanos();
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleCheckpoint(Connection* c, const net::Request& req) {
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kCheckpoint;
  entry.resp.seq = req.seq;
  if (c->session == nullptr) {
    entry.resp.status = net::WireStatus::kNoSession;
    c->queue.push_back(std::move(entry));
    return;
  }
  uint64_t token = 0;
  const auto variant = req.variant == 0 ? faster::CommitVariant::kFoldOver
                                        : faster::CommitVariant::kSnapshot;
  if (!kv_->Checkpoint(variant, req.include_index, &token)) {
    counters_.checkpoint_stalls.fetch_add(1, std::memory_order_relaxed);
    entry.resp.status = net::WireStatus::kBusy;
    c->queue.push_back(std::move(entry));
    return;
  }
  counters_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  entry.resp.status = net::WireStatus::kOk;
  entry.resp.token = token;
  entry.token_gate = token;  // respond once the checkpoint is durable
  c->queue.push_back(std::move(entry));
}

void KvServer::HandleCommitPoint(Connection* c, const net::Request& req) {
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = net::Op::kCommitPoint;
  entry.resp.seq = req.seq;
  if (c->session == nullptr) {
    entry.resp.status = net::WireStatus::kNoSession;
    c->queue.push_back(std::move(entry));
    return;
  }
  uint64_t point = 0;
  (void)kv_->DurableCommitPoint(c->guid, &point);  // absent -> 0
  entry.resp.status = net::WireStatus::kOk;
  entry.resp.commit_serial = point;
  c->queue.push_back(std::move(entry));
}

void KvServer::RecoveryMain() {
  // Phase A (StartRecovery) pins the global commit point and installs the
  // per-shard restore plan; sessions are safe to create once it returns.
  // kNotFound means a fresh store: nothing to restore, serve immediately.
  const Status start = kv_->StartRecovery();
  recovery_installed_.store(true, std::memory_order_release);
  if (start.ok()) (void)kv_->WaitForRecovery();
  counters_.recovery_duration_ns.store(NowNanos() - serve_start_ns_,
                                       std::memory_order_relaxed);
  // Every shard is terminal (ready or failed) once WaitForRecovery returns,
  // so parked ops whose shard is still unready will never see it ready.
  recovery_done_.store(true, std::memory_order_release);
}

bool KvServer::TryParkRequest(Connection* c, const net::Request& req,
                              uint32_t shard) {
  uint32_t cur = parked_ops_.load(std::memory_order_relaxed);
  do {
    if (cur >= options_.max_parked_ops) return false;
  } while (!parked_ops_.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_relaxed));
  c->parked = true;
  c->parked_shard = shard;
  c->parked_req = req;
  c->parked_since_ns = NowNanos();
  counters_.ops_parked.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void KvServer::RejectRecovering(Connection* c, const net::Request& req) {
  PendingResponse entry;
  entry.ready = true;
  entry.resp.op = req.op;
  entry.resp.seq = req.seq;
  entry.resp.status = net::WireStatus::kRecovering;
  // Burn one session serial with zero effects so the client's serial
  // prediction stays aligned; the client neutralizes its replay slot for
  // it and retries the op under a fresh serial. Nothing was applied, so
  // the response never gates on durability (like TXN_CONFLICT).
  entry.serial = kv_->SkipSerial(*c->session);
  entry.resp.serial = entry.serial;
  counters_.recovering_rejections.fetch_add(1, std::memory_order_relaxed);
  c->queue.push_back(std::move(entry));
}

void KvServer::RetryParked(Worker& w, Connection* c) {
  if (!c->parked) return;
  // HELLO always unparks eventually (StartRecovery returns even on failure).
  // A data frame re-dispatches once its shard is ready, or once recovery
  // concluded: recovery_done_ publishes every shard's final state, so a
  // still-unready shard is terminally failed and the re-dispatch answers
  // its ops RECOVERING instead of parking again.
  const bool ready =
      c->parked_req.op == net::Op::kHello
          ? recovery_installed_.load(std::memory_order_acquire)
          : kv_->ShardReady(c->parked_shard) ||
                recovery_done_.load(std::memory_order_acquire);
  if (!ready) return;
  const net::Request req = std::move(c->parked_req);
  c->parked = false;
  c->parked_req = net::Request();
  // The park stage ends here; decode resumes for the re-dispatch. A re-park
  // (shard flipped back) keeps accumulating into the same request's wait.
  c->req_park_ns += NowNanos() - c->parked_since_ns;
  parked_ops_.fetch_sub(1, std::memory_order_relaxed);
  // Re-dispatch; the frame may legitimately park again if a shard flipped
  // back (recovery walk-back), then drain the frames held back behind it.
  HandleRequest(c, req);
  if (!c->parked && !c->inbuf.empty()) {
    c->recv_batch_ns = NowNanos();
    ParseFrames(w, c);
  }
}

void KvServer::FailPendingAtShutdown(Worker& w, Connection* c) {
  if (c->session != nullptr) {
    kv_->CompletePending(*c->session);  // last non-blocking completion pass
    if (c->ack_mode == net::AckMode::kDurable) {
      uint64_t point = 0;
      if (kv_->DurableCommitPoint(c->guid, &point).ok()) {
        c->durable_point = point;
      }
    }
  }
  if (c->parked) {
    // The parked request never consumed a serial: RECOVERING with serial 0
    // (for HELLO: BUSY) tells the client nothing happened — keep the replay
    // entries and retry after reconnect. A parked BATCH answers per sub-op,
    // encoded standalone like every member below.
    for (const net::Request& op : FrameOps(c->parked_req)) {
      PendingResponse entry;
      entry.ready = true;
      entry.resp.op = op.op;
      entry.resp.seq = op.seq;
      entry.resp.status = op.op == net::Op::kHello
                              ? net::WireStatus::kBusy
                              : net::WireStatus::kRecovering;
      c->queue.push_back(std::move(entry));
    }
    c->parked = false;
    c->parked_req = net::Request();
    parked_ops_.fetch_sub(1, std::memory_order_relaxed);
    counters_.parked_failed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
  }
  if (c->queue.empty()) return;
  const uint64_t token = kv_->LastCheckpointToken();
  // BATCH members are encoded as standalone frames here: a sub-response is
  // byte-identical to a frame payload, and the client matches responses to
  // in-flight ops per-op, so the drain needs no group framing.
  for (PendingResponse& e : c->queue) {
    if (!e.ready) {
      // Async op that never completed: its outcome is unknown to the
      // client; ERROR makes it re-query/replay rather than assume success.
      e.ready = true;
      e.resp.status = net::WireStatus::kError;
      e.resp.value.clear();
    } else if (e.durable_gate != 0 && c->durable_point < e.durable_gate &&
               e.resp.status == net::WireStatus::kOk) {
      // Durable-mode ack whose covering checkpoint never happened: the op
      // executed but is NOT durable; the client must keep it in replay.
      e.resp.status = net::WireStatus::kNotDurable;
      counters_.not_durable_acks.fetch_add(1, std::memory_order_relaxed);
    } else if (e.token_gate != 0 && token < e.token_gate &&
               e.resp.status == net::WireStatus::kOk) {
      e.resp.status = net::WireStatus::kError;  // checkpoint outcome unknown
    }
    const size_t before = c->outbuf.size();
    net::EncodeResponse(e.resp, &c->outbuf);
    // Keep cum_queued aligned with every byte ever appended, so any traced
    // frames still awaiting their write stamp don't mis-attribute.
    c->cum_queued += c->outbuf.size() - before;
    counters_.responses.fetch_add(1, std::memory_order_relaxed);
  }
  c->queue.clear();
  if (!c->closed) FlushOut(w, c);
}

void KvServer::OnAsyncComplete(Connection* c, const faster::AsyncResult& r) {
  for (PendingResponse& e : c->queue) {
    if (e.ready || e.serial != r.serial) continue;
    e.ready = true;
    e.t_ready = NowNanos();
    if (r.kind == faster::OpKind::kRead) {
      e.resp.status =
          r.found ? net::WireStatus::kOk : net::WireStatus::kNotFound;
      if (r.found) e.resp.value = r.value;
    } else {
      e.resp.status = net::WireStatus::kOk;
    }
    return;
  }
}

void KvServer::ReleaseResponses(Connection* c) {
  const uint64_t token = kv_->LastCheckpointToken();
  const uint64_t finished = kv_->LastFinishedToken();
  const uint64_t failures = kv_->CheckpointFailures();
  if (c->ack_mode == net::AckMode::kDurable &&
      token != c->durable_token_seen && c->session != nullptr) {
    c->durable_token_seen = token;
    uint64_t point = 0;
    if (kv_->DurableCommitPoint(c->guid, &point).ok()) {
      c->durable_point = point;
    }
  }
  // Resolves one entry's final status once every gate in its release group
  // has opened, and records durable-lag for gated acks.
  auto resolve = [&](PendingResponse& e) {
    if (e.token_gate != 0 && token < e.token_gate) {
      // Gate checks already passed: the checkpoint finished without
      // completing — it failed persistently; tell the client rather than
      // leaving the CHECKPOINT response (and everything behind it) hung.
      e.resp.status = net::WireStatus::kError;
    }
    if (e.durable_gate != 0 && c->durable_point < e.durable_gate) {
      // Gate checks already passed: a checkpoint failed after this op
      // executed, so durability can no longer be promised in order.
      // Degrade to an explicit NOT_DURABLE ack so the client keeps the op
      // in its replay buffer instead of hanging.
      e.resp.status = net::WireStatus::kNotDurable;
      counters_.not_durable_acks.fetch_add(1, std::memory_order_relaxed);
      // Attribute the degradation: behind a sharded backend a failed
      // *coordinated round* withheld the manifest (some shard failed);
      // behind a single store the engine checkpoint itself failed.
      if (kv_->num_shards() > 1) {
        counters_.not_durable_degraded.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.not_durable_engine.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (e.durable_gate != 0) {
      counters_.RecordDurableLag(NowNanos() - e.enqueue_ns);
    }
    if (e.token_gate != 0 && e.resp.status == net::WireStatus::kOk) {
      // Checkpoint done: report this session's committed prefix.
      uint64_t point = 0;
      (void)kv_->DurableCommitPoint(c->guid, &point);
      e.resp.commit_serial = point;
    }
  };
  // Builds the write-stage tracker for one traced entry; batched entries
  // share the group frame's end and encode stamp.
  auto track = [&](const PendingResponse& e, uint64_t release_ns,
                   uint64_t encoded_ns, net::Op op, net::WireStatus status) {
    auto width = [](uint64_t from, uint64_t to) {
      return to > from ? to - from : 0;
    };
    Connection::WriteTrack t;
    t.frame_end = c->cum_queued;
    t.encoded_ns = encoded_ns;
    obs::ReqSpan& span = t.span;
    span.start_ns = e.t_recv;
    span.serial = e.serial;
    span.op = static_cast<uint8_t>(op);
    span.status = static_cast<uint8_t>(status);
    using S = obs::ReqStage;
    span.stage_ns[static_cast<int>(S::kPark)] = e.park_ns;
    // Decode is the dispatch interval minus the carved-out park wait, so
    // the stages partition [t_recv, write-done] exactly.
    span.stage_ns[static_cast<int>(S::kDecode)] =
        width(e.t_recv + e.park_ns, e.t_exec_start);
    span.stage_ns[static_cast<int>(S::kExecute)] =
        width(e.t_exec_start, e.t_ready);
    span.stage_ns[static_cast<int>(S::kDurableGate)] =
        width(e.t_ready, release_ns);
    span.stage_ns[static_cast<int>(S::kAck)] = width(release_ns, encoded_ns);
    // kWrite completes (and the span records) once the kernel took the
    // frame's last byte — see FlushOut.
    c->write_track.push_back(std::move(t));
  };
  while (!c->queue.empty()) {
    PendingResponse& front = c->queue.front();
    // A BATCH group releases atomically: one response frame once every
    // member's gates have opened. group == 1 is the plain single-frame path.
    const size_t group = front.in_batch ? front.batch_size : 1;
    bool blocked = false;
    for (size_t i = 0; i < group; ++i) {
      const PendingResponse& e = c->queue[i];
      if (!e.ready ||
          (e.token_gate != 0 && token < e.token_gate &&
           finished < e.token_gate) ||
          (e.durable_gate != 0 && c->durable_point < e.durable_gate &&
           failures <= e.failures_at_enqueue)) {
        blocked = true;
        break;
      }
    }
    if (blocked) break;
    // All gates open: the durable/FIFO wait ends and ack serialize begins.
    bool any_traced = false;
    for (size_t i = 0; i < group; ++i) any_traced |= c->queue[i].traced;
    const uint64_t release_ns = any_traced ? NowNanos() : 0;
    const size_t before = c->outbuf.size();
    if (!front.in_batch) {
      resolve(front);
      net::EncodeResponse(front.resp, &c->outbuf);
      c->cum_queued += c->outbuf.size() - before;
      if (front.traced) {
        track(front, release_ns, NowNanos(), front.resp.op,
              front.resp.status);
      }
    } else {
      // Serialize the group straight from the queue: resolve every member,
      // then encode each sub-response in place under one outer BATCH frame —
      // no intermediate outer Response, no sub-response moves.
      uint64_t max_serial = 0;
      for (size_t i = 0; i < group; ++i) {
        PendingResponse& e = c->queue[i];
        resolve(e);
        // The outer serial reports the batch's maximum covered serial.
        if (e.resp.serial > max_serial) max_serial = e.resp.serial;
      }
      const size_t frame_start = net::BeginBatchResponse(
          front.batch_seq, max_serial, static_cast<uint32_t>(group),
          &c->outbuf);
      for (size_t i = 0; i < group; ++i) {
        net::EncodeResponse(c->queue[i].resp, &c->outbuf);
      }
      net::EndBatchResponse(frame_start, &c->outbuf);
      c->cum_queued += c->outbuf.size() - before;
      const uint64_t encoded_ns = any_traced ? NowNanos() : 0;
      for (size_t i = 0; i < group; ++i) {
        const PendingResponse& e = c->queue[i];
        if (!e.traced) continue;
        track(e, release_ns, encoded_ns, e.resp.op, e.resp.status);
      }
    }
    counters_.responses.fetch_add(group, std::memory_order_relaxed);
    c->queue.erase(c->queue.begin(), c->queue.begin() + group);
    // Slow-reader hard cap: the peer demonstrably is not draining; close
    // rather than buffer its responses without bound.
    if (options_.outbuf_hard_cap_bytes != 0 &&
        c->outbuf.size() - c->out_off > options_.outbuf_hard_cap_bytes) {
      counters_.slow_reader_closed.fetch_add(1, std::memory_order_relaxed);
      c->closed = true;
      return;
    }
  }
}

void KvServer::FlushOut(Worker& w, Connection* c) {
  while (c->out_off < c->outbuf.size()) {
    const ssize_t n = ::send(c->fd, c->outbuf.data() + c->out_off,
                             c->outbuf.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      counters_.bytes_out.fetch_add(static_cast<uint64_t>(n),
                                    std::memory_order_relaxed);
      c->out_off += static_cast<size_t>(n);
      c->cum_sent += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c->closed = true;
    return;
  }
  // Traced frames whose last byte the kernel just took: close the write
  // stage and fold the finished span into ReqTrace.
  if (!c->write_track.empty()) {
    const uint64_t now = NowNanos();
    while (!c->write_track.empty() &&
           c->write_track.front().frame_end <= c->cum_sent) {
      Connection::WriteTrack& t = c->write_track.front();
      t.span.stage_ns[static_cast<int>(obs::ReqStage::kWrite)] =
          now > t.encoded_ns ? now - t.encoded_ns : 0;
      reqtrace_->Record(t.span);
      c->write_track.pop_front();
    }
  }
  if (c->out_off == c->outbuf.size()) {
    c->outbuf.clear();
    c->out_off = 0;
  } else if (c->outbuf.size() > (1u << 20) && c->out_off > (1u << 19)) {
    c->outbuf.erase(c->outbuf.begin(), c->outbuf.begin() + c->out_off);
    c->out_off = 0;
  }
  const bool want_write = c->out_off < c->outbuf.size();
  // Slow-reader soft cap: past the high-water mark stop reading from the
  // connection — its unsent responses stay here, TCP backpressure reaches
  // the client — and resume once the backlog drains below the mark.
  const size_t backlog = c->outbuf.size() - c->out_off;
  const bool want_read = options_.outbuf_soft_cap_bytes == 0 ||
                         backlog < options_.outbuf_soft_cap_bytes;
  if (want_write != c->want_write || want_read != c->want_read) {
    if (!want_read && c->want_read) {
      counters_.slow_reader_throttled.fetch_add(1, std::memory_order_relaxed);
    }
    c->want_write = want_write;
    c->want_read = want_read;
    w.poller.SetInterest(c->fd, want_read, want_write);
  }
}

void KvServer::DriveConnections(Worker& w) {
  for (auto it = w.conns.begin(); it != w.conns.end();) {
    Connection* c = it->second.get();
    if (c->session != nullptr) {
      kv_->CompletePending(*c->session);
      kv_->Refresh(*c->session);
    }
    if (!c->closed) {
      RetryParked(w, c);
      ReleaseResponses(c);
      FlushOut(w, c);
      if (c->close_after_flush && c->queue.empty() &&
          c->out_off >= c->outbuf.size()) {
        c->closed = true;  // best-effort error reply drained; now close
      }
    }
    if (c->closed) {
      DestroyConnection(w, c);
      it = w.conns.erase(it);
    } else {
      ++it;
    }
  }
}

void KvServer::DestroyConnection(Worker& w, Connection* c) {
  w.poller.Remove(c->fd);
  ::close(c->fd);
  counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  if (c->parked) {
    c->parked = false;
    parked_ops_.fetch_sub(1, std::memory_order_relaxed);
  }
  kv::Session* session = c->session;
  c->session = nullptr;
  if (session == nullptr) return;
  session->set_async_callback(nullptr);
  {
    std::lock_guard<std::mutex> lock(guids_mu_);
    live_guids_.erase(c->guid);
  }
  if (options_.detach_sessions && !stop_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(detached_mu_);
    detached_[c->guid] = session;
  } else if (session->pending_count() == 0) {
    kv_->StopSession(session);
  } else {
    // Cannot block this worker loop waiting for the session's pendings
    // (they may depend on other sessions this worker owns); park it.
    std::lock_guard<std::mutex> lock(draining_mu_);
    draining_.push_back(session);
  }
}

void KvServer::TickDetached() {
  // Detached and draining sessions still hold epoch slots: keep refreshing
  // them (and completing their pendings) or checkpoints would stall.
  if (detached_mu_.try_lock()) {
    for (auto& [guid, s] : detached_) {
      kv_->CompletePending(*s);
      kv_->Refresh(*s);
    }
    detached_mu_.unlock();
  }
  if (draining_mu_.try_lock()) {
    for (auto it = draining_.begin(); it != draining_.end();) {
      kv::Session* s = *it;
      kv_->CompletePending(*s);
      kv_->Refresh(*s);
      if (s->pending_count() == 0) {
        kv_->StopSession(s);
        it = draining_.erase(it);
      } else {
        ++it;
      }
    }
    draining_mu_.unlock();
  }
}

void KvServer::MaybePeriodicCheckpoint() {
  if (options_.checkpoint_interval_ms == 0) return;
  // No checkpoint rounds while shards are still restoring: round numbering
  // is unsettled until recovery can no longer walk back to an older
  // manifest. The backend would refuse anyway; don't burn the attempt.
  if (!recovery_done_.load(std::memory_order_acquire)) return;
  const uint64_t now = NowNanos();
  if (now - last_periodic_ckpt_ns_ <
      uint64_t{options_.checkpoint_interval_ms} * 1'000'000) {
    return;
  }
  if (kv_->CheckpointInProgress()) return;
  if (kv_->Checkpoint(options_.checkpoint_variant, /*include_index=*/false)) {
    counters_.checkpoints.fetch_add(1, std::memory_order_relaxed);
    last_periodic_ckpt_ns_ = now;
  }
}

void KvServer::MaybeAdaptiveSwitch() {
  if (options_.adaptive_interval_ms == 0) return;
  if (!recovery_done_.load(std::memory_order_acquire)) return;
  const uint64_t now = NowNanos();
  if (last_adaptive_ns_ == 0) {
    // First tick only stamps the interval start; the policy needs a delta.
    last_adaptive_ns_ = now;
    return;
  }
  if (now - last_adaptive_ns_ <
      uint64_t{options_.adaptive_interval_ms} * 1'000'000) {
    return;
  }
  last_adaptive_ns_ = now;
  const ServerCounters::Snapshot s = counters_.Sample();
  durability::WorkloadSample sample;
  sample.reads = s.read_ops;
  sample.writes = s.write_ops;
  sample.durable_lag_p99_ns = s.DurableLagQuantile(0.99);
  sample.commit_stalls = s.checkpoint_stalls;
  durability::ProviderKind target;
  if (adaptive_policy_.Observe(kv_->Provider(), sample, &target)) {
    // Fire-and-forget: the backend's switch thread performs the flip at the
    // next checkpoint boundary. A backend that cannot switch returns false
    // and the policy simply keeps recommending.
    (void)kv_->RequestProviderSwitch(target);
  }
}

}  // namespace cpr::server
