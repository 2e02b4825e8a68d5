#include "client/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace cpr::client {

CprClient::CprClient(Options options) : options_(std::move(options)) {
  // Seed the backoff jitter differently per client instance so a fleet
  // created at the same instant still spreads its reconnect attempts.
  jitter_state_ ^= static_cast<uint32_t>(reinterpret_cast<uintptr_t>(this));
  jitter_state_ ^= static_cast<uint32_t>(options_.guid * 0x9e3779b97f4a7c15ull);
  if (jitter_state_ == 0) jitter_state_ = 0x9e3779b9u;
}

CprClient::~CprClient() { Close(); }

void CprClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  sendbuf_.clear();
  recvbuf_.clear();
  recv_off_ = 0;
  batch_stage_.clear();
  batch_stage_ops_ = 0;
  FailInflight();
}

void CprClient::FailInflight() {
  // Requests written but unanswered: updates among them stay in replay_
  // (they are re-issued on reconnect); reads are simply lost.
  inflight_.clear();
}

Status CprClient::ConnectOnce() {
  stats_.connect_attempts += 1;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  const bool timed = options_.connect_timeout_ms > 0;
  const int flags = timed ? fcntl(fd_, F_GETFL, 0) : 0;
  if (timed) fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    if (timed && err == EINPROGRESS) {
      // Non-blocking connect: wait for writability, then read the socket's
      // real outcome from SO_ERROR (poll reports writable on failure too).
      pollfd pfd{fd_, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, options_.connect_timeout_ms);
      if (n == 0) {
        Close();
        return Status::IoError("connect() timed out after " +
                               std::to_string(options_.connect_timeout_ms) +
                               "ms");
      }
      int so_err = 0;
      socklen_t len = sizeof(so_err);
      if (n < 0 ||
          getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_err, &len) != 0 ||
          so_err != 0) {
        err = so_err != 0 ? so_err : errno;
        Close();
        return Status::IoError("connect() failed: " +
                               std::string(strerror(err)));
      }
    } else {
      Close();
      return Status::IoError("connect() failed: " +
                             std::string(strerror(err)));
    }
  }
  if (timed) fcntl(fd_, F_SETFL, flags);
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (options_.send_timeout_ms > 0) {
    // A full socket buffer then surfaces as EAGAIN from a blocking send()
    // after this long; SendAll turns that into a bounded POLLOUT wait
    // instead of an error.
    timeval tv{};
    tv.tv_sec = options_.send_timeout_ms / 1000;
    tv.tv_usec = (options_.send_timeout_ms % 1000) * 1000;
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (options_.so_sndbuf > 0) {
    setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
               sizeof(options_.so_sndbuf));
  }
  return Status::Ok();
}

Status CprClient::Hello() {
  net::Request req;
  req.op = net::Op::kHello;
  req.seq = next_seq_++;
  req.guid = options_.guid != 0 ? options_.guid : guid_;
  req.ack_mode = options_.ack_mode;
  std::vector<char> frame;
  net::EncodeRequest(req, &frame);
  Status s = SendAll(frame.data(), frame.size());
  if (!s.ok()) return s;
  net::Response resp;
  s = ReadResponse(&resp);
  if (!s.ok()) return s;
  if (resp.op != net::Op::kHello) {
    return Status::Corruption("HELLO answered with wrong opcode");
  }
  if (resp.status == net::WireStatus::kBusy) {
    return Status::Busy("session busy (live duplicate or table full)");
  }
  if (resp.status != net::WireStatus::kOk) {
    return Status::IoError(std::string("HELLO rejected: ") +
                           net::StatusName(resp.status));
  }
  guid_ = resp.guid;
  recovered_serial_ = resp.recovered_serial;
  value_size_ = resp.value_size;
  next_serial_ = resp.recovered_serial;
  if (resp.recovered_serial > durable_serial_) {
    durable_serial_ = resp.recovered_serial;
  }
  if (options_.recorder != nullptr) {
    // Committed-but-never-acked ops must enter the journal BEFORE the HELLO
    // that reports the commit point covering them, or the history would
    // claim the server recovered serials the session never saw issued.
    RecordResolvedPrefix(resp.recovered_serial);
    options_.recorder->OnHello(guid_, options_.ack_mode, recovered_serial_);
  }
  return Status::Ok();
}

Status CprClient::Connect() {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  Status s = Status::IoError("no connect attempts");
  int delay_ms = std::max(1, options_.connect_backoff_ms);
  const int cap_ms = std::max(delay_ms, options_.max_connect_backoff_ms);
  for (int attempt = 0; attempt < std::max(1, options_.connect_attempts);
       ++attempt) {
    if (attempt > 0) {
      stats_.connect_retries += 1;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(JitteredBackoffMs(delay_ms, cap_ms)));
    }
    s = ConnectOnce();
    if (!s.ok()) continue;
    s = Hello();
    if (s.ok()) return s;
    Close();
  }
  return s;
}

int CprClient::JitteredBackoffMs(int& delay_ms, int cap_ms) {
  // Jittered exponential backoff: sleep in [delay/2, delay] so a fleet of
  // simultaneously-rejected clients spreads its retries.
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 17;
  jitter_state_ ^= jitter_state_ << 5;
  const int half = delay_ms / 2;
  const int sleep_ms =
      half + static_cast<int>(jitter_state_ % (delay_ms - half + 1));
  delay_ms = std::min(delay_ms * 2, cap_ms);
  return sleep_ms;
}

Status CprClient::Reconnect() {
  Close();
  Status s = Connect();
  if (!s.ok()) return s;
  s = ReplayAfter(recovered_serial_);
  if (s.ok()) stats_.reconnects += 1;
  return s;
}

Status CprClient::ReplayAfter(uint64_t recovered) {
  NoteDurable(recovered);
  if (replay_.empty()) return Status::Ok();
  // Everything past the commit point was lost: re-issue in order. The
  // replayed ops get fresh serials starting at the recovered point, and
  // because the buffer preserved the full request sequence (reads included)
  // every op regenerates exactly the serial it had before the crash.
  std::deque<net::Request> todo;
  todo.swap(replay_);
  replay_serials_.clear();
  stats_.replayed_ops += todo.size();
  for (net::Request& req : todo) {
    req.seq = next_seq_++;
    EnqueueRequest(req);
  }
  const bool durable = options_.ack_mode == net::AckMode::kDurable;
  if (durable) {
    // Durable-mode acks only flow once a checkpoint covers the replayed
    // serials; ask for one right behind them.
    EnqueueCheckpoint();
  }
  Status st = Flush();
  if (!st.ok()) return st;
  // A concurrent checkpoint can make our CHECKPOINT request report BUSY
  // without covering the replayed ops; on an ack timeout, nudge again.
  // Draining is driven off the in-flight set, not a response count: one
  // BATCH response frame settles many in-flight ops.
  int nudges = durable ? 3 : 0;
  while (!inflight_.empty()) {
    st = Drain(nullptr, 1);
    if (st.ok()) continue;
    if (st.code() == Status::Code::kAborted && nudges-- > 0) {
      EnqueueCheckpoint();
      st = Flush();
      if (!st.ok()) return st;
      continue;
    }
    return st;
  }
  return Status::Ok();
}

void CprClient::NoteDurable(uint64_t serial) {
  if (serial > durable_serial_) durable_serial_ = serial;
  while (!replay_serials_.empty() && replay_serials_.front() <= serial) {
    replay_serials_.pop_front();
    replay_.pop_front();
  }
}

void CprClient::NeutralizeReplay(uint64_t serial) {
  // The serial was consumed server-side with zero effects (a conflicted
  // TXN, or a RECOVERING rejection that burned the serial). Keep the replay
  // entry (the serial must still be regenerated after a crash so later ops
  // line up) but strip its effects: the op becomes a read — same key or
  // read-only op set — which a replay applies as a no-op.
  const auto it = std::lower_bound(replay_serials_.begin(),
                                   replay_serials_.end(), serial);
  if (it == replay_serials_.end() || *it != serial) return;
  net::Request& req = replay_[static_cast<size_t>(it - replay_serials_.begin())];
  if (req.op == net::Op::kTxn) {
    for (net::TxnWireOp& op : req.txn_ops) {
      op.kind = net::TxnOpKind::kRead;
      op.value.clear();
      op.delta = 0;
    }
    return;
  }
  req.op = net::Op::kRead;
  req.value.clear();
  req.delta = 0;
}

void CprClient::EnqueueRequest(const net::Request& req) {
  const bool batchable =
      req.op == net::Op::kRead || req.op == net::Op::kUpsert ||
      req.op == net::Op::kRmw || req.op == net::Op::kDelete;
  if (batchable) {
    // Stage the pre-encoded frame: a standalone frame (u32 len + payload)
    // is byte-identical to a BATCH sub-message, so Flush can seal the stage
    // into one BATCH frame — or emit a lone staged op verbatim. Only the
    // transport grouping is decided here; the seq/serial/replay bookkeeping
    // below is the same for every op.
    if (batch_stage_ops_ == 0) batch_stage_seq_ = req.seq;
    net::EncodeRequest(req, &batch_stage_);
    ++batch_stage_ops_;
    // Seal early at the op cap or when another sub-op might not fit under
    // the outer frame's length ceiling.
    if (batch_stage_ops_ >= kBatchMaxOps ||
        batch_stage_.size() + value_size_ + 64 >= net::kMaxFrameBytes) {
      FlushBatchStage();
    }
  } else if (req.op == net::Op::kTxn &&
             req.txn_ops.size() > net::kMaxTxnOps) {
    // A non-batchable op must not overtake staged data ops.
    FlushBatchStage();
    // Oversized write sets travel as TXN_CHUNK continuations plus one final
    // TXN frame — one serial, one response. Replayed requests re-chunk here
    // automatically.
    net::EncodeTxnChunked(req, &sendbuf_);
  } else {
    FlushBatchStage();
    net::EncodeRequest(req, &sendbuf_);
  }
  InFlight inf;
  inf.op = req.op;
  inf.seq = req.seq;
  switch (req.op) {
    case net::Op::kTxn:
      for (const net::TxnWireOp& op : req.txn_ops) {
        if (op.kind != net::TxnOpKind::kRead) inf.txn_update = true;
      }
      [[fallthrough]];
    case net::Op::kRead:
    case net::Op::kUpsert:
    case net::Op::kRmw:
    case net::Op::kDelete:
      inf.predicted_serial = ++next_serial_;
      break;
    default:
      break;
  }
  if (options_.recorder != nullptr && inf.predicted_serial != 0) {
    inf.req = req;
  }
  inflight_.push_back(inf);
  if (inflight_.size() > stats_.max_inflight) {
    stats_.max_inflight = inflight_.size();
  }
  if (options_.track_replay && inf.predicted_serial != 0) {
    replay_.push_back(req);
    replay_serials_.push_back(inf.predicted_serial);
  }
}

void CprClient::EnqueueRead(uint64_t key) {
  net::Request req;
  req.op = net::Op::kRead;
  req.seq = next_seq_++;
  req.key = key;
  EnqueueRequest(req);
}

void CprClient::EnqueueUpsert(uint64_t key, const void* value) {
  net::Request req;
  req.op = net::Op::kUpsert;
  req.seq = next_seq_++;
  req.key = key;
  const char* p = static_cast<const char*>(value);
  req.value.assign(p, p + value_size_);
  EnqueueRequest(req);
}

void CprClient::EnqueueRmw(uint64_t key, int64_t delta) {
  net::Request req;
  req.op = net::Op::kRmw;
  req.seq = next_seq_++;
  req.key = key;
  req.delta = delta;
  EnqueueRequest(req);
}

void CprClient::EnqueueDelete(uint64_t key) {
  net::Request req;
  req.op = net::Op::kDelete;
  req.seq = next_seq_++;
  req.key = key;
  EnqueueRequest(req);
}

void CprClient::EnqueueTxn(const std::vector<net::TxnWireOp>& ops) {
  net::Request req;
  req.op = net::Op::kTxn;
  req.seq = next_seq_++;
  req.txn_ops = ops;
  EnqueueRequest(req);
}

void CprClient::EnqueueCheckpoint(bool snapshot, bool include_index) {
  net::Request req;
  req.op = net::Op::kCheckpoint;
  req.seq = next_seq_++;
  req.variant = snapshot ? 1 : 0;
  req.include_index = include_index;
  EnqueueRequest(req);
}

void CprClient::EnqueueCommitPoint() {
  net::Request req;
  req.op = net::Op::kCommitPoint;
  req.seq = next_seq_++;
  EnqueueRequest(req);
}

void CprClient::EnqueueStats(net::StatsKind kind) {
  net::Request req;
  req.op = net::Op::kStats;
  req.seq = next_seq_++;
  req.stats_kind = kind;
  EnqueueRequest(req);
}

void CprClient::EnqueueProvider(net::ProviderAction action,
                                durability::ProviderKind kind) {
  net::Request req;
  req.op = net::Op::kProvider;
  req.seq = next_seq_++;
  req.provider_action = action;
  req.provider_kind = kind;
  EnqueueRequest(req);
}

void CprClient::EnqueueDump(uint32_t table, uint64_t start_row,
                            uint32_t max_rows) {
  net::Request req;
  req.op = net::Op::kDump;
  req.seq = next_seq_++;
  req.table = table;
  req.start_row = start_row;
  req.max_rows = max_rows;
  EnqueueRequest(req);
}

Status CprClient::SendAll(const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IoError("send() failed: " + std::string(strerror(errno)));
    }
    // Remaining cases take nothing off our buffer but are not fatal:
    // n == 0 sets no errno at all (reporting the stale one would blame an
    // unrelated earlier failure), and EAGAIN/EWOULDBLOCK just means the
    // socket buffer is full — a non-blocking fd, or a blocking send that
    // hit SO_SNDTIMEO under a deep pipeline. Wait for writability instead
    // of killing a healthy connection.
    pollfd pfd{fd_, POLLOUT, 0};
    const int timeout_ms =
        options_.send_timeout_ms > 0 ? options_.send_timeout_ms : -1;
    const int p = ::poll(&pfd, 1, timeout_ms);
    if (p == 0) {
      return Status::IoError("send stalled: server not draining");
    }
    if (p < 0 && errno != EINTR) {
      return Status::IoError("poll() failed: " + std::string(strerror(errno)));
    }
  }
  return Status::Ok();
}

void CprClient::FlushBatchStage() {
  if (batch_stage_ops_ == 0) return;
  if (batch_stage_ops_ == 1) {
    // One staged op: its sub-message already IS a complete standalone
    // frame; ship it unbatched (no BATCH overhead, same bytes either way).
    sendbuf_.insert(sendbuf_.end(), batch_stage_.begin(), batch_stage_.end());
  } else {
    // BATCH frame: u32 len | u8 op | u32 seq | u32 n | staged sub-frames.
    const uint32_t payload_len =
        static_cast<uint32_t>(1 + 4 + 4 + batch_stage_.size());
    auto pod = [this](const void* p, size_t n) {
      const char* c = static_cast<const char*>(p);
      sendbuf_.insert(sendbuf_.end(), c, c + n);
    };
    pod(&payload_len, sizeof(payload_len));
    const uint8_t op = static_cast<uint8_t>(net::Op::kBatch);
    pod(&op, sizeof(op));
    pod(&batch_stage_seq_, sizeof(batch_stage_seq_));
    pod(&batch_stage_ops_, sizeof(batch_stage_ops_));
    sendbuf_.insert(sendbuf_.end(), batch_stage_.begin(), batch_stage_.end());
  }
  batch_stage_.clear();
  batch_stage_ops_ = 0;
}

Status CprClient::Flush() {
  if (fd_ < 0) return Status::IoError("not connected");
  FlushBatchStage();
  if (sendbuf_.empty()) return Status::Ok();
  Status s = SendAll(sendbuf_.data(), sendbuf_.size());
  sendbuf_.clear();
  return s;
}

net::FrameResult CprClient::NextBufferedFrame(net::Response* resp,
                                              Status* error) {
  std::string_view payload;
  size_t consumed = 0;
  const net::FrameResult fr =
      net::TryExtractFrame(recvbuf_.data() + recv_off_,
                           recvbuf_.size() - recv_off_, &payload, &consumed);
  if (fr == net::FrameResult::kBadFrame) {
    *error = Status::Corruption("bad frame from server");
    return fr;
  }
  if (fr == net::FrameResult::kFrame) {
    const bool ok = net::DecodeResponse(payload, resp);
    recv_off_ += consumed;
    if (!ok) {
      *error = Status::Corruption("undecodable response");
      return net::FrameResult::kBadFrame;
    }
  }
  return fr;
}

void CprClient::CompactRecvBuf() {
  if (recv_off_ == 0) return;
  if (recv_off_ == recvbuf_.size()) {
    recvbuf_.clear();
  } else {
    recvbuf_.erase(recvbuf_.begin(), recvbuf_.begin() + recv_off_);
  }
  recv_off_ = 0;
}

Status CprClient::ReadResponse(net::Response* resp) {
  while (true) {
    // Decoded frames advance recv_off_; the consumed prefix is dropped in
    // one compaction, not per frame — per-frame erases are quadratic across
    // an ack burst (the earlier TryDrain fix, now shared).
    Status error;
    const net::FrameResult fr = NextBufferedFrame(resp, &error);
    if (fr == net::FrameResult::kBadFrame) {
      CompactRecvBuf();
      return error;
    }
    if (fr == net::FrameResult::kFrame) {
      // Amortized compaction: free clear once fully consumed, otherwise
      // only when the dead prefix has grown large.
      if (recv_off_ == recvbuf_.size() || recv_off_ >= (256u << 10)) {
        CompactRecvBuf();
      }
      return Status::Ok();
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      recvbuf_.insert(recvbuf_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) return Status::IoError("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Aborted("receive timeout");
    }
    return Status::IoError("recv() failed: " + std::string(strerror(errno)));
  }
}

Status CprClient::ProcessResponse(net::Response resp, std::vector<Result>* out,
                                  size_t* n_processed) {
  size_t n = 0;
  Status s;
  if (resp.op == net::Op::kBatch) {
    // One frame, many logical responses: unpack through the single-response
    // core so seq matching, recording, durability notes and replay
    // bookkeeping are per op, exactly as for standalone frames.
    if (resp.status != net::WireStatus::kOk || resp.batch.empty()) {
      // An empty/failed batch consumed no in-flight op; treating it as
      // progress-free corruption also keeps Drain from spinning forever.
      s = Status::Corruption("batch response carried no sub-responses");
    } else {
      for (net::Response& sub : resp.batch) {
        s = ProcessOne(std::move(sub), out);
        if (!s.ok()) break;
        ++n;
      }
    }
  } else {
    s = ProcessOne(std::move(resp), out);
    if (s.ok()) n = 1;
  }
  if (n_processed != nullptr) *n_processed = n;
  return s;
}

Status CprClient::ProcessOne(net::Response resp, std::vector<Result>* out) {
  if (inflight_.empty()) {
    return Status::Corruption("response with nothing in flight");
  }
  const InFlight inf = inflight_.front();
  inflight_.pop_front();
  if (resp.seq != inf.seq || resp.op != inf.op) {
    return Status::Corruption("response out of order (pipeline desync)");
  }
  // A durable-mode *update* ack means a checkpoint covers that serial;
  // checkpoint and commit-point responses report the committed prefix
  // explicitly. A NOT_DURABLE ack is the opposite: the server could not
  // persist a covering checkpoint, so the op must stay in the replay
  // buffer. Read acks prove nothing about their own serial — the server
  // releases a read once every *earlier update* is covered, before any
  // checkpoint covers the read itself. Treating the read's serial as
  // durable would pop it from the replay buffer above the real commit
  // point, and a post-crash replay would then regenerate every later
  // serial shifted down by one — breaking the serial identity that
  // sharded per-shard replay dedup depends on.
  // A conflicted TXN is the same on either ack mode: the server consumed
  // one serial with no effects, so strip the replay entry's effects (the
  // serial is still regenerated on replay) — and never treat the ack as a
  // durability proof.
  if (resp.op == net::Op::kTxn &&
      resp.status == net::WireStatus::kTxnConflict) {
    stats_.txn_conflicts += 1;
    NeutralizeReplay(resp.serial);
  }
  if (resp.status == net::WireStatus::kRecovering) {
    stats_.recovering_rejections += 1;
    // serial != 0: the server burned that serial for the rejection, so the
    // replay slot must regenerate it effect-free; the caller retries the op
    // under a fresh serial. serial == 0 (shutdown drain): nothing was
    // consumed, the request stays intact in the replay buffer and is
    // re-issued verbatim at the next reconnect.
    if (resp.serial != 0) NeutralizeReplay(resp.serial);
  }
  if (options_.recorder != nullptr && inf.predicted_serial != 0) {
    RecordOp(inf, resp);
  }
  if (resp.status == net::WireStatus::kNotDurable) {
    stats_.not_durable_acks += 1;
  } else if (options_.ack_mode == net::AckMode::kDurable &&
             resp.op != net::Op::kRead && resp.serial != 0 &&
             resp.status != net::WireStatus::kNoSession &&
             resp.status != net::WireStatus::kBadRequest &&
             resp.status != net::WireStatus::kTxnConflict &&
             // A RECOVERING rejection releases immediately (zero effects,
             // nothing to make durable); its burned serial proves nothing
             // about earlier updates.
             resp.status != net::WireStatus::kRecovering &&
             (resp.op != net::Op::kTxn || inf.txn_update)) {
    NoteDurable(resp.serial);
    if (options_.recorder != nullptr) {
      options_.recorder->OnDurable(resp.serial);
    }
  }
  if ((resp.op == net::Op::kCheckpoint ||
       resp.op == net::Op::kCommitPoint) &&
      resp.status == net::WireStatus::kOk) {
    NoteDurable(resp.commit_serial);
    if (options_.recorder != nullptr) {
      options_.recorder->OnDurable(resp.commit_serial);
    }
  }
  if (out != nullptr) out->push_back(std::move(resp));
  return Status::Ok();
}

void CprClient::RecordOp(const InFlight& inf, const net::Response& resp) {
  // Journal only responses that consumed a session serial: OK, NOT_FOUND
  // (executed, key absent), NOT_DURABLE (executed, not yet covered) and
  // TXN_CONFLICT (serial consumed with zero effects). NO_SESSION /
  // BAD_REQUEST / BUSY consumed nothing and prove nothing.
  switch (resp.status) {
    case net::WireStatus::kOk:
    case net::WireStatus::kNotFound:
    case net::WireStatus::kNotDurable:
    case net::WireStatus::kTxnConflict:
      break;
    case net::WireStatus::kRecovering:
      // serial != 0: burned with zero effects — journaled so the checker
      // accounts for the consumed serial. serial == 0 (shutdown drain):
      // nothing consumed, nothing to journal.
      if (resp.serial == 0) return;
      break;
    default:
      return;
  }
  certify::EventOp op;
  op.serial = resp.serial;
  op.op = inf.op;
  op.status = resp.status;
  op.key = inf.req.key;
  op.delta = inf.req.delta;
  if (inf.op == net::Op::kUpsert) {
    op.value = inf.req.value;
  } else if (inf.op == net::Op::kRead &&
             resp.status == net::WireStatus::kOk) {
    op.value = resp.value;
  }
  if (inf.op == net::Op::kTxn) {
    op.txn_ops = inf.req.txn_ops;
    if (resp.status == net::WireStatus::kOk) {
      op.txn_reads = resp.txn_reads;
    }
  }
  if (resp.serial > max_recorded_serial_) max_recorded_serial_ = resp.serial;
  options_.recorder->OnOp(op);
}

void CprClient::RecordResolvedPrefix(uint64_t recovered) {
  // Durable-mode acks are checkpoint-gated, so a crash can land after a
  // checkpoint committed serials whose acks were still parked server-side.
  // At reconnect those ops sit in the replay buffer at or below the
  // recovered commit point: committed (the server holds their effects),
  // never acked, and about to be pruned without replay. Journal them from
  // the buffered requests as resolved-by-recovery — intent known, result
  // never observed — in serial order so the recorded stream stays
  // contiguous up to the HELLO that reports the commit point.
  for (size_t i = 0;
       i < replay_serials_.size() && replay_serials_[i] <= recovered; ++i) {
    const uint64_t serial = replay_serials_[i];
    if (serial <= max_recorded_serial_) continue;  // its ack was recorded
    const net::Request& req = replay_[i];
    certify::EventOp op;
    op.serial = serial;
    op.op = req.op;
    op.status = net::WireStatus::kOk;
    op.key = req.key;
    op.delta = req.delta;
    if (req.op == net::Op::kUpsert) op.value = req.value;
    if (req.op == net::Op::kTxn) op.txn_ops = req.txn_ops;
    op.resolved_by_recovery = true;
    options_.recorder->OnOp(op);
  }
  if (recovered > max_recorded_serial_) max_recorded_serial_ = recovered;
}

Status CprClient::Drain(std::vector<Result>* out, size_t count) {
  if (count == 0) count = inflight_.size();
  while (count > 0) {
    if (inflight_.empty()) {
      return Status::InvalidArgument("drain: nothing in flight");
    }
    net::Response resp;
    Status s = ReadResponse(&resp);
    if (!s.ok()) return s;
    size_t n = 0;
    s = ProcessResponse(std::move(resp), out, &n);
    if (!s.ok()) return s;
    // A BATCH frame may settle more in-flight ops than the caller asked
    // for; over-delivering (never blocking for extra frames) is the
    // batching-compatible reading of `count`.
    count -= std::min(count, n);
  }
  return Status::Ok();
}

Status CprClient::TryDrain(std::vector<Result>* out, size_t* processed) {
  if (processed != nullptr) *processed = 0;
  if (fd_ < 0) return Status::IoError("not connected");
  Status status = Status::Ok();
  while (!inflight_.empty()) {
    // Frames already buffered are pure CPU work; consume those first.
    // (recv_off_ advances per frame; one compaction on exit — per-frame
    // erases are quadratic exactly when a burst of held durable acks lands
    // at once, the case TryDrain exists for.)
    net::Response resp;
    Status error;
    const net::FrameResult fr = NextBufferedFrame(&resp, &error);
    if (fr == net::FrameResult::kBadFrame) {
      status = error;
      break;
    }
    if (fr == net::FrameResult::kFrame) {
      size_t n = 0;
      status = ProcessResponse(std::move(resp), out, &n);
      if (!status.ok()) break;
      if (processed != nullptr) *processed += n;
      continue;
    }
    // Partial frame: only read when bytes are ready right now, so a held
    // durable ack never blocks the caller.
    pollfd pfd{fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      status =
          Status::IoError("poll() failed: " + std::string(strerror(errno)));
      break;
    }
    char buf[64 * 1024];
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r > 0) {
      recvbuf_.insert(recvbuf_.end(), buf, buf + r);
      continue;
    }
    if (r == 0) {
      status = Status::IoError("connection closed by server");
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    status = Status::IoError("recv() failed: " + std::string(strerror(errno)));
    break;
  }
  CompactRecvBuf();
  return status;
}

namespace {
Status AsStatus(const CprClient::Result& r) {
  switch (r.status) {
    case net::WireStatus::kOk:
      return Status::Ok();
    case net::WireStatus::kNotFound:
      return Status::NotFound();
    case net::WireStatus::kBusy:
      return Status::Busy();
    case net::WireStatus::kBadRequest:
    case net::WireStatus::kNoSession:
      return Status::InvalidArgument(net::StatusName(r.status));
    case net::WireStatus::kNotDurable:
      // Executed but not durable (checkpoint device failing); the op stays
      // in the replay buffer for the next reconnect/checkpoint.
      return Status::Aborted("operation executed but not durable");
    case net::WireStatus::kTxnConflict:
      // NO-WAIT abort: nothing applied, retry the whole transaction.
      return Status::Busy("transaction conflict (NO-WAIT), retry");
    case net::WireStatus::kRecovering:
      // Shard still restoring and the parking queue is full: nothing was
      // applied, retry (the sync helpers already did, with backoff).
      return Status::Busy("shard recovering, retry");
    case net::WireStatus::kError:
      break;
  }
  return Status::IoError("server error");
}
}  // namespace

Status CprClient::RunRetryable(const std::function<void()>& enqueue,
                               Result* out) {
  int delay_ms = std::max(1, options_.recovering_backoff_ms);
  const int cap_ms = std::max(delay_ms, options_.max_recovering_backoff_ms);
  const int attempts = std::max(1, options_.recovering_retry_attempts);
  for (int attempt = 0;; ++attempt) {
    enqueue();
    Status s = Flush();
    if (!s.ok()) return s;
    std::vector<Result> results;
    s = Drain(&results, 1);
    if (!s.ok()) return s;
    Result& r = results.front();
    if (r.status != net::WireStatus::kRecovering || attempt + 1 >= attempts) {
      *out = std::move(r);
      return Status::Ok();
    }
    // The rejection burned an effect-free serial (already neutralized in
    // ProcessResponse); retry the op under a fresh serial after a jittered
    // backoff so a fleet of waiting clients does not hammer the shard.
    stats_.recovering_retries += 1;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(JitteredBackoffMs(delay_ms, cap_ms)));
  }
}

Status CprClient::Read(uint64_t key, void* value_out, bool* found) {
  Result r;
  Status s = RunRetryable([&] { EnqueueRead(key); }, &r);
  if (!s.ok()) return s;
  if (r.status == net::WireStatus::kOk) {
    *found = true;
    std::memcpy(value_out, r.value.data(),
                std::min<size_t>(r.value.size(), value_size_));
    return Status::Ok();
  }
  if (r.status == net::WireStatus::kNotFound) {
    *found = false;
    return Status::Ok();
  }
  return AsStatus(r);
}

Status CprClient::Txn(const std::vector<net::TxnWireOp>& ops,
                      std::vector<std::vector<char>>* reads) {
  if (ops.empty() || ops.size() > net::kMaxTxnOpsLogical) {
    return Status::InvalidArgument("txn op set empty or above logical cap");
  }
  size_t n_reads = 0;
  for (const net::TxnWireOp& op : ops) {
    if (op.kind == net::TxnOpKind::kRead) ++n_reads;
  }
  if (n_reads > net::kMaxTxnOps) {
    return Status::InvalidArgument("txn read set above response frame cap");
  }
  Result r;
  Status s = RunRetryable([&] { EnqueueTxn(ops); }, &r);
  if (!s.ok()) return s;
  if (r.status == net::WireStatus::kOk && reads != nullptr) {
    *reads = std::move(r.txn_reads);
  }
  return AsStatus(r);
}

Status CprClient::Upsert(uint64_t key, const void* value) {
  Result r;
  Status s = RunRetryable([&] { EnqueueUpsert(key, value); }, &r);
  if (!s.ok()) return s;
  return AsStatus(r);
}

Status CprClient::Rmw(uint64_t key, int64_t delta) {
  Result r;
  Status s = RunRetryable([&] { EnqueueRmw(key, delta); }, &r);
  if (!s.ok()) return s;
  return AsStatus(r);
}

Status CprClient::Delete(uint64_t key, bool* found) {
  Result r;
  Status s = RunRetryable([&] { EnqueueDelete(key); }, &r);
  if (!s.ok()) return s;
  if (found != nullptr) *found = r.status == net::WireStatus::kOk;
  if (r.status == net::WireStatus::kNotFound) return Status::Ok();
  return AsStatus(r);
}

// Control ops never answer RECOVERING, so RunRetryable makes exactly one
// round trip for them.
Status CprClient::Checkpoint(uint64_t* token, uint64_t* commit_serial,
                             bool snapshot, bool include_index) {
  Result r;
  Status s = RunRetryable(
      [&] { EnqueueCheckpoint(snapshot, include_index); }, &r);
  if (!s.ok()) return s;
  if (r.status != net::WireStatus::kOk) return AsStatus(r);
  if (token != nullptr) *token = r.token;
  if (commit_serial != nullptr) *commit_serial = r.commit_serial;
  return Status::Ok();
}

Status CprClient::CommitPoint(uint64_t* commit_serial) {
  Result r;
  Status s = RunRetryable([&] { EnqueueCommitPoint(); }, &r);
  if (!s.ok()) return s;
  if (r.status != net::WireStatus::kOk) return AsStatus(r);
  *commit_serial = r.commit_serial;
  return Status::Ok();
}

Status CprClient::FetchStats(net::StatsKind kind, std::string* out) {
  Result r;
  Status s = RunRetryable([&] { EnqueueStats(kind); }, &r);
  if (!s.ok()) return s;
  if (r.status != net::WireStatus::kOk) return AsStatus(r);
  out->assign(r.stats.begin(), r.stats.end());
  return Status::Ok();
}

Status CprClient::ServerStats(std::string* text) {
  return FetchStats(net::StatsKind::kMetricsText, text);
}

Status CprClient::ServerTrace(std::string* json) {
  return FetchStats(net::StatsKind::kTraceJson, json);
}

Status CprClient::ServerHealth(std::string* json) {
  return FetchStats(net::StatsKind::kHealth, json);
}

Status CprClient::ServerBreakdown(std::string* json) {
  return FetchStats(net::StatsKind::kReqBreakdown, json);
}

namespace {
CprClient::ProviderStatus ToProviderStatus(const CprClient::Result& r) {
  CprClient::ProviderStatus ps;
  ps.kind = r.provider_kind;
  ps.pending = r.provider_pending;
  ps.switches = r.provider_switches;
  ps.last_boundary = r.provider_last_boundary;
  return ps;
}
}  // namespace

Status CprClient::ProviderInfo(ProviderStatus* out) {
  Result r;
  Status s =
      RunRetryable([&] { EnqueueProvider(net::ProviderAction::kQuery); }, &r);
  if (!s.ok()) return s;
  if (r.status != net::WireStatus::kOk) return AsStatus(r);
  if (out != nullptr) *out = ToProviderStatus(r);
  return Status::Ok();
}

Status CprClient::SwitchProvider(durability::ProviderKind target,
                                 ProviderStatus* out) {
  Result r;
  Status s = RunRetryable(
      [&] { EnqueueProvider(net::ProviderAction::kSwitch, target); }, &r);
  if (!s.ok()) return s;
  if (r.status != net::WireStatus::kOk) return AsStatus(r);
  if (out != nullptr) *out = ToProviderStatus(r);
  return Status::Ok();
}

Status CprClient::DumpState(certify::StateDump* out) {
  out->tables.clear();
  for (uint32_t table = 0;; ++table) {
    certify::StateDump::TableDump td;
    uint64_t cursor = 0;
    bool first_page = true;
    while (true) {
      Result r;
      Status s = RunRetryable(
          [&] { EnqueueDump(table, cursor, /*max_rows=*/4096); }, &r);
      if (!s.ok()) return s;
      if (r.status == net::WireStatus::kNotFound) {
        // Table ids are dense from zero; the first NOT_FOUND ends the scan.
        if (!first_page) {
          return Status::Corruption("table vanished mid-dump");
        }
        return Status::Ok();
      }
      if (r.status != net::WireStatus::kOk) return AsStatus(r);
      if (first_page) {
        td.value_size = r.value_size;
        td.rows_total = r.dump_rows_total;
        first_page = false;
      }
      for (net::DumpRow& row : r.dump_rows) {
        td.rows.push_back(std::move(row));
      }
      if (r.dump_next_row == 0) break;
      cursor = r.dump_next_row;
    }
    out->tables.push_back(std::move(td));
  }
}

}  // namespace cpr::client
