#include "timed_backend.h"

namespace perfbench {

using cpr::NowNanos;
using cpr::faster::OpStatus;

namespace {

std::atomic<uint64_t> next_decorator_id{1};

uint32_t Narrow(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

template <typename T>
void AppendAll(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

void CallLog::Append(const CallLog& o) {
  AppendAll(read_ns, o.read_ns);
  AppendAll(rmw_ns, o.rmw_ns);
  AppendAll(upsert_ns, o.upsert_ns);
  AppendAll(txn_ns, o.txn_ns);
  data_calls += o.data_calls;
  data_call_ns += o.data_call_ns;
  pending += o.pending;
  refresh_calls += o.refresh_calls;
  refresh_ns += o.refresh_ns;
  complete_busy_calls += o.complete_busy_calls;
  complete_busy_ns += o.complete_busy_ns;
  txn_conflicts += o.txn_conflicts;
  AppendAll(spans, o.spans);
}

TimedBackend::TimedBackend(cpr::kv::Backend* inner, uint64_t span_every)
    : inner_(inner),
      span_every_(span_every == 0 ? 1 : span_every),
      id_(next_decorator_id.fetch_add(1)) {}

CallLog& TimedBackend::ThisThreadLog() {
  thread_local uint64_t owner = 0;
  thread_local CallLog* log = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(logs_mu_);
    logs_.push_back(std::make_unique<CallLog>());
    log = logs_.back().get();
    log->thread = static_cast<uint32_t>(logs_.size() - 1);
    owner = id_;
  }
  return *log;
}

CallLog TimedBackend::Merge() const {
  CallLog all;
  std::lock_guard<std::mutex> lock(logs_mu_);
  for (const auto& log : logs_) all.Append(*log);
  return all;
}

void TimedBackend::NoteKeyCall(cpr::kv::Session& s, char op,
                               std::vector<uint32_t> CallLog::*samples,
                               uint64_t start, OpStatus st) {
  const uint64_t dur = NowNanos() - start;
  CallLog& log = ThisThreadLog();
  (log.*samples).push_back(Narrow(dur));
  ++log.data_calls;
  log.data_call_ns += dur;
  if (st == OpStatus::kPending) ++log.pending;
  const uint64_t serial = s.serial();
  if (serial % span_every_ == 0) {
    log.spans.push_back(
        BackendSpan{s.guid(), serial, start, Narrow(dur), log.thread, op});
  }
}

OpStatus TimedBackend::Read(cpr::kv::Session& s, uint64_t key,
                            void* value_out) {
  if (!recording()) return inner_->Read(s, key, value_out);
  const uint64_t start = NowNanos();
  const OpStatus st = inner_->Read(s, key, value_out);
  NoteKeyCall(s, 'r', &CallLog::read_ns, start, st);
  return st;
}

OpStatus TimedBackend::Upsert(cpr::kv::Session& s, uint64_t key,
                              const void* value) {
  if (!recording()) return inner_->Upsert(s, key, value);
  const uint64_t start = NowNanos();
  const OpStatus st = inner_->Upsert(s, key, value);
  NoteKeyCall(s, 'u', &CallLog::upsert_ns, start, st);
  return st;
}

OpStatus TimedBackend::Rmw(cpr::kv::Session& s, uint64_t key, int64_t delta) {
  if (!recording()) return inner_->Rmw(s, key, delta);
  const uint64_t start = NowNanos();
  const OpStatus st = inner_->Rmw(s, key, delta);
  NoteKeyCall(s, 'm', &CallLog::rmw_ns, start, st);
  return st;
}

void TimedBackend::Refresh(cpr::kv::Session& s) {
  if (!recording()) return inner_->Refresh(s);
  const uint64_t start = NowNanos();
  inner_->Refresh(s);
  CallLog& log = ThisThreadLog();
  ++log.refresh_calls;
  log.refresh_ns += NowNanos() - start;
}

size_t TimedBackend::CompletePending(cpr::kv::Session& s, bool wait_for_all) {
  if (!recording()) return inner_->CompletePending(s, wait_for_all);
  const uint64_t start = NowNanos();
  const size_t done = inner_->CompletePending(s, wait_for_all);
  if (done > 0) {
    CallLog& log = ThisThreadLog();
    ++log.complete_busy_calls;
    log.complete_busy_ns += NowNanos() - start;
  }
  return done;
}

cpr::kv::TxnStatus TimedBackend::Txn(cpr::kv::Session& s,
                                     const std::vector<cpr::kv::TxnOp>& ops,
                                     std::vector<std::vector<char>>* reads) {
  if (!recording()) return inner_->Txn(s, ops, reads);
  const uint64_t start = NowNanos();
  const cpr::kv::TxnStatus st = inner_->Txn(s, ops, reads);
  const uint64_t dur = NowNanos() - start;
  CallLog& log = ThisThreadLog();
  log.txn_ns.push_back(Narrow(dur));
  ++log.data_calls;
  log.data_call_ns += dur;
  if (st == cpr::kv::TxnStatus::kConflict) ++log.txn_conflicts;
  const uint64_t serial = s.serial();
  if (serial % span_every_ == 0) {
    log.spans.push_back(
        BackendSpan{s.guid(), serial, start, Narrow(dur), log.thread, 't'});
  }
  return st;
}

}  // namespace perfbench
