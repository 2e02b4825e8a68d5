#include "obs/reqtrace.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace cpr::obs {

namespace {

uint32_t DefaultSampleEvery() {
  const char* env = std::getenv("CPR_REQTRACE_SAMPLE");
  if (env == nullptr || env[0] == '\0') return 64;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 64;
  return static_cast<uint32_t>(v);
}

void AppendHistJson(std::string* out, const char* key,
                    const HistogramData& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%" PRIu64 ",\"sum_ns\":%" PRIu64
                ",\"mean_ns\":%.1f,\"p50_ns\":%" PRIu64 ",\"p99_ns\":%" PRIu64
                "}",
                key, h.count, h.sum, h.Mean(), h.Quantile(0.5),
                h.Quantile(0.99));
  out->append(buf);
}

}  // namespace

ReqTrace::ReqTrace(uint32_t capacity, MetricsRegistry* registry,
                   uint32_t sample_every)
    : ring_(capacity), sample_every_(sample_every) {
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    stage_hist_[i] = registry->GetHistogram(
        std::string("cpr_req_stage_ns{stage=\"") + kReqStageNames[i] + "\"}");
  }
  e2e_hist_ = registry->GetHistogram("cpr_req_e2e_ns");
}

ReqTrace& ReqTrace::Default() {
  // Leaked like MetricsRegistry::Default(): the server records from worker
  // threads that may still be draining at static-destruction time.
  static ReqTrace* trace =
      new ReqTrace(2048, &MetricsRegistry::Default(), DefaultSampleEvery());
  return *trace;
}

void ReqTrace::Record(const ReqSpan& span) {
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    stage_hist_[i]->Record(span.stage_ns[i]);
  }
  e2e_hist_->Record(span.TotalNs());

  const uint64_t n = recorded_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0 || n % every != 0) return;

  ring_.Push(span);
}

void ReqTrace::Clear() {
  ring_.Clear();
  recorded_.store(0, std::memory_order_relaxed);
}

std::string ReqTrace::RenderBreakdownJson() const {
  std::string out = "{";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"sample_every\":%u,\"recorded_ops\":%" PRIu64
                ",\"sampled_spans\":%" PRIu64 ",",
                sample_every(), recorded(), sampled());
  out.append(buf);
  out.append("\"stages\":{");
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    if (i != 0) out.push_back(',');
    AppendHistJson(&out, kReqStageNames[i], stage_hist_[i]->Sample());
  }
  out.append("},");
  AppendHistJson(&out, "e2e_ns", e2e_hist_->Sample());
  out.push_back('}');
  return out;
}

std::string ReqTrace::RenderSpansText(size_t max_spans) const {
  std::vector<ReqSpan> spans = Snapshot();
  if (spans.size() > max_spans) {
    spans.erase(spans.begin(),
                spans.end() - static_cast<ptrdiff_t>(max_spans));
  }
  std::string out;
  out.reserve(spans.size() * 128 + 64);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "reqtrace: %zu sampled spans (1-in-%u of %" PRIu64
                " ops), newest last\n",
                spans.size(), sample_every(), recorded());
  out.append(buf);
  for (const ReqSpan& s : spans) {
    std::snprintf(buf, sizeof(buf), "start=%" PRIu64 " op=%u status=%u serial=%" PRIu64,
                  s.start_ns, s.op, s.status, s.serial);
    out.append(buf);
    for (uint32_t i = 0; i < kNumReqStages; ++i) {
      std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, kReqStageNames[i],
                    s.stage_ns[i]);
      out.append(buf);
    }
    std::snprintf(buf, sizeof(buf), " total=%" PRIu64 "\n", s.TotalNs());
    out.append(buf);
  }
  return out;
}

}  // namespace cpr::obs
