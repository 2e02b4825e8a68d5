#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace cpr::obs {

namespace {

uint32_t ThisThreadTid() {
  static thread_local const uint32_t tid = [] {
    const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
    // Keep it short & non-zero so trace rows group nicely.
    return static_cast<uint32_t>(h % 99989) + 1;
  }();
  return tid;
}

void CopyTruncated(char* dst, size_t cap, const char* src) {
  size_t i = 0;
  for (; src != nullptr && src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

Tracer& Tracer::Default() {
  // Holder (not a leak): the destructor runs at normal process exit and, if
  // CPR_TRACE_DUMP names a file, writes the checkpoint timeline there so CI
  // can attach it as an artifact after a failed run.
  struct Holder {
    Tracer tracer;
    ~Holder() {
      const char* path = std::getenv("CPR_TRACE_DUMP");
      if (path == nullptr || path[0] == '\0') return;
      const std::string json = tracer.ExportChromeTrace();
      if (std::FILE* f = std::fopen(path, "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    }
  };
  static Holder holder;
  return holder.tracer;
}

void Tracer::Record(const char* cat, const char* name, uint64_t start_ns,
                    uint64_t end_ns, uint64_t id) {
  TraceSpan s;
  s.start_ns = start_ns;
  s.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  s.id = id;
  s.tid = ThisThreadTid();
  CopyTruncated(s.cat, sizeof(s.cat), cat);
  CopyTruncated(s.name, sizeof(s.name), name);
  ring_.Push(s);
}

namespace {

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendEvent(std::string* out, const TraceSpan& s) {
  char buf[96];
  out->append("{\"name\":\"");
  AppendJsonEscaped(out, s.name);
  out->append("\",\"cat\":\"");
  AppendJsonEscaped(out, s.cat);
  // trace_event timestamps are microseconds; keep sub-µs spans visible.
  const uint64_t ts_us = s.start_ns / 1000;
  uint64_t dur_us = s.dur_ns / 1000;
  if (dur_us == 0 && s.dur_ns != 0) dur_us = 1;
  std::snprintf(buf, sizeof(buf),
                "\",\"ph\":\"X\",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                ",\"pid\":1,\"tid\":%u,\"args\":{\"id\":%" PRIu64 "}}",
                ts_us, dur_us, s.tid, s.id);
  out->append(buf);
}

}  // namespace

std::string SpansToChromeTrace(const std::vector<TraceSpan>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out.push_back(',');
    first = false;
    AppendEvent(&out, s);
  }
  out.append("]}");
  return out;
}

std::string Tracer::ExportChromeTrace(size_t max_bytes) const {
  std::vector<TraceSpan> spans = Snapshot();
  // Each serialized event is < 192 bytes; if the full set can't fit the
  // budget, keep the newest spans (the interesting end of a failed run).
  constexpr size_t kMaxEventBytes = 192;
  const size_t budget_events =
      max_bytes > 64 ? (max_bytes - 64) / kMaxEventBytes : 0;
  if (spans.size() > budget_events) {
    spans.erase(spans.begin(),
                spans.end() - static_cast<ptrdiff_t>(budget_events));
  }
  return SpansToChromeTrace(spans);
}

}  // namespace cpr::obs
