// Unit tests for the observability layer (src/obs): metrics registry
// (counters / gauges / histograms / collectors / text exposition) and the
// checkpoint lifecycle tracer (ring buffer + Chrome trace_event export).
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace cpr::obs {
namespace {

TEST(MetricsTest, CounterSumsAcrossThreads) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("cpr_test_ops_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST(MetricsTest, SameNameSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("cpr_test_shared_total");
  Counter* b = reg.GetCounter("cpr_test_shared_total");
  EXPECT_EQ(a, b);  // N instances aggregate into one counter
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->Value(), 5u);
  // Same name under a different kind is a distinct instrument.
  Gauge* g = reg.GetGauge("cpr_test_shared_total");
  g->Set(42);
  EXPECT_EQ(a->Value(), 5u);
  EXPECT_EQ(g->Value(), 42);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("cpr_test_depth");
  g->Set(10);
  g->Add(5);
  g->Add(-8);
  EXPECT_EQ(g->Value(), 7);
}

TEST(MetricsTest, HistogramMergeMatchesSingleWriter) {
  // The sharded concurrent histogram must agree exactly with a single-writer
  // HistogramData fed the same values, once recorders quiesce.
  MetricsRegistry reg;
  HistogramMetric* h = reg.GetHistogram("cpr_test_lat_ns");
  HistogramData expect;
  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> per_thread(kThreads);
  uint64_t rng = 12345;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 10'000; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const uint64_t v = rng % 1'000'000;
      per_thread[t].push_back(v);
      expect.Add(v);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, &per_thread, t] {
      for (uint64_t v : per_thread[t]) h->Record(v);
    });
  }
  for (auto& th : threads) th.join();
  const HistogramData got = h->Sample();
  EXPECT_EQ(got.count, expect.count);
  EXPECT_EQ(got.sum, expect.sum);
  EXPECT_EQ(got.buckets, expect.buckets);
  EXPECT_EQ(got.Quantile(0.5), expect.Quantile(0.5));
  EXPECT_EQ(got.Quantile(0.99), expect.Quantile(0.99));
}

TEST(MetricsTest, HistogramDataMergeAndQuantile) {
  HistogramData a, b;
  for (uint64_t v : {1u, 2u, 3u, 4u}) a.Add(v);
  for (uint64_t v : {100u, 200u, 400u, 100'000u}) b.Add(v);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.5);
  HistogramData m = a;
  m.Merge(b);
  EXPECT_EQ(m.count, 8u);
  EXPECT_EQ(m.sum, a.sum + b.sum);
  EXPECT_DOUBLE_EQ(m.Mean(), (10.0 + 100'700.0) / 8);
  EXPECT_LE(m.Quantile(0.5), m.Quantile(0.99));
  // q=1.0 lands in the max bucket (100000 < 2^17).
  EXPECT_EQ(m.Quantile(1.0), uint64_t{1} << 17);
  // q=0 lands in the min bucket (1 -> bucket 1, upper bound 2).
  EXPECT_EQ(m.Quantile(0.0), 2u);
  EXPECT_EQ(HistogramData{}.Quantile(0.5), 0u);
}

TEST(MetricsTest, ConcurrentRegisterRecordSnapshot) {
  // Registration (appending entries), recording (hot path) and snapshotting
  // (lock-free read of the published prefix) all race; nothing may tear or
  // crash, and after joining the snapshot must contain every instrument with
  // exact counts.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kNamesPerThread = 20;
  constexpr uint64_t kAddsPerName = 1'000;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const std::vector<MetricSample> s = reg.Snapshot();
      for (const MetricSample& m : s) {
        ASSERT_FALSE(m.name.empty());  // never observe half-built entries
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      for (int n = 0; n < kNamesPerThread; ++n) {
        Counter* c = reg.GetCounter("cpr_test_race_total{t=\"" +
                                    std::to_string(t) + "\",n=\"" +
                                    std::to_string(n) + "\"}");
        for (uint64_t i = 0; i < kAddsPerName; ++i) c->Add(1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  snapshotter.join();
  const std::vector<MetricSample> s = reg.Snapshot();
  EXPECT_EQ(s.size(), static_cast<size_t>(kThreads * kNamesPerThread));
  for (const MetricSample& m : s) {
    EXPECT_EQ(m.kind, MetricKind::kCounter);
    EXPECT_EQ(m.value, static_cast<double>(kAddsPerName));
  }
}

TEST(MetricsTest, CollectorAddRemove) {
  MetricsRegistry reg;
  double source = 3.5;
  const uint64_t id = reg.AddCollector([&source](const auto& emit) {
    emit("cpr_test_pulled", source);
    emit("cpr_test_pulled_twin", source * 2);
  });
  std::vector<MetricSample> s = reg.Snapshot();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].name, "cpr_test_pulled");
  EXPECT_EQ(s[0].kind, MetricKind::kGauge);
  EXPECT_EQ(s[0].value, 3.5);
  EXPECT_EQ(s[1].value, 7.0);
  source = 9.0;  // pull-style: next snapshot sees the new value
  s = reg.Snapshot();
  EXPECT_EQ(s[0].value, 9.0);
  reg.RemoveCollector(id);
  EXPECT_TRUE(reg.Snapshot().empty());
  reg.RemoveCollector(id);  // double remove is harmless
}

TEST(MetricsTest, RenderTextExposition) {
  MetricsRegistry reg;
  reg.GetCounter("cpr_test_reqs_total")->Add(7);
  reg.GetCounter("cpr_test_reqs_total{phase=\"prepare\"}")->Add(3);
  reg.GetGauge("cpr_test_depth")->Set(-2);
  HistogramMetric* h = reg.GetHistogram("cpr_test_lat_ns");
  h->Record(100);
  h->Record(200);
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("# TYPE cpr_test_reqs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cpr_test_reqs_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("cpr_test_reqs_total{phase=\"prepare\"} 3\n"),
            std::string::npos);
  // The labeled family member must not repeat the # TYPE header.
  EXPECT_EQ(text.find("# TYPE cpr_test_reqs_total counter"),
            text.rfind("# TYPE cpr_test_reqs_total counter"));
  EXPECT_NE(text.find("# TYPE cpr_test_depth gauge\ncpr_test_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cpr_test_lat_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("cpr_test_lat_ns_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("cpr_test_lat_ns_sum 300\n"), std::string::npos);
  EXPECT_NE(text.find("cpr_test_lat_ns{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("cpr_test_lat_ns{quantile=\"1\"} "), std::string::npos);
  // Every line is `# TYPE ...` or `name value`.
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // text ends with a newline
    const std::string line = text.substr(pos, eol - pos);
    if (line.rfind("# TYPE ", 0) != 0) {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

TEST(MetricsTest, RenderTextScrapeSequenceAndClock) {
  MetricsRegistry reg;
  auto value_after = [](const std::string& text, const char* name) {
    // Anchor at line start: a bare find would hit the `# TYPE name ...`
    // header first and parse its type word as 0.
    const size_t p = text.find("\n" + std::string(name) + " ");
    EXPECT_NE(p, std::string::npos) << name;
    return std::strtoull(text.c_str() + p + 1 + std::strlen(name) + 1,
                         nullptr, 10);
  };
  const std::string t1 = reg.RenderText();
  const std::string t2 = reg.RenderText();
  // The scrape sequence increments per render (scrapers detect restarts when
  // it goes backwards) and the monotonic clock never runs backwards.
  EXPECT_EQ(value_after(t1, "cpr_scrape_seq"), 1u);
  EXPECT_EQ(value_after(t2, "cpr_scrape_seq"), 2u);
  EXPECT_NE(t1.find("# TYPE cpr_scrape_seq counter\n"), std::string::npos);
  EXPECT_NE(t1.find("# TYPE cpr_monotonic_time_ns gauge\n"),
            std::string::npos);
  const uint64_t c1 = value_after(t1, "cpr_monotonic_time_ns");
  const uint64_t c2 = value_after(t2, "cpr_monotonic_time_ns");
  EXPECT_GT(c1, 0u);
  EXPECT_GE(c2, c1);
}

TEST(MetricsTest, OverflowPastCapReturnsDummy) {
  MetricsRegistry reg;
  for (uint32_t i = 0; i < MetricsRegistry::kMaxMetrics; ++i) {
    reg.GetCounter("cpr_test_fill_total{i=\"" + std::to_string(i) + "\"}");
  }
  EXPECT_EQ(reg.NumInstruments(), MetricsRegistry::kMaxMetrics);
  Counter* overflow = reg.GetCounter("cpr_test_one_too_many_total");
  overflow->Add(1);  // records into the void, but must not crash
  EXPECT_EQ(reg.NumInstruments(), MetricsRegistry::kMaxMetrics);
  // Existing names still resolve to their real instruments.
  Counter* existing = reg.GetCounter("cpr_test_fill_total{i=\"0\"}");
  existing->Add(4);
  EXPECT_EQ(existing->Value(), 4u);
}

// -- Tracer -----------------------------------------------------------------

TEST(TraceTest, RecordSnapshotOrderAndTruncation) {
  Tracer tracer(16);
  tracer.Record("faster", "prepare", 1'000, 2'500, 77);
  tracer.Record("a-very-long-category-name", "a-name-longer-than-twenty-chars",
                3'000, 3'000, 1);
  const std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].cat, "faster");
  EXPECT_STREQ(spans[0].name, "prepare");
  EXPECT_EQ(spans[0].start_ns, 1'000u);
  EXPECT_EQ(spans[0].dur_ns, 1'500u);
  EXPECT_EQ(spans[0].id, 77u);
  EXPECT_NE(spans[0].tid, 0u);
  // cat/name are truncated to their fixed field sizes, NUL included.
  EXPECT_EQ(std::strlen(spans[1].cat), sizeof(TraceSpan{}.cat) - 1);
  EXPECT_EQ(std::strlen(spans[1].name), sizeof(TraceSpan{}.name) - 1);
  EXPECT_EQ(spans[1].dur_ns, 0u);  // end == start
}

TEST(TraceTest, RingKeepsNewestOnWrap) {
  Tracer tracer(4);  // power of two already
  ASSERT_EQ(tracer.capacity(), 4u);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Record("t", ("s" + std::to_string(i)).c_str(), i * 10, i * 10 + 5,
                  i);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, 6 + i);  // oldest-first among the survivors
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TraceTest, ConcurrentRecordersAndSnapshots) {
  Tracer tracer(256);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5'000;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const std::vector<TraceSpan> s = tracer.Snapshot();
      ASSERT_LE(s.size(), tracer.capacity());
      // Ticket sort: snapshot order must match record order. Cross-thread
      // record order is whatever the scheduler produced, but each thread
      // records its ids in increasing order, so every per-thread
      // subsequence of the snapshot must be strictly increasing.
      int64_t last[kThreads];
      for (int64_t& l : last) l = -1;
      for (const TraceSpan& span : s) {
        const uint64_t t = span.id / kPerThread;
        ASSERT_LT(t, static_cast<uint64_t>(kThreads));
        const int64_t local = static_cast<int64_t>(span.id % kPerThread);
        ASSERT_GT(local, last[t]) << "per-thread record order inverted";
        last[t] = local;
      }
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        tracer.Record("race", "span", i, i + 1, t * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kPerThread);
  EXPECT_EQ(tracer.Snapshot().size(), tracer.capacity());
}

// Minimal scanner for the exported Chrome trace JSON: pulls each event
// object's name/cat/ts/dur/id. Good enough to round-trip what we emit.
struct ParsedEvent {
  std::string name, cat;
  uint64_t ts = 0, dur = 0, id = 0;
};

std::vector<ParsedEvent> ParseChromeTrace(const std::string& json,
                                          bool* well_formed) {
  *well_formed = false;
  std::vector<ParsedEvent> out;
  const std::string prefix = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  if (json.rfind(prefix, 0) != 0 || json.substr(json.size() - 2) != "]}") {
    return out;
  }
  auto field_str = [](const std::string& obj, const char* key) {
    const std::string k = std::string("\"") + key + "\":\"";
    const size_t a = obj.find(k);
    if (a == std::string::npos) return std::string();
    const size_t b = obj.find('"', a + k.size());
    return obj.substr(a + k.size(), b - a - k.size());
  };
  auto field_u64 = [](const std::string& obj, const char* key) -> uint64_t {
    const std::string k = std::string("\"") + key + "\":";
    const size_t a = obj.find(k);
    if (a == std::string::npos) return 0;
    return std::strtoull(obj.c_str() + a + k.size(), nullptr, 10);
  };
  size_t pos = prefix.size();
  while (pos < json.size() && json[pos] == '{') {
    size_t depth = 0;
    size_t end = pos;
    for (; end < json.size(); ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}' && --depth == 0) break;
    }
    const std::string obj = json.substr(pos, end - pos + 1);
    ParsedEvent e;
    e.name = field_str(obj, "name");
    e.cat = field_str(obj, "cat");
    e.ts = field_u64(obj, "ts");
    e.dur = field_u64(obj, "dur");
    e.id = field_u64(obj, "id");
    out.push_back(std::move(e));
    pos = end + 1;
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  *well_formed = pos + 2 == json.size();
  return out;
}

TEST(TraceTest, ChromeTraceJsonRoundTrip) {
  Tracer tracer(16);
  tracer.Record("faster", "prepare", 10'000, 250'000, 42);
  tracer.Record("faster", "wait_flush", 250'000, 1'000'000, 42);
  tracer.Record("shard", "broadcast", 1'500, 1'700, 3);  // sub-µs duration
  const std::string json = tracer.ExportChromeTrace();
  bool well_formed = false;
  const std::vector<ParsedEvent> events = ParseChromeTrace(json, &well_formed);
  EXPECT_TRUE(well_formed) << json;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "prepare");
  EXPECT_EQ(events[0].cat, "faster");
  EXPECT_EQ(events[0].ts, 10u);    // ns -> µs
  EXPECT_EQ(events[0].dur, 240u);  // (250000-10000) ns -> 240 µs
  EXPECT_EQ(events[0].id, 42u);
  EXPECT_EQ(events[1].name, "wait_flush");
  EXPECT_EQ(events[1].id, 42u);  // same id: one checkpoint's spans correlate
  EXPECT_EQ(events[2].dur, 1u);  // sub-µs durations round up, stay visible
}

TEST(TraceTest, JsonEscapesSpecialCharacters) {
  std::vector<TraceSpan> spans(1);
  std::snprintf(spans[0].name, sizeof(spans[0].name), "a\"b\\c");
  spans[0].cat[0] = 0x01;  // control character
  const std::string json = SpansToChromeTrace(spans);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(TraceTest, ExportBudgetKeepsNewestSpans) {
  Tracer tracer(256);
  for (uint64_t i = 0; i < 100; ++i) {
    tracer.Record("t", ("n" + std::to_string(i)).c_str(), i, i + 1, i);
  }
  // Budget for exactly 2 events (64 fixed + 2 * 192 per-event bytes).
  const std::string json = tracer.ExportChromeTrace(64 + 2 * 192);
  EXPECT_LE(json.size(), static_cast<size_t>(64 + 2 * 192));
  bool well_formed = false;
  const std::vector<ParsedEvent> events = ParseChromeTrace(json, &well_formed);
  EXPECT_TRUE(well_formed);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "n98");
  EXPECT_EQ(events[1].name, "n99");
}

TEST(TraceTest, ScopedSpanRecordsOnDestruction) {
  Tracer tracer(16);
  const uint64_t before = NowNanos();
  {
    ScopedSpan span(tracer, "txdb", "capture_persist", 9);
    EXPECT_TRUE(tracer.Snapshot().empty());  // nothing until scope exit
  }
  const std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].cat, "txdb");
  EXPECT_STREQ(spans[0].name, "capture_persist");
  EXPECT_EQ(spans[0].id, 9u);
  EXPECT_GE(spans[0].start_ns, before);
}

// -- ReqTrace ---------------------------------------------------------------

ReqSpan MakeSpan(uint64_t base) {
  ReqSpan s;
  s.start_ns = base;
  s.serial = base;
  s.op = 3;
  s.status = 0;
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    s.stage_ns[i] = (i + 1) * 100;
  }
  return s;
}

TEST(ReqTraceTest, RecordsStageHistogramsOnEveryOp) {
  MetricsRegistry reg;
  ReqTrace trace(/*capacity=*/8, &reg, /*sample_every=*/0);  // ring off
  for (int n = 0; n < 5; ++n) trace.Record(MakeSpan(n));
  EXPECT_EQ(trace.recorded(), 5u);
  EXPECT_EQ(trace.sampled(), 0u);  // aggregates record even with the ring off
  EXPECT_TRUE(trace.Snapshot().empty());
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    const HistogramData h =
        reg.GetHistogram(std::string("cpr_req_stage_ns{stage=\"") +
                         kReqStageNames[i] + "\"}")
            ->Sample();
    EXPECT_EQ(h.count, 5u) << kReqStageNames[i];
    EXPECT_EQ(h.sum, 5u * (i + 1) * 100) << kReqStageNames[i];
  }
  // The stages partition the op exactly: stage sums reconcile with e2e.
  const HistogramData e2e = reg.GetHistogram("cpr_req_e2e_ns")->Sample();
  EXPECT_EQ(e2e.count, 5u);
  uint64_t stage_total = 0;
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    stage_total += 5u * (i + 1) * 100;
  }
  EXPECT_EQ(e2e.sum, stage_total);
}

TEST(ReqTraceTest, SamplesOneInNIntoRingAndClears) {
  MetricsRegistry reg;
  ReqTrace trace(/*capacity=*/8, &reg, /*sample_every=*/2);
  for (uint64_t n = 0; n < 10; ++n) trace.Record(MakeSpan(n));
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.sampled(), 5u);  // every 2nd op deposits a span
  const std::vector<ReqSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  // Oldest first, and only the sampled (even-numbered) ops are present.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_ns, 2 * i);
  }
  trace.Clear();
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_TRUE(trace.Snapshot().empty());
}

TEST(ReqTraceTest, RingKeepsNewestOnWrap) {
  MetricsRegistry reg;
  ReqTrace trace(/*capacity=*/4, &reg, /*sample_every=*/1);
  for (uint64_t n = 0; n < 10; ++n) trace.Record(MakeSpan(n));
  const std::vector<ReqSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_ns, 6 + i);  // 6,7,8,9 survive
  }
}

TEST(ReqTraceTest, BreakdownJsonAndSpansText) {
  MetricsRegistry reg;
  ReqTrace trace(/*capacity=*/8, &reg, /*sample_every=*/1);
  trace.Record(MakeSpan(1));
  const std::string json = trace.RenderBreakdownJson();
  EXPECT_NE(json.find("\"sample_every\":1"), std::string::npos);
  EXPECT_NE(json.find("\"recorded_ops\":1"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":{"), std::string::npos);
  for (uint32_t i = 0; i < kNumReqStages; ++i) {
    EXPECT_NE(json.find(std::string("\"") + kReqStageNames[i] +
                        "\":{\"count\":1"),
              std::string::npos)
        << kReqStageNames[i];
  }
  EXPECT_NE(json.find("\"e2e_ns\":{\"count\":1,\"sum_ns\":2100"),
            std::string::npos);
  const std::string text = trace.RenderSpansText();
  EXPECT_NE(text.find("1 sampled spans"), std::string::npos);
  EXPECT_NE(text.find("decode=100"), std::string::npos);
  EXPECT_NE(text.find("write=600"), std::string::npos);
  EXPECT_NE(text.find("total=2100"), std::string::npos);
}

}  // namespace
}  // namespace cpr::obs
