// Tests for the observability layer: trace spans on the simulated clock,
// the Chrome trace_event export, metrics snapshots with deterministic
// folding, run reports and the minimal JSON reader/writer they share.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/table.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace nws::obs {
namespace {

// ---- trace spans ------------------------------------------------------------

TEST(TraceRecorderTest, NestedSpansFollowTheSimulatedClock) {
  sim::Scheduler sched;
  TraceRecorder rec;
  TraceSession session(rec);
  {
    ScopedClock clock(sched);
    auto body = [](sim::Scheduler& s) -> sim::Task<void> {
      Span outer("io", "io", Actor{1, 2}, 7);
      co_await s.delay(sim::seconds(1.0));
      {
        Span inner("kv_put", "daos", Actor{1, 2}, 7, 4096.0);
        co_await s.delay(sim::seconds(2.0));
      }
      co_await s.delay(sim::seconds(1.0));
    };
    sched.spawn(body(sched));
    sched.run();
  }
  ASSERT_EQ(rec.span_count(), 2u);
  const auto& outer = rec.spans()[0];
  const auto& inner = rec.spans()[1];
  EXPECT_STREQ(outer.name, "io");
  EXPECT_STREQ(inner.name, "kv_put");
  EXPECT_FALSE(outer.open);
  EXPECT_FALSE(inner.open);
  // Ordering and strict nesting, in simulated nanoseconds.
  EXPECT_EQ(outer.start_ns, 0u);
  EXPECT_EQ(inner.start_ns, static_cast<std::uint64_t>(sim::seconds(1.0)));
  EXPECT_EQ(inner.end_ns, static_cast<std::uint64_t>(sim::seconds(3.0)));
  EXPECT_EQ(outer.end_ns, static_cast<std::uint64_t>(sim::seconds(4.0)));
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_EQ(inner.node, 1u);
  EXPECT_EQ(inner.proc, 2u);
  EXPECT_EQ(inner.iteration, 7u);
  EXPECT_DOUBLE_EQ(inner.bytes, 4096.0);
}

TEST(TraceRecorderTest, TokensSupportOutOfOrderEnd) {
  // Coroutine frames die in any order, so spans are tokens, not a stack.
  sim::Scheduler sched;
  TraceRecorder rec;
  TraceSession session(rec);
  ScopedClock clock(sched);
  const TraceRecorder::Token a = rec.begin("a", "io", Actor{0, 0});
  const TraceRecorder::Token b = rec.begin("b", "io", Actor{0, 1});
  rec.end(a);  // a closes before the later-started b
  rec.end(b);
  rec.end(b);  // double-end is a no-op
  rec.end(0);  // invalid token is a no-op
  ASSERT_EQ(rec.span_count(), 2u);
  EXPECT_FALSE(rec.spans()[0].open);
  EXPECT_FALSE(rec.spans()[1].open);
}

TEST(TraceRecorderTest, DisabledTracingRecordsNothing) {
  EXPECT_EQ(current_trace(), nullptr);
  {
    Span span("io", "io", Actor{0, 0});  // must be a harmless no-op
  }
  // A recorder with no bound clock also refuses to record.
  TraceRecorder rec;
  EXPECT_EQ(rec.begin("io", "io", Actor{0, 0}), 0u);
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(TraceRecorderTest, SequentialRunsChainOnOneTimeline) {
  // Each ScopedClock bind shifts the epoch to the recorder's high water, so
  // two back-to-back simulations (fresh schedulers, both starting at t=0)
  // lay out one after another instead of overlapping at zero.
  TraceRecorder rec;
  TraceSession session(rec);
  auto one_run = [] {
    sim::Scheduler sched;
    ScopedClock clock(sched);
    auto body = [](sim::Scheduler& s) -> sim::Task<void> {
      Span span("io", "io", Actor{0, 0});
      co_await s.delay(sim::seconds(1.0));
    };
    sched.spawn(body(sched));
    sched.run();
  };
  one_run();
  one_run();
  ASSERT_EQ(rec.span_count(), 2u);
  EXPECT_EQ(rec.spans()[0].start_ns, 0u);
  EXPECT_EQ(rec.spans()[1].start_ns, rec.spans()[0].end_ns);  // second run starts after the first
}

TEST(TraceRecorderTest, ChromeJsonRoundTrips) {
  sim::Scheduler sched;
  TraceRecorder rec;
  {
    TraceSession session(rec);
    ScopedClock clock(sched);
    auto body = [](sim::Scheduler& s, TraceRecorder& r) -> sim::Task<void> {
      const TraceRecorder::Token t1 = r.begin("io", "io", Actor{3, 9}, 2, 1024.0);
      co_await s.delay(sim::seconds(0.5));
      r.end(t1);
      const TraceRecorder::Token t2 = r.begin("flow", "net", Actor{kNetworkNode, 0});
      co_await s.delay(sim::seconds(0.25));
      r.end(t2);
    };
    sched.spawn(body(sched, rec));
    sched.run();
  }

  std::ostringstream os;
  rec.write_chrome_json(os);
  const JsonValue doc = parse_json(os.str());

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("displayTimeUnit")->str, "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t metadata = 0;
  std::size_t spans = 0;
  double prev_ts = -1.0;
  for (const JsonValue& ev : events->array) {
    const std::string ph = ev.find("ph")->str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++spans;
    EXPECT_GE(ev.find("ts")->number, prev_ts);  // export sorts by start time
    prev_ts = ev.find("ts")->number;
    EXPECT_GE(ev.find("dur")->number, 0.0);
    ASSERT_NE(ev.find("args"), nullptr);
    EXPECT_NE(ev.find("args")->find("iteration"), nullptr);
  }
  EXPECT_EQ(metadata, 2u);  // one process_name per pid: node 3 and the network
  ASSERT_EQ(spans, 2u);

  // Span 1 carries the full attribution: µs timestamps, pid/tid, bytes.
  const JsonValue& io = events->array[metadata];
  EXPECT_EQ(io.find("name")->str, "io");
  EXPECT_EQ(io.find("cat")->str, "io");
  EXPECT_DOUBLE_EQ(io.find("ts")->number, 0.0);
  EXPECT_DOUBLE_EQ(io.find("dur")->number, 0.5e6);
  EXPECT_DOUBLE_EQ(io.find("pid")->number, 3.0);
  EXPECT_DOUBLE_EQ(io.find("tid")->number, 9.0);
  EXPECT_DOUBLE_EQ(io.find("args")->find("iteration")->number, 2.0);
  EXPECT_DOUBLE_EQ(io.find("args")->find("bytes")->number, 1024.0);
}

// ---- streaming export -------------------------------------------------------

namespace {

/// Records `spans` back-to-back closed spans (1 ms each) on `rec`, split
/// across two pids so the streaming path exercises lazy pid metadata.
void record_span_train(TraceRecorder& rec, std::size_t spans) {
  sim::Scheduler sched;
  TraceSession session(rec);
  ScopedClock clock(sched);
  auto body = [](sim::Scheduler& s, TraceRecorder& r, std::size_t n) -> sim::Task<void> {
    for (std::size_t i = 0; i < n; ++i) {
      const TraceRecorder::Token t =
          r.begin("io", "io", Actor{static_cast<std::uint32_t>(i % 2), 0});
      co_await s.delay(sim::milliseconds(1.0));
      r.end(t);
    }
  };
  sched.spawn(body(sched, rec, spans));
  sched.run();
}

}  // namespace

TEST(TraceStreamingTest, StreamedArtifactMatchesBufferedExport) {
  TraceRecorder buffered;
  record_span_train(buffered, 20);
  TraceRecorder streamed;
  std::ostringstream stream_os;
  streamed.stream_to(stream_os, 4);  // tiny buffer: forces incremental flushes
  record_span_train(streamed, 20);
  streamed.finish_stream();

  std::ostringstream buffered_os;
  buffered.write_chrome_json(buffered_os);
  const JsonValue a = parse_json(buffered_os.str());
  const JsonValue b = parse_json(stream_os.str());

  // Same "X" events in the same order with the same fields; the streamed
  // file interleaves pid metadata lazily instead of emitting it upfront,
  // so compare the span sequences and the metadata pid sets.
  const auto collect = [](const JsonValue& doc) {
    std::vector<std::string> spans;
    std::vector<double> meta_pids;
    for (const JsonValue& ev : doc.find("traceEvents")->array) {
      if (ev.find("ph")->str == "M") {
        meta_pids.push_back(ev.find("pid")->number);
        continue;
      }
      spans.push_back(ev.find("name")->str + "/" + std::to_string(ev.find("pid")->number) + "@" +
                      std::to_string(ev.find("ts")->number) + "+" +
                      std::to_string(ev.find("dur")->number));
    }
    std::sort(meta_pids.begin(), meta_pids.end());
    return std::make_pair(spans, meta_pids);
  };
  EXPECT_EQ(collect(a), collect(b));

  // The streamed artifact must satisfy the same lint constraints the
  // buffered one does: ts-monotone over "X" events.
  double prev_ts = -1.0;
  for (const JsonValue& ev : b.find("traceEvents")->array) {
    if (ev.find("ph")->str != "X") continue;
    EXPECT_GE(ev.find("ts")->number, prev_ts);
    prev_ts = ev.find("ts")->number;
  }
}

TEST(TraceStreamingTest, BufferStaysBoundedWhileStreaming) {
  TraceRecorder rec;
  std::ostringstream os;
  rec.stream_to(os, 8);
  record_span_train(rec, 100);
  // Closed spans flush as the cap is exceeded: the in-memory window never
  // holds the whole timeline, but the total count is preserved.
  EXPECT_LE(rec.spans().size(), 9u);
  EXPECT_EQ(rec.span_count(), 100u);
  rec.finish_stream();
  EXPECT_EQ(rec.spans().size(), 0u);
  EXPECT_EQ(rec.span_count(), 100u);
}

TEST(TraceStreamingTest, StreamingModeRejectsMisuse) {
  TraceRecorder rec;
  std::ostringstream os;
  rec.stream_to(os, 4);
  EXPECT_THROW(rec.write_chrome_json(os), std::logic_error);  // one export path at a time
  std::ostringstream other;
  EXPECT_THROW(rec.stream_to(other), std::logic_error);  // already streaming
  rec.finish_stream();
}

// ---- JSON support -----------------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("name", "weird \"chars\"\n\t\\");
  w.member("count", std::uint64_t{42});
  w.member("ratio", 0.1);
  w.member("flag", true);
  w.key("nothing");
  w.value_null();
  w.key("list");
  w.begin_array();
  w.value(std::int64_t{-7});
  w.begin_object();
  w.member("inner", 2.5);
  w.end_object();
  w.end_array();
  w.end_object();

  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->str, "weird \"chars\"\n\t\\");
  EXPECT_DOUBLE_EQ(doc.find("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->number, 0.1);  // %.17g survives the trip
  EXPECT_TRUE(doc.find("flag")->boolean);
  EXPECT_TRUE(doc.find("nothing")->is_null());
  const JsonValue* list = doc.find("list");
  ASSERT_EQ(list->array.size(), 2u);
  EXPECT_DOUBLE_EQ(list->array[0].number, -7.0);
  EXPECT_DOUBLE_EQ(list->array[1].find("inner")->number, 2.5);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
}

TEST(JsonTest, ParserHandlesEscapesAndUnicode) {
  const JsonValue v = parse_json(R"("aé\"\\\n")");
  EXPECT_EQ(v.str, "a\xc3\xa9\"\\\n");
}

TEST(JsonTest, ParserDecodesSurrogatePairsBeyondTheBmp) {
  // U+1F600 escaped as the surrogate pair 😀 -> 4-byte UTF-8.
  const JsonValue v = parse_json("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.str, "\xF0\x9F\x98\x80");
  // BMP escapes keep working alongside pairs.
  const JsonValue mixed = parse_json("\"x\\u00e9\\ud83d\\ude00y\"");
  EXPECT_EQ(mixed.str, "x\xC3\xA9\xF0\x9F\x98\x80y");
}

TEST(JsonTest, SurrogatePairsSurviveAWriteParseRoundTrip) {
  // The writer passes raw UTF-8 through; the parser's decoded pair must be
  // byte-identical after re-serialising.
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.value("grinning: \xF0\x9F\x98\x80");
  }
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.str, "grinning: \xF0\x9F\x98\x80");
}

TEST(JsonTest, ParserRejectsUnpairedSurrogates) {
  EXPECT_THROW(parse_json("\"\\ud83d\""), std::runtime_error);        // lone high
  EXPECT_THROW(parse_json("\"\\ud83dxy\""), std::runtime_error);      // high, no escape after
  EXPECT_THROW(parse_json("\"\\ud83d\\u0041\""), std::runtime_error); // high + non-low
  EXPECT_THROW(parse_json("\"\\ude00\""), std::runtime_error);        // lone low
}

// ---- metrics ----------------------------------------------------------------

TEST(MetricsTest, CountersAddGaugesMaxHistogramsAppend) {
  MetricsSnapshot a;
  a.counter("ops", 3.0);
  a.counter("ops", 2.0);
  a.gauge("peak", 5.0);
  a.gauge("peak", 4.0);  // lower: ignored
  a.histogram("lat", 1.0);
  a.histogram("lat", 2.0);
  EXPECT_DOUBLE_EQ(a.value("ops"), 5.0);
  EXPECT_DOUBLE_EQ(a.value("peak"), 5.0);

  MetricsSnapshot b;
  b.counter("ops", 10.0);
  b.gauge("peak", 9.0);
  b.histogram("lat", 3.0);
  a.fold(b);
  EXPECT_DOUBLE_EQ(a.value("ops"), 15.0);
  EXPECT_DOUBLE_EQ(a.value("peak"), 9.0);
  ASSERT_EQ(a.metrics().at("lat").samples.count(), 3u);
  // Samples append in fold order — the property job-index-ordered folding
  // relies on for bit-identical summaries at any job count.
  EXPECT_DOUBLE_EQ(a.metrics().at("lat").samples.samples()[2], 3.0);
}

TEST(MetricsTest, FoldOrderIsReproducible) {
  const auto build = [] {
    MetricsSnapshot parts[3];
    for (int i = 0; i < 3; ++i) {
      parts[i].counter("n", i + 1.0);
      parts[i].histogram("h", 10.0 * (i + 1));
    }
    MetricsSnapshot folded;
    for (const MetricsSnapshot& p : parts) folded.fold(p);
    folded.seal();
    return folded;
  };
  EXPECT_TRUE(build() == build());
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsSnapshot m;
  m.counter("x", 1.0);
  EXPECT_THROW(m.gauge("x", 1.0), std::logic_error);
  EXPECT_THROW(m.histogram("x", 1.0), std::logic_error);
  EXPECT_THROW((void)m.value("absent"), std::logic_error);
  m.histogram("h", 1.0);
  EXPECT_THROW((void)m.value("h"), std::logic_error);  // histograms have no scalar value
}

TEST(MetricsTest, JsonExportCarriesKindsAndPercentiles) {
  MetricsSnapshot m;
  m.counter("ops", 12.0);
  m.gauge("peak", 3.0);
  for (int i = 1; i <= 100; ++i) m.histogram("lat", static_cast<double>(i));
  std::ostringstream os;
  JsonWriter w(os);
  m.write_json(w);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.find("ops")->find("kind")->str, "counter");
  EXPECT_DOUBLE_EQ(doc.find("ops")->find("value")->number, 12.0);
  EXPECT_EQ(doc.find("peak")->find("kind")->str, "gauge");
  const JsonValue* lat = doc.find("lat");
  EXPECT_EQ(lat->find("kind")->str, "histogram");
  EXPECT_DOUBLE_EQ(lat->find("count")->number, 100.0);
  EXPECT_DOUBLE_EQ(lat->find("min")->number, 1.0);
  EXPECT_DOUBLE_EQ(lat->find("max")->number, 100.0);
  EXPECT_NEAR(lat->find("p95")->number, 95.0, 1.0);
}

// ---- run reports ------------------------------------------------------------

TEST(ReportTest, JsonSchemaRoundTrips) {
  RunReport report("unit_bench");
  report.set_config({{"seed", "1"}, {"quick", "true"}});
  Table table({"mode", "write (GiB/s)"});
  table.add_row({"full", "3.5"});
  table.add_row({"no_index", "4.0"});
  report.add_table("results", table);
  MetricsSnapshot m;
  m.counter("io.write.operations", 48.0);
  m.histogram("io.write.latency_seconds", 0.25);
  report.merge_metrics(m);

  std::ostringstream os;
  report.write_json(os);
  const JsonValue doc = parse_json(os.str());

  EXPECT_EQ(doc.find("schema")->str, kReportSchema);
  EXPECT_EQ(doc.find("bench")->str, "unit_bench");
  EXPECT_EQ(doc.find("config")->find("seed")->str, "1");
  const JsonValue* tables = doc.find("tables");
  ASSERT_EQ(tables->array.size(), 1u);
  EXPECT_EQ(tables->array[0].find("title")->str, "results");
  EXPECT_EQ(tables->array[0].find("headers")->array.size(), 2u);
  ASSERT_EQ(tables->array[0].find("rows")->array.size(), 2u);
  EXPECT_EQ(tables->array[0].find("rows")->array[1].array[0].str, "no_index");
  EXPECT_DOUBLE_EQ(doc.find("metrics")->find("io.write.operations")->find("value")->number, 48.0);
}

}  // namespace
}  // namespace nws::obs
