// Observability subsystem: span recording, metrics, exporters, and the
// end-to-end acceptance check that one traced campaign iteration produces a
// parseable Chrome trace covering every instrumented layer.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "impeccable/common/thread_pool.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/hpc/cluster.hpp"
#include "impeccable/obs/csv.hpp"
#include "impeccable/obs/json.hpp"
#include "impeccable/obs/metrics.hpp"
#include "impeccable/obs/pool_metrics.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/obs/trace_export.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/profiler.hpp"
#include "impeccable/rct/raptor.hpp"

namespace impeccable {
namespace {

// ------------------------------------------------------- mini JSON parser
// Just enough JSON to parse back what obs::json emits: objects, arrays,
// strings with escapes, numbers, literals. Throws on malformed input, which
// is exactly what the export tests want to detect.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (at_ != s_.size()) throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  void skip_ws() {
    while (at_ < s_.size() && (s_[at_] == ' ' || s_[at_] == '\t' ||
                               s_[at_] == '\n' || s_[at_] == '\r'))
      ++at_;
  }
  char peek() {
    if (at_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[at_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++at_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = string();
        return v;
      }
      case 't': literal("true"); return make_bool(true);
      case 'f': literal("false"); return make_bool(false);
      case 'n': literal("null"); return JsonValue{};
      default: return number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  void literal(std::string_view lit) {
    if (s_.substr(at_, lit.size()) != lit)
      throw std::runtime_error("bad literal");
    at_ += lit.size();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = s_[at_++];
      if (c == '\\') {
        char e = s_[at_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            const std::string hex(s_.substr(at_, 4));
            at_ += 4;
            out += static_cast<char>(std::stoi(hex, nullptr, 16));
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
      } else {
        out += c;
      }
    }
    ++at_;
    return out;
  }

  JsonValue number() {
    const std::size_t begin = at_;
    while (at_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
            s_[at_] == '-' || s_[at_] == '+' || s_[at_] == '.' ||
            s_[at_] == 'e' || s_[at_] == 'E'))
      ++at_;
    if (at_ == begin) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(std::string(s_.substr(begin, at_ - begin)));
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++at_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++at_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view s_;
  std::size_t at_ = 0;
};

std::filesystem::path tmp(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

// ------------------------------------------------------------- JSON writer

TEST(ObsJson, EscapesAndNests) {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_object();
  w.kv("plain", "abc");
  w.kv("quoted", "a\"b\\c\nd");
  w.kv("int", std::int64_t{-3});
  w.kv("flag", true);
  w.key("list").begin_array().value(1.5).value(2).end_array();
  w.end_object();

  const JsonValue v = JsonParser(os.str()).parse();
  EXPECT_EQ(v.at("plain").string, "abc");
  EXPECT_EQ(v.at("quoted").string, "a\"b\\c\nd");
  EXPECT_EQ(v.at("int").number, -3.0);
  EXPECT_TRUE(v.at("flag").boolean);
  ASSERT_EQ(v.at("list").array.size(), 2u);
  EXPECT_DOUBLE_EQ(v.at("list").array[0].number, 1.5);
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.end_array();
  const JsonValue v = JsonParser(os.str()).parse();
  EXPECT_EQ(v.array[0].kind, JsonValue::Kind::Null);
  EXPECT_EQ(v.array[1].kind, JsonValue::Kind::Null);
}

TEST(ObsCsv, QuotesOnlyWhenNeeded) {
  std::ostringstream os;
  obs::CsvWriter csv(os);
  csv.cell("plain").cell("with,comma").cell("with\"quote").cell(1.5);
  csv.end_row();
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\",1.5\n");
}

// ---------------------------------------------------------------- metrics

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::HistogramSpec spec;
  spec.lower = 1.0;
  spec.upper = 100.0;
  spec.buckets = 2;  // [1, 10) and [10, 100)
  obs::Histogram h(spec);

  EXPECT_EQ(h.bucket_index(0.5), -1);   // underflow
  EXPECT_EQ(h.bucket_index(1.0), 0);    // at lower edge
  EXPECT_EQ(h.bucket_index(9.99), 0);
  EXPECT_EQ(h.bucket_index(10.0), 1);   // at interior edge
  EXPECT_EQ(h.bucket_index(99.0), 1);
  EXPECT_EQ(h.bucket_index(100.0), 2);  // overflow
  EXPECT_EQ(h.bucket_index(1e9), 2);

  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1.0);
  EXPECT_NEAR(h.bucket_bound(1), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.bucket_bound(2), 100.0);

  for (double v : {0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 200.0}) h.observe(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.underflow, 1u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.overflow, 2u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 200.0);
  EXPECT_DOUBLE_EQ(snap.sum, 366.5);
}

// Regression (PR 5 UBSan/edge-case pass): zero and negative observations
// must never reach the log map, NaN must not poison the aggregates, and a
// degenerate spec (zero/negative lower, non-finite upper) must fall back to
// the default layout instead of emitting inf/NaN bucket edges into JSON.
TEST(ObsMetrics, HistogramZeroNegativeNanEdgeCases) {
  obs::Histogram h;  // default spec: [1e-6, 1e3)

  EXPECT_EQ(h.bucket_index(0.0), -1);
  EXPECT_EQ(h.bucket_index(-0.0), -1);
  EXPECT_EQ(h.bucket_index(-5.0), -1);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::quiet_NaN()), -1);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::infinity()),
            h.spec().buckets);

  h.observe(0.0);
  h.observe(-3.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());  // dropped entirely
  h.observe(2.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.underflow, 2u);
  EXPECT_EQ(snap.count, 3u);  // NaN not counted
  EXPECT_DOUBLE_EQ(snap.sum, -1.0);
  EXPECT_DOUBLE_EQ(snap.min, -3.0);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);

  // Degenerate specs fall back to the default layout.
  for (obs::HistogramSpec bad :
       {obs::HistogramSpec{0.0, 10.0, 4}, obs::HistogramSpec{-1.0, 10.0, 4},
        obs::HistogramSpec{1.0, std::numeric_limits<double>::infinity(), 4},
        obs::HistogramSpec{1.0, 10.0, 0}}) {
    obs::Histogram hb(bad);
    EXPECT_DOUBLE_EQ(hb.spec().lower, obs::HistogramSpec{}.lower);
    EXPECT_DOUBLE_EQ(hb.spec().upper, obs::HistogramSpec{}.upper);
    // Every finite bucket edge stays finite, so JSON snapshots stay valid.
    for (int i = 0; i <= hb.spec().buckets; ++i)
      EXPECT_TRUE(std::isfinite(hb.bucket_bound(i))) << i;
  }
}

TEST(ObsMetrics, QuantileEmptyAndSingleValue) {
  obs::Histogram h({1.0, 100.0, 2});
  EXPECT_TRUE(std::isnan(h.quantile(0.5))) << "no data, no quantile";

  h.observe(7.0);
  // One sample: every quantile clips to the only observed value.
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 7.0);
}

TEST(ObsMetrics, QuantileInterpolatesWithinBuckets) {
  // Two decade buckets [1, 10) and [10, 100), four samples in each.
  obs::Histogram h({1.0, 100.0, 2});
  for (double v : {2.0, 3.0, 4.0, 5.0, 20.0, 30.0, 40.0, 50.0}) h.observe(v);

  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);  // p0 = observed min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0)  // p100 = observed max (clipped)
      << "upper bucket edge must clip to the observed max";
  // rank 2 of 4 in [1, 10): halfway through the bucket span.
  EXPECT_NEAR(h.quantile(0.25), 5.5, 1e-9);
  // rank 4 lands exactly on the first bucket's upper edge.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-9);
  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(ObsMetrics, QuantileCoversUnderflowAndOverflow) {
  obs::Histogram h({1.0, 100.0, 2});
  h.observe(0.5);  // underflow
  h.observe(200.0);  // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);
  // The underflow "bucket" spans [min, lower): rank 0.5 of 1 is its middle.
  EXPECT_NEAR(h.quantile(0.25), 0.75, 1e-9);
}

TEST(ObsMetrics, QuantileIsMonotoneInQ) {
  obs::Histogram h;  // default log-spaced spec
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-3);
  double prev = h.quantile(0.0);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    // Log-spaced buckets bound relative error: the estimate must stay
    // within one bucket ratio of the true order statistic.
    const double truth = q == 0.0 ? 1e-3 : q;
    EXPECT_GT(v, truth * 0.7) << "q=" << q;
    EXPECT_LT(v, truth * 1.5) << "q=" << q;
    prev = v;
  }
}

TEST(ObsMetrics, SnapshotIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.gauge("middle").set(0.25);
  reg.histogram("h").observe(0.5);

  std::ostringstream a, b;
  reg.to_json(a);
  reg.to_json(b);
  EXPECT_EQ(a.str(), b.str());

  const JsonValue v = JsonParser(a.str()).parse();
  // Counters are exact integers, keys sorted.
  EXPECT_EQ(v.at("counters").at("a.first").number, 1.0);
  EXPECT_EQ(v.at("counters").at("z.last").number, 3.0);
  EXPECT_EQ(v.at("counters").object.begin()->first, "a.first");
  EXPECT_DOUBLE_EQ(v.at("gauges").at("middle").number, 0.25);
  EXPECT_EQ(v.at("histograms").at("h").at("count").number, 1.0);
}

// ------------------------------------------------------------------ spans

TEST(ObsRecorder, NestingAssignsParents) {
  obs::Recorder rec;
  double clock = 0.0;
  rec.set_clock([&clock] { return clock; });

  obs::SpanId outer_id = 0, inner_id = 0;
  {
    obs::Span outer(obs::cat::kStage, "outer", &rec);
    outer_id = outer.id();
    clock = 1.0;
    EXPECT_EQ(rec.current_span(), outer_id);
    {
      obs::Span inner(obs::cat::kDock, "inner", &rec);
      inner_id = inner.id();
      clock = 2.0;
    }
    clock = 3.0;
  }

  const obs::Trace trace = rec.take();
  ASSERT_EQ(trace.spans.size(), 2u);
  // Sorted by start time: outer first.
  EXPECT_EQ(trace.spans[0].name, "outer");
  EXPECT_EQ(trace.spans[0].id, outer_id);
  EXPECT_EQ(trace.spans[0].parent, 0u);
  EXPECT_DOUBLE_EQ(trace.spans[0].start, 0.0);
  EXPECT_DOUBLE_EQ(trace.spans[0].end, 3.0);
  EXPECT_EQ(trace.spans[1].id, inner_id);
  EXPECT_EQ(trace.spans[1].parent, outer_id);
  EXPECT_DOUBLE_EQ(trace.spans[1].duration(), 1.0);

  // take() cleared the buffers.
  EXPECT_TRUE(rec.take().spans.empty());
}

TEST(ObsRecorder, ExplicitParentCrossesThreads) {
  obs::Recorder rec;
  common::ThreadPool pool(2);

  obs::Span outer(obs::cat::kFe, "fan-out", &rec);
  const obs::SpanId parent = outer.id();
  pool.parallel_for(0, 8, [&](std::size_t i) {
    obs::Span child(obs::cat::kFe, "child-" + std::to_string(i), &rec, parent);
  });
  outer.end();

  const obs::Trace trace = rec.take();
  ASSERT_EQ(trace.spans.size(), 9u);
  int children = 0;
  for (const auto& s : trace.spans)
    if (s.parent == parent) ++children;
  EXPECT_EQ(children, 8);
}

TEST(ObsRecorder, ConcurrentRecordingIsComplete) {
  // Many threads record spans and bump metrics simultaneously — the count
  // must come out exact. Run under the tsan preset to prove data-race
  // freedom of the per-thread buffers and the registry fast path.
  obs::Recorder rec;
  constexpr int kThreads = 4, kSpansEach = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      auto& counter = rec.metrics().counter("spans");
      auto& hist = rec.metrics().histogram("latency");
      for (int i = 0; i < kSpansEach; ++i) {
        obs::Span span(obs::cat::kPool,
                       std::string("w").append(std::to_string(t)), &rec);
        counter.add(1);
        hist.observe(1e-3 * (i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();

  const obs::Trace trace = rec.take();
  EXPECT_EQ(trace.spans.size(),
            static_cast<std::size_t>(kThreads * kSpansEach));
  EXPECT_EQ(trace.thread_lanes, static_cast<std::uint32_t>(kThreads));
  EXPECT_EQ(rec.metrics().counter("spans").value(),
            static_cast<std::uint64_t>(kThreads * kSpansEach));
  EXPECT_EQ(rec.metrics().histogram("latency").snapshot().count,
            static_cast<std::uint64_t>(kThreads * kSpansEach));
}

TEST(ObsRecorder, NoGlobalRecorderMeansInactiveSpans) {
  ASSERT_EQ(obs::global(), nullptr);
  obs::Span span(obs::cat::kDock, "ignored");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.arg("k", 1.0);  // must be a no-op, not a crash
}

TEST(ObsRecorder, ScopedInstallAndRestore) {
  obs::Recorder rec;
  {
    obs::ScopedRecorder scoped(&rec);
    EXPECT_EQ(obs::global(), &rec);
    obs::Span span(obs::cat::kMl, "global-span");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(obs::global(), nullptr);
  EXPECT_EQ(rec.take().spans.size(), 1u);
}

// ------------------------------------------------------ backends + profiler

TEST(ObsBackend, SimBackendSpansUseVirtualTime) {
  rct::SimBackend inner(hpc::test_machine(1));
  rct::ProfiledBackend backend(inner);
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.name = "t" + std::to_string(i);
    t.gpus = 1;
    t.duration = 2.0;
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();

  const obs::Trace trace = backend.trace_recorder().snapshot();
  ASSERT_EQ(trace.spans.size(), 3u);
  for (const auto& s : trace.spans) {
    EXPECT_STREQ(s.category, obs::cat::kTask);
    // Virtual seconds: ~2.05 per task (duration + overhead), nothing near
    // wall time.
    EXPECT_NEAR(s.duration(), 2.05, 1e-6);
  }

  const auto profile = backend.profile();
  ASSERT_EQ(profile.tasks.size(), 3u);
  for (const auto& r : profile.tasks) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.gpus, 1);
    EXPECT_GE(r.queue_wait(), 0.0);
  }
}

TEST(ObsBackend, WalltimeKillIsVisibleInProfile) {
  rct::SimBackendOptions opts;
  opts.pilot_walltime = 5.0;
  rct::SimBackend inner(hpc::test_machine(1), opts);
  rct::ProfiledBackend backend(inner);

  rct::TaskDescription t;
  t.name = "doomed";
  t.whole_nodes = 1;  // no explicit GPUs: the whole-node proxy applies
  t.duration = 8.0;   // longer than the pilot
  bool failed = false;
  backend.submit(t, [&](const rct::TaskResult& r) { failed = !r.ok; });
  backend.drain();
  EXPECT_TRUE(failed);

  const auto profile = backend.profile();
  ASSERT_EQ(profile.tasks.size(), 1u);
  const auto& rec = profile.tasks[0];
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.error, "pilot walltime");
  EXPECT_EQ(rec.whole_nodes, 1);
  EXPECT_EQ(rec.gpus, 6);  // whole-node proxy (6 GPUs/node)
  EXPECT_DOUBLE_EQ(rec.end_time, 5.0);  // killed at the boundary

  // The failure survives the CSV export too.
  const auto path = tmp("imp_obs_kill.csv");
  profile.write_csv(path.string());
  std::ifstream f(path);
  std::string header, row;
  std::getline(f, header);
  std::getline(f, row);
  EXPECT_NE(row.find("pilot walltime"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ObsBackend, BorrowedRecorderSeesTaskAndStageSpans) {
  obs::Recorder rec;
  rct::SimBackend inner(hpc::test_machine(1));
  rct::ProfiledBackend backend(inner, &rec);

  rct::Pipeline pipe("p");
  rct::Stage stage;
  stage.name = "S-test";
  for (int i = 0; i < 2; ++i) {
    rct::TaskDescription t;
    t.name = "task-" + std::to_string(i);
    t.cpus = 1;
    t.duration = 1.0;
    stage.tasks.push_back(std::move(t));
  }
  pipe.add_stage(std::move(stage));
  rct::AppManager manager(backend);
  manager.run({std::move(pipe)});

  const obs::Trace trace = rec.take();
  int tasks = 0, stages = 0;
  for (const auto& s : trace.spans) {
    if (std::string_view(s.category) == obs::cat::kTask) ++tasks;
    if (std::string_view(s.category) == obs::cat::kStage) {
      ++stages;
      EXPECT_EQ(s.name, "S-test");
    }
  }
  EXPECT_EQ(tasks, 2);
  EXPECT_EQ(stages, 1);
}

TEST(ObsPool, WorkerCountersAndGauges) {
  common::ThreadPool pool(2);
  pool.parallel_for(0, 64, [](std::size_t) {}, 1);
  pool.wait_idle();

  std::uint64_t executed = 0;
  for (const auto& w : pool.worker_counters()) executed += w.executed;
  EXPECT_GT(executed, 0u);

  obs::MetricsRegistry reg;
  obs::publish_pool_metrics(pool, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.workers").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.executed").value(),
                   static_cast<double>(executed));
  // Republishing overwrites instead of double-counting.
  obs::publish_pool_metrics(pool, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.executed").value(),
                   static_cast<double>(executed));
}

// -------------------------------------------------------------- exporters

TEST(ObsExport, ChromeTraceRoundTrips) {
  obs::Recorder rec;
  double clock = 0.0;
  rec.set_clock([&clock] { return clock; });
  {
    obs::Span a(obs::cat::kStage, "alpha", &rec);
    a.arg("count", 3.0);
    a.arg("label", "x,\"y\"");
    clock = 0.5;
  }
  std::ostringstream os;
  obs::write_chrome_trace(rec.take(), os);

  const JsonValue doc = JsonParser(os.str()).parse();
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 1u);
  const JsonValue& e = events[0];
  EXPECT_EQ(e.at("name").string, "alpha");
  EXPECT_EQ(e.at("cat").string, "stage");
  EXPECT_EQ(e.at("ph").string, "X");
  EXPECT_DOUBLE_EQ(e.at("ts").number, 0.0);
  EXPECT_DOUBLE_EQ(e.at("dur").number, 0.5e6);  // microseconds
  EXPECT_DOUBLE_EQ(e.at("args").at("count").number, 3.0);
  EXPECT_EQ(e.at("args").at("label").string, "x,\"y\"");
}

TEST(ObsExport, StatsToJsonParses) {
  rct::RaptorStats stats = rct::run_raptor(
      rct::RaptorOptions{}, rct::docking_durations(100, 1.0, 7));
  std::ostringstream os;
  stats.to_json(os);
  const JsonValue v = JsonParser(os.str()).parse();
  EXPECT_EQ(v.at("tasks").number, 100.0);
  EXPECT_GT(v.at("throughput_per_hour").number, 0.0);

  core::IterationMetrics metrics;
  metrics.iteration = 1;
  metrics.docked = 17;
  std::ostringstream os2;
  metrics.to_json(os2);
  const JsonValue m = JsonParser(os2.str()).parse();
  EXPECT_EQ(m.at("iteration").number, 1.0);
  EXPECT_EQ(m.at("docked").number, 17.0);
}

// ------------------------------------------------- end-to-end acceptance

TEST(ObsCampaign, TracedCampaignCoversEveryLayer) {
  core::CampaignConfig cfg;
  cfg.library_size = 30;
  cfg.iterations = 2;
  cfg.bootstrap_docks = 10;  // >= 8 docked, so iteration 1 trains ML1
  cfg.dock_top_fraction = 0.3;
  cfg.cg_compounds = 2;
  cfg.top_binders = 1;
  cfg.outliers_per_binder = 1;
  cfg.dock.runs = 1;
  cfg.dock.lga.population = 12;
  cfg.dock.lga.generations = 4;
  cfg.esmacs_cg = fe::cg_config(0.2);
  cfg.esmacs_cg.replicas = 2;
  cfg.esmacs_fg = fe::fg_config(0.05);
  cfg.esmacs_fg.replicas = 2;
  cfg.surrogate.epochs = 2;
  cfg.aae.epochs = 2;
  cfg.threads = 2;
  cfg.seed = 99;

  obs::Recorder recorder;
  cfg.recorder = &recorder;
  core::Target target = core::Target::make("obs-target", 31, 40, 21);
  core::Campaign campaign(std::move(target), cfg);
  const auto report = campaign.run();
  ASSERT_EQ(report.iterations.size(), 2u);

  // Export the Chrome trace and parse it back.
  const obs::Trace trace = recorder.take();
  const auto path = tmp("imp_obs_campaign_trace.json");
  obs::write_chrome_trace(trace, path.string());
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  const JsonValue doc = JsonParser(buf.str()).parse();
  std::filesystem::remove(path);

  const auto& events = doc.at("traceEvents").array;
  EXPECT_GT(events.size(), 20u);
  std::set<std::string> cats;
  std::set<std::string> stage_names;
  for (const auto& e : events) {
    cats.insert(e.at("cat").string);
    if (e.at("cat").string == "stage") stage_names.insert(e.at("name").string);
    EXPECT_GE(e.at("dur").number, 0.0);
  }
  // The acceptance criterion: all five instrumented layers show up.
  for (const char* cat : {"stage", "task", "dock", "ml", "fe", "pool"})
    EXPECT_TRUE(cats.count(cat)) << "missing category " << cat;
  // Campaign stage boundaries by name.
  for (const char* st : {"ML1", "S1", "S3-CG", "S2", "S3-FG"})
    EXPECT_TRUE(stage_names.count(st)) << "missing stage span " << st;

  // Metrics flowed too: dock counters match the report, GEMM flops counted
  // during ML1 training, pool gauges published.
  std::size_t docked = 0;
  for (const auto& m : report.iterations) docked += m.docked;
  EXPECT_EQ(recorder.metrics().counter("dock.ligands").value(), docked);
  EXPECT_GT(recorder.metrics().counter("dock.evaluations").value(), 0u);
  EXPECT_GT(recorder.metrics().counter("ml.gemm.flops").value(), 0u);
  EXPECT_EQ(recorder.metrics().histogram("dock.ligand_seconds").snapshot().count,
            docked);
  EXPECT_GT(recorder.metrics().gauge("pool.executed").value(), 0.0);

  // The metrics snapshot is valid JSON as well.
  std::ostringstream ms;
  recorder.metrics().to_json(ms);
  EXPECT_NO_THROW(JsonParser(ms.str()).parse());

  // Campaign profile came from the same trace.
  EXPECT_FALSE(report.profile.tasks.empty());
}

}  // namespace
}  // namespace impeccable
