/**
 * @file
 * Tests of the telemetry layer: registry counters/gauges/histograms
 * merge correctly across threads, log-scale bucket boundaries land
 * where the (lo, hi] convention says, and the span tracer emits valid
 * Chrome trace_event JSON (the schema Perfetto loads).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/telemetry/telemetry.hh"

namespace vpprof
{
namespace telemetry
{
namespace
{

uint64_t
counterValue(const char *name)
{
    MetricsSnapshot snap = snapshotMetrics();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(TelemetryRegistry, CounterAccumulates)
{
    Counter c("test.counter_accumulates");
    c.add();
    c.add(41);
    EXPECT_EQ(counterValue("test.counter_accumulates"), 42u);
}

TEST(TelemetryRegistry, SameNameSharesOneSlot)
{
    Counter a("test.shared_name");
    Counter b("test.shared_name");
    a.add(1);
    b.add(2);
    EXPECT_EQ(counterValue("test.shared_name"), 3u);
}

TEST(TelemetryRegistry, CountsMergeAcrossThreads)
{
    Counter c("test.cross_thread");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                c.add();
        });
    }
    for (auto &t : threads)
        t.join();
    // Shards are never freed, so counts survive thread exit.
    EXPECT_EQ(counterValue("test.cross_thread"),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryRegistry, ExitedThreadsShardsAreReused)
{
    // Short-lived threads one after another (a fresh daemon's workers
    // per round): each takes over the shard the previous one handed
    // back at exit, so the shard count stays flat while the counts
    // survive every hand-over.
    Counter c("test.shard_reuse");
    HistogramMetric h("test.shard_reuse.us");
    constexpr int kThreads = 64;
    Registry &registry = Registry::instance();
    const size_t before = registry.shardCount();
    for (int t = 0; t < kThreads; ++t) {
        std::thread worker([&] {
            c.add();
            h.observe(10);
        });
        worker.join();
        // Live threads: this one, plus at most one new shard.
        EXPECT_LE(registry.shardCount(), before + 1);
    }
    MetricsSnapshot snap = snapshotMetrics();
    EXPECT_EQ(snap.counters.at("test.shard_reuse"),
              static_cast<uint64_t>(kThreads));
    EXPECT_EQ(snap.histograms.at("test.shard_reuse.us").count,
              static_cast<uint64_t>(kThreads));
    EXPECT_EQ(snap.histograms.at("test.shard_reuse.us").sum,
              10u * kThreads);
}

TEST(TelemetryRegistry, GaugeGoesUpAndDown)
{
    Gauge g("test.gauge");
    g.add(10);
    g.add(-3);
    MetricsSnapshot snap = snapshotMetrics();
    EXPECT_EQ(snap.gauges.at("test.gauge"), 7);
    g.set(-5);
    EXPECT_EQ(snapshotMetrics().gauges.at("test.gauge"), -5);
}

TEST(TelemetryRegistry, HistogramBucketBoundaries)
{
    // Bucket 0 holds v <= 1; bucket i holds (2^(i-1), 2^i]. Exact
    // powers of two land in their own bucket, one past lands in the
    // next — same convention as the common Histogram's (lo, hi].
    HistogramMetric h("test.hist.boundaries");
    h.observe(0);
    h.observe(1);   // bucket 0
    h.observe(2);   // bucket 1: (1, 2]
    h.observe(3);   // bucket 2: (2, 4]
    h.observe(4);   // bucket 2
    h.observe(5);   // bucket 3: (4, 8]
    h.observe(8);   // bucket 3
    h.observe(9);   // bucket 4: (8, 16]
    MetricsSnapshot snap = snapshotMetrics();
    const HistogramSnapshot &hist =
        snap.histograms.at("test.hist.boundaries");
    EXPECT_EQ(hist.count, 8u);
    EXPECT_EQ(hist.sum, 0u + 1 + 2 + 3 + 4 + 5 + 8 + 9);
    ASSERT_GE(hist.buckets.size(), 5u);
    EXPECT_EQ(hist.buckets[0], 2u);
    EXPECT_EQ(hist.buckets[1], 1u);
    EXPECT_EQ(hist.buckets[2], 2u);
    EXPECT_EQ(hist.buckets[3], 2u);
    EXPECT_EQ(hist.buckets[4], 1u);
}

TEST(TelemetryRegistry, HistogramSnapshotLiftsIntoHistogram)
{
    HistogramMetric h("test.hist.lift");
    for (int i = 0; i < 100; ++i)
        h.observe(100);  // bucket (64, 128]
    MetricsSnapshot snap = snapshotMetrics();
    const HistogramSnapshot &hist = snap.histograms.at("test.hist.lift");
    Histogram lifted = hist.toHistogram();
    EXPECT_EQ(lifted.totalSamples(), 100u);
    // All mass in (64, 128]: every percentile stays inside that bucket.
    EXPECT_GT(hist.percentile(50), 64.0);
    EXPECT_LE(hist.percentile(99), 128.0);
}

TEST(TelemetryRegistry, EmptyHistogramPercentileIsZero)
{
    HistogramSnapshot empty;
    EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
}

TEST(TelemetryRegistry, SnapshotJsonIsWellFormed)
{
    Counter c("test.json_counter");
    c.add(7);
    std::ostringstream os;
    snapshotMetrics().writeJson(os);
    std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_counter\":7"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
}

TEST(TelemetryScoped, LocalValueMirrorsIntoRegistry)
{
    ScopedCounter a("test.scoped");
    ScopedCounter b("test.scoped");
    a.add(5);
    b.add(2);
    // Per-instance views stay separate; the registry aggregates.
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(b.value(), 2u);
    EXPECT_EQ(counterValue("test.scoped"), 7u);
}

TEST(TelemetrySpans, UnarmedSpansRecordNothing)
{
    SpanTracer &tracer = SpanTracer::instance();
    tracer.disable();
    size_t before = tracer.eventCount();
    {
        VPPROF_SPAN("test.unarmed");
    }
    EXPECT_EQ(tracer.eventCount(), before);
}

TEST(TelemetrySpans, ArmedSpansEmitChromeTraceSchema)
{
    SpanTracer &tracer = SpanTracer::instance();
    tracer.enable();
    {
        VPPROF_SPAN("test.armed_span");
    }
    tracer.disable();

    std::ostringstream os;
    tracer.writeJson(os);
    std::string json = os.str();
    // The fields Perfetto / chrome://tracing require of a complete
    // event: name, category, ph:"X", ts, dur, pid, tid.
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test.armed_span\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"vpprof\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
}

TEST(TelemetrySpans, TimedSpanFeedsHistogramEvenUnarmed)
{
    SpanTracer::instance().disable();
    uint64_t before = 0;
    {
        MetricsSnapshot snap = snapshotMetrics();
        auto it = snap.histograms.find("test.timed.us");
        before = it == snap.histograms.end() ? 0 : it->second.count;
    }
    {
        VPPROF_TIMED_SPAN("test.timed");
    }
    MetricsSnapshot snap = snapshotMetrics();
    EXPECT_EQ(snap.histograms.at("test.timed.us").count, before + 1);
}

TEST(TelemetryOutputs, WriteMetricsFileCommitsAtomically)
{
    Counter c("test.metrics_file");
    c.add();
    std::string path = ::testing::TempDir() + "/vpprof_metrics.json";
    ASSERT_TRUE(writeMetricsFile(path));
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("\"test.metrics_file\":1"),
              std::string::npos);
    // No temp file left behind next to the committed one.
    EXPECT_FALSE(
        std::ifstream(path + ".tmp." + std::to_string(::getpid()))
            .good());
    std::remove(path.c_str());
}

} // namespace
} // namespace telemetry
} // namespace vpprof
