/**
 * @file
 * Process-wide metrics registry: named counters, gauges and log-scale
 * latency histograms, cheap enough to leave on in production runs.
 *
 * Hot-path design: every thread owns a lock-free shard of slots; an
 * increment resolves to a single relaxed store into the calling
 * thread's shard (the owner is the only writer, so no RMW contention
 * exists to pay for). A thread hands its shard back when it exits and
 * the next new thread takes it over, counts and all, so the shards
 * number the threads alive at once, not every thread ever started.
 * snapshot() merges all shards with relaxed loads
 * — counters are monotone, so a snapshot racing an increment is at
 * worst one event stale, never torn. Metric names are registered once
 * (mutex-guarded, cold) and resolve to stable small indices that
 * handles cache, so steady state never touches the name table.
 *
 * Naming scheme (DESIGN.md §10): dotted lower_snake components,
 * `<subsystem>.<event>`, e.g. `trace.vm_runs`, `runner.queue_wait.us`.
 * Latency histograms carry their unit as the last component (`.us`).
 */

#ifndef VPPROF_COMMON_TELEMETRY_METRICS_HH
#define VPPROF_COMMON_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hh"

namespace vpprof
{
namespace telemetry
{

/**
 * Merged view of one log-scale latency histogram: bucket 0 holds
 * values <= 1, bucket i holds (2^(i-1), 2^i]. toHistogram() lifts the
 * buckets into a common Histogram (the percentile backbone).
 */
struct HistogramSnapshot
{
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> buckets;  ///< log2 buckets, trailing zeros trimmed

    /** The buckets as a fixed-edge Histogram over powers of two. */
    Histogram toHistogram() const;

    /** Percentile over the bucketized values; 0 when empty. */
    double percentile(double p) const;
};

/** Point-in-time merge of every registered metric. */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /**
     * Compact (single-line) JSON object:
     * {"counters":{...},"gauges":{...},"histograms":{"x":{"count":..,
     * "sum":..,"p50":..,"p95":..,"p99":..}}}
     */
    void writeJson(std::ostream &os) const;
};

/**
 * The process-wide registry. Use through the Counter/Gauge/
 * HistogramMetric handles; the raw id API exists for the handles and
 * for tests.
 */
class Registry
{
  public:
    /** The singleton (leaked: usable from atexit and late statics). */
    static Registry &instance();

    /** Register-or-lookup; ids are stable for the process lifetime. */
    uint32_t counterId(std::string_view name);
    uint32_t gaugeId(std::string_view name);
    uint32_t histogramId(std::string_view name);

    void add(uint32_t counter_id, uint64_t delta);
    void gaugeAdd(uint32_t gauge_id, int64_t delta);
    void gaugeSet(uint32_t gauge_id, int64_t value);
    void observe(uint32_t histogram_id, uint64_t value);

    MetricsSnapshot snapshot() const;

    /** Shards allocated so far: at most the most threads that have
     *  recorded metrics at one time (exited threads' are reused). */
    size_t shardCount() const;

    struct Shard;  ///< per-thread slot block (layout in metrics.cc)

  private:
    Registry() = default;

    /** The calling thread's shard, leased on its first metric. */
    Shard &localShard();
    /** Return an exiting thread's shard for the next new thread. */
    void releaseShard(Shard *shard);

    mutable std::mutex mutex_;  ///< names + shard list (cold paths)
    std::vector<std::string> counterNames_;
    std::vector<std::string> gaugeNames_;
    std::vector<std::string> histogramNames_;
    std::vector<Shard *> shards_;  ///< never freed; counts outlive threads
    std::vector<Shard *> freeShards_;  ///< released by exited threads
};

/** Handle to a named monotone counter; add() is hot-path safe. */
class Counter
{
  public:
    explicit Counter(std::string_view name)
        : id_(Registry::instance().counterId(name))
    {
    }

    void add(uint64_t delta = 1) const
    {
        Registry::instance().add(id_, delta);
    }

  private:
    uint32_t id_;
};

/** Handle to a named gauge (a value that can go up and down). */
class Gauge
{
  public:
    explicit Gauge(std::string_view name)
        : id_(Registry::instance().gaugeId(name))
    {
    }

    void add(int64_t delta) const
    {
        Registry::instance().gaugeAdd(id_, delta);
    }

    void set(int64_t value) const
    {
        Registry::instance().gaugeSet(id_, value);
    }

  private:
    uint32_t id_;
};

/** Handle to a named log-scale histogram (latencies, sizes). */
class HistogramMetric
{
  public:
    explicit HistogramMetric(std::string_view name)
        : id_(Registry::instance().histogramId(name))
    {
    }

    void observe(uint64_t value) const
    {
        Registry::instance().observe(id_, value);
    }

  private:
    uint32_t id_;
};

/** The process-wide snapshot. */
MetricsSnapshot snapshotMetrics();

/**
 * A per-instance counter mirrored into a process-wide registry
 * counter: value() serves the owning object's typed stats view (e.g.
 * one TraceRepository's TraceRepoStats), while the registry aggregates
 * across instances for --metrics-out. `name` must outlive the
 * counter (callers pass literals).
 */
class ScopedCounter
{
  public:
    explicit ScopedCounter(std::string_view name)
        : name_(name), global_(name)
    {
    }

    /** The registry name this counter mirrors into. */
    std::string_view name() const { return name_; }

    void add(uint64_t delta = 1)
    {
        local_.fetch_add(delta, std::memory_order_relaxed);
        global_.add(delta);
    }

    uint64_t value() const
    {
        return local_.load(std::memory_order_relaxed);
    }

  private:
    std::string_view name_;
    std::atomic<uint64_t> local_{0};
    Counter global_;
};

} // namespace telemetry
} // namespace vpprof

#endif // VPPROF_COMMON_TELEMETRY_METRICS_HH
