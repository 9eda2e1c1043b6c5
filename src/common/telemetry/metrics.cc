#include "common/telemetry/metrics.hh"

#include <bit>
#include <cmath>
#include <ostream>

#include "common/logging.hh"

namespace vpprof
{
namespace telemetry
{

namespace
{

/**
 * Log2 bucket of a value: 0 for v <= 1, else the i with
 * 2^(i-1) < v <= 2^i — matching the (lo, hi] convention of the
 * fixed-edge Histogram the snapshot lifts into.
 */
inline size_t
logBucket(uint64_t v)
{
    return v <= 1 ? 0 : static_cast<size_t>(std::bit_width(v - 1));
}

} // namespace

Histogram
HistogramSnapshot::toHistogram() const
{
    // Edges 0, 1, 2, 4, ..., 2^(n-1): bucket 0 is [0,1] (values <= 1),
    // bucket i is (2^(i-1), 2^i].
    size_t n = buckets.size() < 2 ? 2 : buckets.size();
    std::vector<double> edges;
    edges.reserve(n + 1);
    edges.push_back(0.0);
    double hi = 1.0;
    for (size_t i = 0; i < n; ++i) {
        edges.push_back(hi);
        hi *= 2.0;
    }
    Histogram h(std::move(edges));
    for (size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] > 0)
            h.addSample(i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i)),
                        buckets[i]);
    }
    return h;
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    return toHistogram().percentile(p);
}

namespace
{

// Fixed shard geometry: registration past these caps is a vpprof bug
// (metric names are static call sites, not data-driven).
constexpr size_t kMaxCounters = 256;
constexpr size_t kMaxGauges = 64;
constexpr size_t kMaxHistograms = 64;
constexpr size_t kLogBuckets = 65;  // log2 buckets over uint64 range

// Gauges are low-rate and need cross-thread set(): one shared slab of
// atomics instead of shards.
std::atomic<int64_t> g_gauges[kMaxGauges];

} // namespace

struct Registry::Shard
{
    std::atomic<uint64_t> counters[kMaxCounters] = {};
    struct Hist
    {
        std::atomic<uint64_t> buckets[kLogBuckets] = {};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
    };
    Hist hists[kMaxHistograms] = {};
};

namespace
{

/** The calling thread's shard (owned by the registry, never freed). */
thread_local Registry::Shard *tls_shard = nullptr;
/** Set once the thread's lease has handed its shard back (exit). */
thread_local bool tls_lease_ended = false;

uint32_t
internName(std::vector<std::string> &names, std::string_view name,
           size_t cap, const char *kind)
{
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return static_cast<uint32_t>(i);
    }
    if (names.size() >= cap)
        vpprof_panic("telemetry: too many ", kind, " metrics (cap ",
                     cap, ") registering '", name, "'");
    names.emplace_back(name);
    return static_cast<uint32_t>(names.size() - 1);
}

/** Owner-thread increment: a single relaxed store (no RMW needed). */
inline void
bump(std::atomic<uint64_t> &slot, uint64_t delta)
{
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

} // namespace

Registry &
Registry::instance()
{
    // Leaked on purpose: metric handles live in function statics and
    // atexit writers; a destructed registry would dangle under them.
    static Registry *registry = new Registry;
    return *registry;
}

Registry::Shard &
Registry::localShard()
{
    if (tls_shard)
        return *tls_shard;

    // Hands the shard back at thread exit. The mutex orders the old
    // owner's last store before the new owner's first, so a shard
    // keeps exactly one writer and its counts carry on summing.
    struct Lease
    {
        ~Lease()
        {
            instance().releaseShard(tls_shard);
            tls_shard = nullptr;
            tls_lease_ended = true;
        }
    };
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (freeShards_.empty()) {
            shards_.push_back(new Shard);
            tls_shard = shards_.back();
        } else {
            tls_shard = freeShards_.back();
            freeShards_.pop_back();
        }
    }
    // A metric recorded by a later thread_local destructor finds the
    // lease gone: that shard stays with the exited thread.
    if (!tls_lease_ended) {
        static thread_local Lease lease;
        (void)lease;
    }
    return *tls_shard;
}

void
Registry::releaseShard(Shard *shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    freeShards_.push_back(shard);
}

size_t
Registry::shardCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

uint32_t
Registry::counterId(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return internName(counterNames_, name, kMaxCounters, "counter");
}

uint32_t
Registry::gaugeId(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return internName(gaugeNames_, name, kMaxGauges, "gauge");
}

uint32_t
Registry::histogramId(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return internName(histogramNames_, name, kMaxHistograms,
                      "histogram");
}

void
Registry::add(uint32_t counter_id, uint64_t delta)
{
    bump(localShard().counters[counter_id], delta);
}

void
Registry::gaugeAdd(uint32_t gauge_id, int64_t delta)
{
    g_gauges[gauge_id].fetch_add(delta, std::memory_order_relaxed);
}

void
Registry::gaugeSet(uint32_t gauge_id, int64_t value)
{
    g_gauges[gauge_id].store(value, std::memory_order_relaxed);
}

void
Registry::observe(uint32_t histogram_id, uint64_t value)
{
    Shard::Hist &h = localShard().hists[histogram_id];
    bump(h.buckets[logBucket(value)], 1);
    bump(h.count, 1);
    bump(h.sum, value);
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);

    for (size_t c = 0; c < counterNames_.size(); ++c) {
        uint64_t total = 0;
        for (const Shard *shard : shards_)
            total += shard->counters[c].load(std::memory_order_relaxed);
        snap.counters[counterNames_[c]] = total;
    }
    for (size_t g = 0; g < gaugeNames_.size(); ++g)
        snap.gauges[gaugeNames_[g]] =
            g_gauges[g].load(std::memory_order_relaxed);
    for (size_t h = 0; h < histogramNames_.size(); ++h) {
        HistogramSnapshot hist;
        hist.buckets.assign(kLogBuckets, 0);
        for (const Shard *shard : shards_) {
            const Shard::Hist &sh = shard->hists[h];
            hist.count += sh.count.load(std::memory_order_relaxed);
            hist.sum += sh.sum.load(std::memory_order_relaxed);
            for (size_t b = 0; b < kLogBuckets; ++b)
                hist.buckets[b] +=
                    sh.buckets[b].load(std::memory_order_relaxed);
        }
        while (hist.buckets.size() > 1 && hist.buckets.back() == 0)
            hist.buckets.pop_back();
        snap.histograms[histogramNames_[h]] = std::move(hist);
    }
    return snap;
}

MetricsSnapshot
snapshotMetrics()
{
    return Registry::instance().snapshot();
}

namespace
{

/** Minimal JSON string escaping (metric names are plain, but be safe). */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            os << c;
            break;
        }
    }
    os << '"';
}

} // namespace

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        if (!first)
            os << ',';
        first = false;
        writeJsonString(os, name);
        os << ':' << value;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        if (!first)
            os << ',';
        first = false;
        writeJsonString(os, name);
        os << ':' << value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : histograms) {
        if (!first)
            os << ',';
        first = false;
        writeJsonString(os, name);
        os << ":{\"count\":" << hist.count << ",\"sum\":" << hist.sum
           << ",\"p50\":" << hist.percentile(50)
           << ",\"p95\":" << hist.percentile(95)
           << ",\"p99\":" << hist.percentile(99) << '}';
    }
    os << "}}";
}

} // namespace telemetry
} // namespace vpprof
