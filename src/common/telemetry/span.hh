/**
 * @file
 * Span tracing: begin/end scopes recorded per thread and emitted as
 * Chrome trace_event JSON — open the file in Perfetto or
 * chrome://tracing to see where a sweep's wall time goes (interpret
 * vs. replay vs. predictor evaluation vs. worker queueing).
 *
 * Recording is off by default: an unarmed Span constructor is one
 * relaxed atomic load. When armed (CLI --trace-json, or the
 * VPPROF_TRACE_JSON env var), each Span buffers one complete event
 * ("ph":"X") with microsecond timestamps into a per-thread buffer;
 * buffers are merged at write time. Span names must be string
 * literals (they are stored by pointer); instant events
 * (recordInstant, "ph":"i") may carry dynamic names, which are owned
 * by the buffer and JSON-escaped at write time.
 *
 * A buffer holds at most kMaxEventsPerThread events; past that each
 * new event overwrites the thread's oldest one and counts in
 * `telemetry.spans_dropped`, so a long-running traced process keeps
 * each thread's latest window in bounded memory.
 *
 * Job attribution: a thread may set a *current trace id*
 * (ScopedTraceId); every span and instant event recorded while it is
 * set carries that id in its "args", so one request's full span tree
 * is reconstructible from the merged trace (vpprofd tags executor
 * lanes with the owning job's trace id this way).
 */

#ifndef VPPROF_COMMON_TELEMETRY_SPAN_HH
#define VPPROF_COMMON_TELEMETRY_SPAN_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/metrics.hh"

namespace vpprof
{
namespace telemetry
{

/** Monotonic nanoseconds since process start (span timestamps). */
uint64_t nowNs();

/**
 * The calling thread's current trace id (0 = unattributed). Spans and
 * instant events recorded while it is non-zero carry it in "args".
 */
uint64_t currentTraceId();

/** Set the calling thread's current trace id; returns the old one. */
uint64_t setCurrentTraceId(uint64_t id);

/** RAII trace-id scope: tags every span recorded inside it. */
class ScopedTraceId
{
  public:
    explicit ScopedTraceId(uint64_t id) : prev_(setCurrentTraceId(id))
    {
    }

    ~ScopedTraceId() { setCurrentTraceId(prev_); }

    ScopedTraceId(const ScopedTraceId &) = delete;
    ScopedTraceId &operator=(const ScopedTraceId &) = delete;

  private:
    uint64_t prev_;
};

/** The process-wide span recorder. */
class SpanTracer
{
  public:
    /** The singleton (leaked: usable from atexit writers). */
    static SpanTracer &instance();

    /** Events one thread's buffer keeps before overwriting its oldest
     *  (about 1.2 MB at 72 bytes an event). */
    static constexpr size_t kMaxEventsPerThread = size_t{1} << 14;

    void enable() { enabled_.store(true, std::memory_order_relaxed); }
    void disable() { enabled_.store(false, std::memory_order_relaxed); }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Buffer one complete event (called by ~Span on the hot path). */
    void record(const char *name, uint64_t start_ns, uint64_t end_ns);

    /**
     * Buffer one instant event ("ph":"i") with an owned (possibly
     * dynamic, possibly non-ASCII) name. Unlike record(), this does
     * not consult enabled(): callers gate themselves, so lifecycle
     * markers can be recorded exactly when the producer wants them.
     */
    void recordInstant(std::string name, uint64_t ts_ns,
                       uint64_t trace_id);

    /** Events buffered now across all threads (tests, reports). */
    size_t eventCount() const;

    /** Chrome trace_event JSON ({"traceEvents":[...]}). */
    void writeJson(std::ostream &os) const;

    /** writeJson through the atomic temp-file + rename commit. */
    bool writeFile(const std::string &path) const;

    struct Event
    {
        const char *name;     ///< literal name; null when dyn owns it
        std::string dynName;  ///< owned name (instant events)
        uint64_t startNs;
        uint64_t endNs;       ///< == startNs for instant events
        uint64_t traceId;     ///< 0 = unattributed
        bool instant;
    };

    struct ThreadBuffer
    {
        mutable std::mutex mutex;  ///< owner appends; writers read
        std::vector<Event> events;  ///< at most kMaxEventsPerThread
        size_t oldest = 0;  ///< slot the next event overwrites when full
        uint32_t tid;
    };

  private:
    SpanTracer() = default;

    /** Append to the calling thread's buffer, overwriting when full. */
    void push(Event event);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;  ///< guards buffers_
    std::vector<ThreadBuffer *> buffers_;  ///< never freed
};

/**
 * RAII span: records [construction, destruction) into the tracer when
 * tracing is armed. `name` must be a string literal.
 */
class Span
{
  public:
    explicit Span(const char *name)
        : name_(SpanTracer::instance().enabled() ? name : nullptr),
          startNs_(name_ ? nowNs() : 0)
    {
    }

    ~Span()
    {
        if (name_)
            SpanTracer::instance().record(name_, startNs_, nowNs());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    uint64_t startNs_;
};

/**
 * Span + latency histogram in one scope: the span feeds --trace-json,
 * the histogram (in microseconds) feeds --metrics-out. The histogram
 * observes in every run; the span only when tracing is armed.
 */
class TimedSpan
{
  public:
    TimedSpan(const char *name, const HistogramMetric &hist)
        : span_(name), hist_(hist), startNs_(nowNs())
    {
    }

    ~TimedSpan() { hist_.observe((nowNs() - startNs_) / 1000); }

    TimedSpan(const TimedSpan &) = delete;
    TimedSpan &operator=(const TimedSpan &) = delete;

  private:
    Span span_;
    const HistogramMetric &hist_;
    uint64_t startNs_;
};

/**
 * JSON string escaping for trace output: quotes, backslashes and all
 * control characters (RFC 8259 \u00XX for the ones without short
 * escapes); bytes >= 0x80 pass through raw, so UTF-8 names survive
 * byte-for-byte. Exposed so every telemetry writer escapes one way.
 */
void writeJsonEscaped(std::ostream &os, std::string_view s);

} // namespace telemetry
} // namespace vpprof

/** Token pasting for unique locals in the span macros. */
#define VPPROF_SPAN_CONCAT_(a, b) a##b
#define VPPROF_SPAN_CONCAT(a, b) VPPROF_SPAN_CONCAT_(a, b)

/** Trace-only span over the enclosing scope; `name` is a literal. */
#define VPPROF_SPAN(name) \
    ::vpprof::telemetry::Span VPPROF_SPAN_CONCAT( \
        vpprof_span_, __LINE__){name}

/**
 * Span + `<name>.us` latency histogram over the enclosing scope;
 * `name` must be a string literal (it is pasted into the metric name).
 */
#define VPPROF_TIMED_SPAN(name) \
    static const ::vpprof::telemetry::HistogramMetric \
        VPPROF_SPAN_CONCAT(vpprof_span_hist_, __LINE__){name \
                                                        ".us"}; \
    ::vpprof::telemetry::TimedSpan VPPROF_SPAN_CONCAT( \
        vpprof_timed_span_, \
        __LINE__){name, \
                  VPPROF_SPAN_CONCAT(vpprof_span_hist_, __LINE__)}

#endif // VPPROF_COMMON_TELEMETRY_SPAN_HH
