#include "common/telemetry/span.hh"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/atomic_file.hh"

namespace vpprof
{
namespace telemetry
{

uint64_t
nowNs()
{
    using namespace std::chrono;
    // One shared epoch so timestamps from every thread line up on the
    // same axis in the trace viewer.
    static const steady_clock::time_point epoch = steady_clock::now();
    return static_cast<uint64_t>(
        duration_cast<nanoseconds>(steady_clock::now() - epoch)
            .count());
}

void
writeJsonEscaped(std::ostream &os, std::string_view s)
{
    for (char c : s) {
        unsigned char uc = static_cast<unsigned char>(c);
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
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (uc < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
                os << buf;
            } else {
                // >= 0x80 passes raw: UTF-8 sequences survive
                // byte-for-byte (RFC 8259 permits unescaped non-ASCII).
                os << c;
            }
            break;
        }
    }
}

namespace
{

thread_local SpanTracer::ThreadBuffer *tls_buffer = nullptr;
thread_local uint64_t tls_trace_id = 0;

/** Fixed leading fields of one trace event ("name":...,"cat":...). */
void
writeEventHead(std::ostream &os, const SpanTracer::Event &e)
{
    os << "{\"name\":\"";
    writeJsonEscaped(os, e.name ? std::string_view(e.name)
                                : std::string_view(e.dynName));
    os << "\",\"cat\":\"vpprof\"";
}

} // namespace

uint64_t
currentTraceId()
{
    return tls_trace_id;
}

uint64_t
setCurrentTraceId(uint64_t id)
{
    uint64_t prev = tls_trace_id;
    tls_trace_id = id;
    return prev;
}

SpanTracer &
SpanTracer::instance()
{
    static SpanTracer *tracer = new SpanTracer;
    return *tracer;
}

void
SpanTracer::push(Event event)
{
    static const Counter dropped("telemetry.spans_dropped");
    if (!tls_buffer) {
        auto *buffer = new ThreadBuffer;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
            buffers_.push_back(buffer);
        }
        tls_buffer = buffer;
    }
    ThreadBuffer &buffer = *tls_buffer;
    // Uncontended in steady state: only the owner appends; the
    // write-file path briefly takes each buffer's mutex to read.
    std::lock_guard<std::mutex> lock(buffer.mutex);
    if (buffer.events.size() < kMaxEventsPerThread) {
        buffer.events.push_back(std::move(event));
        return;
    }
    buffer.events[buffer.oldest] = std::move(event);
    buffer.oldest = (buffer.oldest + 1) % kMaxEventsPerThread;
    dropped.add();
}

void
SpanTracer::record(const char *name, uint64_t start_ns, uint64_t end_ns)
{
    push(Event{name, std::string(), start_ns, end_ns, tls_trace_id,
               false});
}

void
SpanTracer::recordInstant(std::string name, uint64_t ts_ns,
                          uint64_t trace_id)
{
    push(Event{nullptr, std::move(name), ts_ns, ts_ns, trace_id, true});
}

size_t
SpanTracer::eventCount() const
{
    size_t total = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const ThreadBuffer *buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        total += buffer->events.size();
    }
    return total;
}

void
SpanTracer::writeJson(std::ostream &os) const
{
    // Chrome trace_event "JSON Object Format": complete events
    // ("ph":"X") with microsecond timestamps, plus process-scoped
    // instants ("ph":"i"). Perfetto and chrome://tracing load this
    // directly; ordering is irrelevant. Events attributed to a job
    // carry its trace id in "args" — filter on it to reconstruct one
    // request's span tree.
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const ThreadBuffer *buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        for (const Event &e : buffer->events) {
            if (!first)
                os << ',';
            first = false;
            char frac_ts[8];
            std::snprintf(frac_ts, sizeof(frac_ts), "%03u",
                          static_cast<unsigned>(e.startNs % 1000));
            writeEventHead(os, e);
            if (e.instant) {
                os << ",\"ph\":\"i\",\"s\":\"p\",\"ts\":"
                   << (e.startNs / 1000) << '.' << frac_ts;
            } else {
                uint64_t dur_ns = e.endNs - e.startNs;
                char frac_dur[8];
                std::snprintf(frac_dur, sizeof(frac_dur), "%03u",
                              static_cast<unsigned>(dur_ns % 1000));
                os << ",\"ph\":\"X\",\"ts\":" << (e.startNs / 1000)
                   << '.' << frac_ts << ",\"dur\":" << (dur_ns / 1000)
                   << '.' << frac_dur;
            }
            os << ",\"pid\":1,\"tid\":" << buffer->tid;
            if (e.traceId != 0)
                os << ",\"args\":{\"trace_id\":" << e.traceId << '}';
            os << '}';
        }
    }
    os << "]}";
}

bool
SpanTracer::writeFile(const std::string &path) const
{
    std::ostringstream os;
    writeJson(os);
    return writeFileAtomically(path, os.str());
}

} // namespace telemetry
} // namespace vpprof
