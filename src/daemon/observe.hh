/**
 * @file
 * vpprofd's observability plane (DESIGN.md §14): the data types behind
 * per-job lifecycle events, the one bounded event ring that the
 * `journal` command and every subscriber read, the subscription spec
 * check, and declarative SLO tracking.
 *
 * A job's life is narrated as a sequence of JobEvents — received,
 * admitted, started, then exactly one terminal kind — each stamped
 * with the daemon's monotonically increasing sequence number, the
 * telemetry clock (telemetry::nowNs(), the same axis the Perfetto
 * trace uses) and the job's trace id, so wire responses, streamed
 * events, the journal and executor spans all join on one key. Events
 * are stored once and rendered when a reader takes them; a pushed
 * event is immutable, so every rendering is byte-identical.
 *
 * Everything here is pure bookkeeping owned by the event-loop thread:
 * no locks, no sockets. The server decides when events fire and who
 * hears about them; this module decides what they look like.
 */

#ifndef VPPROF_DAEMON_OBSERVE_HH
#define VPPROF_DAEMON_OBSERVE_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/metrics.hh"
#include "daemon/protocol.hh"

namespace vpprof
{
namespace daemon
{

/** What happened to a job (one Received..terminal narrative each). */
enum class JobEventKind
{
    Received,  ///< request line parsed; trace id assigned
    Admitted,  ///< passed admission control; queued for the executor
    Started,   ///< pulled onto a runner lane by the executor
    Completed, ///< answered ok
    Failed,    ///< answered with a non-shedding error (internal, ...)
    Rejected,  ///< shed at admission (overloaded/quota/draining)
    Cancelled, ///< removed from the queue (cancel command/disconnect)
    Deadline,  ///< answered deadline_exceeded (queued or completed late)
};

const char *jobEventKindName(JobEventKind kind);

/** One job lifecycle event (ring entry / streamed line payload). */
struct JobEvent
{
    uint64_t seq = 0;          ///< EventRing::push stamps it, from 1
    uint64_t tsNs = 0;         ///< telemetry::nowNs() timestamp
    JobEventKind kind = JobEventKind::Received;
    uint64_t requestId = 0;    ///< the request's `id`
    uint64_t traceId = 0;
    uint64_t clientSerial = 0;
    Command cmd = Command::Ping;
    std::string workload;
    std::string detail;        ///< error, rejection or cancel reason
    uint64_t queued = 0;       ///< admission backlog at event time
};

/** The event as JSON object members (no braces), snake_case. */
void writeJobEventFields(std::ostream &os, const JobEvent &event);

/**
 * The event as one wire line: `{"event": "telemetry", "kind": ...,
 * ...}`. The `event` member is what DaemonClient::call()'s id-matching
 * keys on to skip streamed telemetry interleaved with a pipelined
 * response on one connection; the request id rides along (when the
 * event has one) purely for joining.
 */
std::string jobEventJson(const JobEvent &event);

/**
 * The daemon's one bounded store of job lifecycle events: push()
 * stamps the next gap-free seq (from 1) and evicts the OLDEST event
 * when full. `journal` renders its tail; a subscriber is a cursor
 * (the next seq it has not seen) into it.
 */
class EventRing
{
  public:
    /** A capacity of 0 is treated as 1. */
    explicit EventRing(size_t cap);

    void push(JobEvent event);

    /** Events ever pushed (also the newest event's seq). */
    uint64_t total() const { return total_; }
    size_t size() const { return events_.size(); }
    /** The seq the next push gets: a cursor here is caught up. */
    uint64_t headSeq() const { return total_ + 1; }
    /** The oldest retained seq (headSeq() when empty). */
    uint64_t oldestSeq() const { return headSeq() - events_.size(); }

    /** The retained event `seq`; oldestSeq() <= seq < headSeq(). */
    const JobEvent &at(uint64_t seq) const;

    /** Events evicted before a reader at `cursor` reached them. */
    uint64_t
    overtaken(uint64_t cursor) const
    {
        return cursor < oldestSeq() ? oldestSeq() - cursor : 0;
    }

    /**
     * The newest `limit` events (0 = all retained), oldest first, as
     * a JSON array of event objects.
     */
    std::string renderJsonArray(size_t limit) const;

  private:
    size_t cap_;
    uint64_t total_ = 0;
    std::deque<JobEvent> events_;
};

/**
 * Validate a `subscribe` command's comma-separated event-class spec.
 * `lifecycle` is the only class (an empty spec means it); spans go
 * out through --trace-json and the registry through the `metrics`
 * command. An unknown token fails with a diagnostic naming it.
 */
bool parseEventFilter(std::string_view spec, std::string *error);

/** Declarative service-level objectives for job requests. */
struct SloConfig
{
    double p99Ms = 0;       ///< objective: window p99 latency; 0 = off
    double errorRate = -1;  ///< objective: window error rate; <0 = off

    bool configured() const { return p99Ms > 0 || errorRate >= 0; }
};

/**
 * Parse a `--slo` spec: comma-separated `p99_ms=<ms>` and/or
 * `error_rate=<fraction in [0,1]>` assignments.
 */
std::optional<SloConfig> parseSloSpec(std::string_view spec,
                                      std::string *error);

/**
 * Sliding-window SLO evaluation. observe() records one answered job
 * (latency + ok/error) into a bounded window; once the window holds
 * at least minSamples() entries, each observation that leaves the
 * window's p99 latency above the objective increments the latency
 * BURN counter (ditto error rate). Burns therefore accumulate at
 * request rate while an objective is violated — a cheap, windowless
 * integral of "how long and how hard we were out of budget" that
 * `stats` exposes and the bench gates on. The burn counters are
 * registry counters (`daemon.slo_*_burns`), so a Prometheus scrape
 * reads the same numbers.
 */
class SloTracker
{
  public:
    void configure(const SloConfig &config, size_t window);

    void observe(double latency_ms, bool ok);

    /** Samples before evaluation starts: min(8, window). */
    size_t minSamples() const;

    uint64_t latencyBurns() const { return latencyBurns_.value(); }
    uint64_t errorBurns() const { return errorBurns_.value(); }
    uint64_t observed() const { return observed_; }

    /** Current window p99 latency (ms); 0 while under-sampled. */
    double windowP99Ms() const;
    /** Current window error rate; 0 while under-sampled. */
    double windowErrorRate() const;

    /** The tracker as JSON object members (the `stats` slo block). */
    void writeJsonFields(std::ostream &os) const;

  private:
    struct Sample
    {
        double latencyMs = 0;
        bool ok = true;
    };

    SloConfig config_;
    size_t window_ = 256;
    std::deque<Sample> samples_;
    uint64_t observed_ = 0;
    uint64_t windowErrors_ = 0;
    telemetry::ScopedCounter latencyBurns_{"daemon.slo_latency_burns"};
    telemetry::ScopedCounter errorBurns_{"daemon.slo_error_burns"};
};

} // namespace daemon
} // namespace vpprof

#endif // VPPROF_DAEMON_OBSERVE_HH
