/**
 * @file
 * vpprofd's serving core: a single-threaded poll() event loop over a
 * Unix domain stream socket (plus an optional TCP front-end),
 * multiplexing profile/evaluate/verify jobs from many concurrent
 * clients onto ONE shared Session (one memoized profile cache)
 * through the existing ExperimentRunner thread pool. Every job is VM
 * passes, so the daemon reads and writes no trace file.
 *
 * Threading model (DESIGN.md §13):
 *  - the EVENT LOOP thread owns every socket, every client buffer,
 *    the event ring (journal + subscriber cursors), the SLO window
 *    and all admission state — no locks on the serving path;
 *  - one EXECUTOR thread calls the runner's forEach once, with one
 *    cell per runner thread (the runner is not re-entrant across
 *    threads, so exactly one thread drives it); each cell is a LANE
 *    that pulls one admitted job, runs it, posts its result and pulls
 *    the next;
 *  - Started notices and completions post back through ONE
 *    mutex-guarded FIFO plus a self-pipe byte, the only lane ->
 *    event-loop channel; a job's Started notice is queued before its
 *    result, so the loop records them in that order. Responses to
 *    pipelined requests go out in completion order, not request
 *    order: clients match them by `id`;
 *  - a request gets exactly one answer line; a job's lifecycle
 *    (admitted, started, completed, ...) is told only through the
 *    event ring, to `subscribe` connections and `journal`.
 *
 * Robustness is first-class:
 *  - admission control: a bounded queue (maxQueue admitted jobs) with
 *    explicit `overloaded` rejections, and a per-client in-flight
 *    quota rejected as `quota` — a client always gets an answer,
 *    immediately or eventually, never silence; every shedding
 *    rejection carries a `retry_after_ms` hint plus the backlog depth
 *    through one shared helper (rejectShedding);
 *  - deadlines: a request's `deadline_ms` is enforced while QUEUED (a
 *    timer sweep answers expired jobs `deadline_exceeded` without
 *    them ever consuming a lane; a lane double-checks at pull time)
 *    and at COMPLETION (a result arriving past its deadline is
 *    answered `deadline_exceeded`, not served late);
 *  - cancellation: the `cancel` command removes the caller's queued
 *    job by request id (running jobs finish; their result still
 *    settles quota), and a disconnecting client's queued jobs are
 *    purged so abandoned work never reaches a lane;
 *  - slow readers: a client whose unflushed output backlog exceeds
 *    maxClientOutBufBytes while its socket stays unwritable is
 *    disconnected — one stuck reader cannot grow daemon memory;
 *  - watchdog: a job running longer than watchdogMs is flagged into
 *    telemetry (daemon.watchdog_flags) and the log, once per job —
 *    liveness failures become observable, not silent;
 *  - idle/read timeouts: a connection with no complete request and no
 *    job in flight for idleTimeoutMs is closed;
 *  - graceful drain: SIGTERM (via requestShutdown()) or the protocol
 *    `shutdown` command stops accepting connections and admitting
 *    jobs (`draining` rejections), finishes every admitted job,
 *    flushes every client buffer and advances every subscriber's
 *    cursor to the ring's head (a pending lifecycle event is
 *    delivered, not dropped at teardown), then
 *    flushes the telemetry outputs (--metrics-out / --trace-json
 *    survive a signal-initiated exit);
 *  - several daemons share nothing: each keeps its state in its own
 *    process, so they answer byte-identically side by side
 *    (DESIGN.md §15);
 *  - fault injection: `daemon.accept` and `daemon.write` failpoints
 *    make socket-level faults deterministic.
 */

#ifndef VPPROF_DAEMON_SERVER_HH
#define VPPROF_DAEMON_SERVER_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/metrics.hh"
#include "common/telemetry/span.hh"
#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "daemon/observe.hh"
#include "daemon/protocol.hh"
#include "workloads/workload.hh"

namespace vpprof
{
namespace daemon
{

/** Tunables for one daemon instance. */
struct DaemonConfig
{
    /** Unix-domain socket path (required; a stale file is replaced). */
    std::string socketPath;

    /** The shared Session underneath (runner width, memoized
     *  profiles). No job replays a trace, so no file in its
     *  traceCacheDir is ever read or written. */
    SessionConfig session;

    /** Event loops: must be 1 (start() fails otherwise). Kept only
     *  for callers that still assign it. */
    size_t shards = 1;

    /** Optional TCP front-end, "host:port" (port 0 picks a free one;
     *  tcpPort() reports the bound port). Empty = Unix socket only. */
    std::string listenAddress;

    /** Admission bound: queued + running jobs; beyond it requests are
     *  rejected `overloaded`. */
    size_t maxQueue = 64;

    /** Per-client in-flight (admitted, unanswered) job quota. */
    size_t maxInflightPerClient = 8;

    /** Close a connection idle (no request, no job in flight) this
     *  long; 0 disables the timeout. */
    uint64_t idleTimeoutMs = 30'000;

    /** A request line longer than this is a protocol error. */
    size_t maxLineBytes = 1 << 16;

    /** Unflushed output backlog beyond which a slow reader is
     *  disconnected (its socket stayed unwritable). */
    size_t maxClientOutBufBytes = 4 << 20;

    /** Flag a job still running after this long into telemetry +
     *  the log; 0 disables the watchdog. */
    uint64_t watchdogMs = 10'000;

    /** Job lifecycle events the one event ring keeps (0 acts as 1):
     *  the `journal` tail, and how far a subscriber may lag before
     *  it loses the evicted events (daemon.events_dropped). */
    size_t eventRingCap = 256;

    /** Declarative objectives evaluated over a sliding window of
     *  answered jobs (vpprofd --slo). */
    SloConfig slo;

    /** SLO evaluation window (answered jobs). */
    size_t sloWindow = 256;
};

class DaemonServer
{
  public:
    explicit DaemonServer(DaemonConfig config);
    ~DaemonServer();

    DaemonServer(const DaemonServer &) = delete;
    DaemonServer &operator=(const DaemonServer &) = delete;

    /**
     * Bind + listen on the socket(s) and start the runner lanes.
     * False (with a diagnostic) when a socket cannot be created or
     * the config asks for more than one event loop.
     */
    bool start(std::string *error);

    /**
     * The event loop: serves until a graceful drain completes.
     * Returns 0 after a clean drain (the only way it returns).
     */
    int run();

    /**
     * Begin a graceful drain. Async-signal-safe (one write() to the
     * self-pipe): SIGTERM handlers call this. Idempotent.
     */
    void requestShutdown();

    /** Live serving counters mirrored into the telemetry registry
     *  under `daemon.*` (the TraceRepository::Counters idiom). */
    struct Counters
    {
        telemetry::ScopedCounter connections{"daemon.connections"};
        telemetry::ScopedCounter disconnects{"daemon.disconnects"};
        telemetry::ScopedCounter idleCloses{"daemon.idle_closes"};
        telemetry::ScopedCounter acceptFailures{
            "daemon.accept_failures"};
        telemetry::ScopedCounter requests{"daemon.requests"};
        telemetry::ScopedCounter badRequests{"daemon.bad_requests"};
        telemetry::ScopedCounter immediate{"daemon.immediate"};
        telemetry::ScopedCounter jobsAdmitted{"daemon.jobs_admitted"};
        telemetry::ScopedCounter jobsCompleted{"daemon.jobs_completed"};
        telemetry::ScopedCounter jobsFailed{"daemon.jobs_failed"};
        telemetry::ScopedCounter rejectedOverloaded{
            "daemon.rejected_overloaded"};
        telemetry::ScopedCounter rejectedQuota{"daemon.rejected_quota"};
        telemetry::ScopedCounter rejectedDraining{
            "daemon.rejected_draining"};
        telemetry::ScopedCounter writeErrors{"daemon.write_errors"};
        telemetry::ScopedCounter deadlineExceeded{
            "daemon.deadline_exceeded"};
        telemetry::ScopedCounter cancelled{"daemon.cancelled"};
        telemetry::ScopedCounter slowReaderCloses{
            "daemon.slow_reader_closes"};
        telemetry::ScopedCounter watchdogFlags{
            "daemon.watchdog_flags"};
        telemetry::ScopedCounter subscribes{"daemon.subscribes"};
        telemetry::ScopedCounter eventsEmitted{
            "daemon.events_emitted"};
        telemetry::ScopedCounter eventsDropped{
            "daemon.events_dropped"};
        telemetry::HistogramMetric jobLatencyUs{
            "daemon.job_latency.us"};
        /** Admission to lane pickup, once per job a lane pops. */
        telemetry::HistogramMetric queueWaitUs{"daemon.queue_wait.us"};

        /** The counters of the `stats` daemon block, in wire order;
         *  each key is the counter's name without `daemon.`. */
        auto
        served() const
        {
            return std::array{&connections,    &disconnects,
                              &idleCloses,     &acceptFailures,
                              &requests,       &badRequests,
                              &immediate,      &jobsAdmitted,
                              &jobsCompleted,  &jobsFailed,
                              &rejectedOverloaded, &rejectedQuota,
                              &rejectedDraining, &writeErrors,
                              &deadlineExceeded, &cancelled,
                              &slowReaderCloses, &watchdogFlags,
                              &subscribes,     &eventsEmitted,
                              &eventsDropped};
        }
    };

    /** The live serving counters (atomic loads: any thread may read). */
    const Counters &counters() const { return counters_; }

    /**
     * The `stats` result members: the `daemon` block (the served
     * counters, then the queued/running/clients levels), `slo`, `log`
     * and `trace`. Event-loop thread, or after run() returns.
     */
    std::string statsFields();

    /** The TCP front-end's bound port (0 when --listen is off). */
    uint16_t tcpPort() const { return tcpPort_; }

    Session &session() { return session_; }
    const DaemonConfig &config() const { return config_; }

  private:
    /** Per-connection lifecycle-stream state (the `subscribe` cmd):
     *  a sample rate and a cursor into the event ring
     *  (pumpSubscriber). */
    struct Subscription
    {
        double sampleRate = 1.0;  ///< deliver this fraction, in (0, 1]
        uint64_t nextSeq = 0;  ///< next ring event to consider
        uint64_t delivered = 0;
        uint64_t dropped = 0;
        double sampleAcc = 0;  ///< deterministic sampling accumulator

        /** Deterministic downsampling: the accumulator gains
         *  sample_rate per event and passes it on crossing 1, so 0.25
         *  passes exactly every 4th. */
        bool
        sample()
        {
            sampleAcc += sampleRate;
            if (sampleAcc < 1.0)
                return false;
            sampleAcc -= 1.0;
            return true;
        }
    };

    struct Client
    {
        int fd = -1;
        uint64_t serial = 0;
        std::string inBuf;
        std::string outBuf;
        size_t outOff = 0;
        size_t inflight = 0;       ///< admitted, unanswered jobs
        uint64_t lastActivityNs = 0;
        std::optional<Subscription> sub;
    };

    struct Job
    {
        uint64_t clientSerial = 0;
        Request req;
        uint64_t admitNs = 0;
        uint64_t deadlineNs = 0;  ///< absolute; 0 = no deadline
    };

    /** One lane -> event-loop notice: a job's result, or (no
     *  outcome) its Started notice, stamped at pull time. */
    struct Completion
    {
        Job job;
        std::optional<JobOutcome> outcome;  ///< none: Started notice
        uint64_t startedNs = 0;             ///< Started notices only
    };

    // --- event-loop internals (event-loop thread only) -------------
    void acceptClients(int listen_fd);
    void readClient(int fd);
    void handleLine(Client &client, const std::string &line);
    void handleJobRequest(Client &client, const Request &req);
    void handleCancel(Client &client, const Request &req);
    void handleSubscribe(Client &client, const Request &req);
    void handleMetrics(Client &client, const Request &req);
    void handleJournal(Client &client, const Request &req);
    /** ONE serializer for load-shedding rejections: counts the
     *  matching counter, includes the backlog depth and a
     *  retry_after_ms hint in the response. */
    void rejectShedding(Client &client, const Request &req,
                        ErrorCode code, const std::string &detail);
    /** Answer + settle one job that will never reach a lane
     *  (deadline expiry / cancel): decrement inflight, send the
     *  error line. */
    void settleDeadJob(const Job &job, ErrorCode code,
                       const std::string &detail);
    /** Remove queued jobs past their deadline (timer sweep). */
    void expireQueuedJobs(uint64_t now_ns);
    void sendLine(Client &client, const std::string &line);
    void flushClient(Client &client);
    void closeClient(int fd, bool counted_idle = false);
    void drainCompletions();
    void handleTimers(uint64_t now_ns);
    void beginDrain();
    bool drainComplete() const;
    int computeTimeoutMs(uint64_t now_ns) const;

    // --- observability plane (event-loop thread only) --------------
    /** Record one job lifecycle event: stamp the telemetry clock,
     *  push it onto the ring (which stamps its seq), mirror it as a
     *  Perfetto instant when tracing is armed, and pump every
     *  subscriber. */
    void recordJobEvent(JobEvent event);
    /** Advance a subscriber's cursor to the ring's head: count the
     *  events the ring evicted past it as dropped, then render and
     *  send sampled events while the backlog stays under
     *  maxClientOutBufBytes (always, when `bounded` is false: the
     *  drain delivers everything retained). No-op without a
     *  subscription. */
    void pumpSubscriber(Client &client, bool bounded = true);
    /** Run fn(client) on every subscriber; fn may close clients (a
     *  failed flush). */
    template <typename Fn>
    void forEachSubscriber(Fn fn);

    // --- runner lanes (executor thread + runner workers) ------------
    /** Pull, run and answer admitted jobs one at a time until the
     *  executor stops and the queue is empty. */
    void laneLoop(size_t lane);
    void wake(char tag);

    DaemonConfig config_;
    WorkloadSuite suite_;
    Session session_;
    Dispatcher dispatcher_;

    int listenFd_ = -1;     ///< Unix listener
    int tcpListenFd_ = -1;  ///< TCP front-end listener (--listen)
    uint16_t tcpPort_ = 0;
    int wakeRead_ = -1;
    std::atomic<int> wakeWrite_{-1};
    bool started_ = false;
    bool draining_ = false;
    bool socketBound_ = false;

    std::map<int, Client> clients_;            ///< by fd
    std::map<uint64_t, int> clientFdBySerial_;
    uint64_t nextClientSerial_ = 1;

    std::thread executor_;
    mutable std::mutex jobMutex_;
    std::condition_variable jobCv_;
    std::deque<Job> jobQueue_;
    size_t runningJobs_ = 0;
    bool executorStop_ = false;

    /** The lanes -> event loop FIFO: Started notices and
     *  results (the ring and subscribers are event-loop-only). */
    mutable std::mutex completionMutex_;
    std::deque<Completion> completions_;

    // --- observability state (event-loop thread only) --------------
    EventRing events_;
    SloTracker slo_;
    uint64_t nextTraceId_ = 1;

    /** Watchdog view of the lanes: the start of each lane's running
     *  job (0 while idle); the event loop swaps a stuck job's stamp
     *  for a flagged marker, so each stuck job is flagged once. */
    std::vector<std::atomic<uint64_t>> laneStartNs_;

    Counters counters_;
};

} // namespace daemon
} // namespace vpprof

#endif // VPPROF_DAEMON_SERVER_HH
