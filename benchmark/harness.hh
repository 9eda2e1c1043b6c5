/**
 * @file
 * vpbench's load harness: an in-process vpprofd, the closed-loop
 * client that drives it, the workloads' request streams, and the
 * correctness book every answer is checked against.
 *
 * The daemon runs through its public start/run/requestShutdown API
 * with the vpprofd defaults (2 executor lanes, 1 shard); the clients
 * talk to it over its Unix socket exactly as vpprof_cli does. Nothing
 * inside the libraries is instrumented: every timing here is taken
 * around a public call.
 */

#ifndef VPBENCH_HARNESS_HH
#define VPBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "daemon/protocol.hh"
#include "daemon/server.hh"
#include "workloads/workload.hh"

namespace vpbench
{

/** Concurrent callers: one connection per thread, closed loop. */
constexpr size_t kConnections = 4;

/** Seconds on the steady clock. */
double nowS();

/** Request classes the end-to-end latencies are reported by. */
enum class Class : uint8_t
{
    Inline, ///< ping/stats: answered by the event loop
    Light,  ///< memoized profile: one executor hop
    Heavy,  ///< evaluate/verify, or a first-touch profile
};

const char *className(Class cls);

/** One request the load sends, with the class it is reported in. */
struct Call
{
    vpprof::daemon::Request req;
    Class cls = Class::Inline;
};

/** The four traffic mixes (README.md explains why each exists). */
enum class Mix
{
    Interactive,
    EvaluateSweep,
    ColdStart,
    Restart,
};

const char *workloadName(Mix w);
std::optional<Mix> parseWorkload(const std::string &name);

/** True for the workloads measured as whole daemon-restart rounds. */
inline bool
isRoundWorkload(Mix w)
{
    return w == Mix::ColdStart || w == Mix::Restart;
}

/** Builds a workload's requests; every choice is a function of the
 *  seed, so the same seed gives the same requests in the same order. */
class Traffic
{
  public:
    Traffic(Mix workload, uint64_t seed,
            const vpprof::WorkloadSuite &suite);

    /** Request `index` of the steady (non-round) workloads. */
    Call steady(uint64_t index) const;

    /** One profile of every (program, input), shuffled by `round`: the
     *  profiles an evaluate merges for training, so the first-touch
     *  work a daemon does before it can answer every evaluate. */
    std::vector<Call> round(uint64_t round) const;

    /** Threshold of interactive's `evaluate` requests. */
    static constexpr double kThreshold = 70.0;

  private:
    Call profile(const std::string &workload, size_t input,
                 Class cls) const;

    Mix workload_;
    uint64_t seed_;
    std::vector<std::string> programs_;  ///< suite order
    size_t inputs_ = 0;                  ///< input sets per program
    std::vector<Call> sweep_;            ///< evaluate_sweep request set
};

/** An in-process vpprofd whose event loop runs on its own thread;
 *  destruction drains it gracefully and waits for the loop to end. */
class Daemon
{
  public:
    Daemon(const std::string &socket_path, const std::string &cache_dir);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

  private:
    std::unique_ptr<vpprof::daemon::DaemonServer> server_;
    std::thread loop_;  ///< last: runs server_
};

/** One request as the client saw it. */
struct Sample
{
    double startS = 0;
    double endS = 0;
    vpprof::daemon::Command cmd = vpprof::daemon::Command::Ping;
    Class cls = Class::Inline;
    bool ok = false;
};

/** How a phase of load went. */
struct Tally
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t okJobs = 0;
    uint64_t rejected = 0;   ///< overloaded / quota / draining
    uint64_t errors = 0;     ///< any other daemon error
    uint64_t unanswered = 0; ///< timeout or lost connection
    uint64_t wrong = 0;      ///< answered ok, but the result is wrong
    double seconds = 0;      ///< wall time the phase took
    std::vector<Sample> samples;

    uint64_t failed() const { return rejected + errors + unanswered + wrong; }
    void merge(const Tally &other);
};

/**
 * Every job answer, by request: a repeated request must get a
 * byte-identical `result`, and every verify must report a matching
 * checksum. Thread-safe.
 */
class ResultBook
{
  public:
    /** Record an ok answer's result object; false when it is wrong. */
    bool check(const vpprof::daemon::Request &req,
               const std::string &result);

    /** One entry per distinct job request: request and its result. */
    std::vector<std::pair<vpprof::daemon::Request, std::string>>
    distinct() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string,
             std::pair<vpprof::daemon::Request, std::string>>
        results_;
};

/** The `result` object of an ok response line, as sent. */
std::string resultObject(const std::string &response_line);

/** Where a request maps in the book: cmd, workload, input, threshold. */
std::string requestKey(const vpprof::daemon::Request &req);

/**
 * Closed loop over kConnections connections: each thread takes the
 * next index, sends `next(index)` and waits for its answer. Ends when
 * `next` returns nullopt or, between requests, once `deadline_s` has
 * passed. Request `index` carries trace id `trace_base + index + 1`.
 * While the span tracer is enabled, each call is recorded as a span
 * named `client.<class>` that carries the request's trace id.
 */
Tally closedLoop(const std::string &socket_path,
                 const std::function<std::optional<Call>(uint64_t)> &next,
                 double deadline_s, uint64_t trace_base,
                 ResultBook &book);

/** One measurement, printed as `<workload> <name> <value> <unit>`. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** `sorted` must be ascending; nearest-rank percentile, p in (0, 1]. */
double percentile(const std::vector<double> &sorted, double p);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Heap bytes allocated and not freed, in MB (no fragmentation). */
double heapInUseMb();

/** A deterministic 64-bit mix of (seed, stream) for seeding RNGs. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/** Fisher-Yates shuffle driven by `seed`: the same seed, the same order. */
template <typename T>
void
shuffle(std::vector<T> &items, uint64_t seed)
{
    vpprof::Rng rng(seed);
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

} // namespace vpbench

#endif // VPBENCH_HARNESS_HH
