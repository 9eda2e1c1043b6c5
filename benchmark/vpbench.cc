/**
 * @file
 * vpbench: the repository's benchmark. Runs one vpprofd workload under
 * a closed loop of kConnections callers and prints every metric as
 * `<workload> <metric> <value> <unit>`, then one JSON summary line:
 *   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
 *
 *   vpbench --workload W --seed N [--seconds S] [--trace SPANS.json]
 *   vpbench --workload W --seed N --smoke      (2 s, correctness only)
 *
 * README.md describes the workloads, the metrics and the layer each
 * one should move; compare.py repeats runs and compares two builds.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>

#include <malloc.h>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/telemetry/metrics.hh"
#include "common/telemetry/span.hh"
#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "harness.hh"
#include "layers.hh"
#include "report/json.hh"

using namespace vpbench;
using namespace vpprof;
using namespace vpprof::daemon;
namespace fs = std::filesystem;

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** Steady workloads report medians over windows about this long. */
constexpr double kWindowS = 2.5;

/** Distinct job requests the correctness gate recomputes, at most. */
constexpr size_t kGateSample = 24;

/** Trace ids of one load phase live in [k * stride, (k + 1) * stride). */
constexpr uint64_t kPhaseStride = 1'000'000'000;

constexpr double kForever = std::numeric_limits<double>::infinity();

struct Options
{
    std::optional<Mix> workload;
    std::optional<uint64_t> seed;
    double seconds = 30;
    std::string tracePath;
    bool smoke = false;
    std::string workDir;
};

[[noreturn]] void
usage(const std::string &complaint)
{
    std::cerr << "vpbench: " << complaint << "\n"
              << "usage: vpbench --workload "
                 "interactive|evaluate_sweep|cold_start|restart\n"
                 "               --seed N [--seconds S] [--trace FILE]\n"
                 "               [--smoke] [--work-dir DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        auto number = [&](double lo) {
            std::string text = value();
            char *end = nullptr;
            double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(v >= lo))
                usage("bad value for " + arg + ": " + text);
            return v;
        };
        if (arg == "--workload") {
            std::string name = value();
            opt.workload = parseWorkload(name);
            if (!opt.workload)
                usage("unknown workload '" + name + "'");
        } else if (arg == "--seed") {
            opt.seed = static_cast<uint64_t>(number(0));
        } else if (arg == "--seconds") {
            opt.seconds = number(0.5);
        } else if (arg == "--trace") {
            opt.tracePath = value();
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--work-dir") {
            opt.workDir = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!opt.workload || !opt.seed)
        usage("--workload and --seed are required");
    if (opt.smoke && !opt.tracePath.empty())
        usage("--smoke runs untraced");
    if (opt.smoke)
        opt.seconds = 2;
    if (opt.workDir.empty())
        opt.workDir = "vpbench-work." + std::to_string(::getpid());
    return opt;
}

/** Prints each metric as it is added; the summary JSON at the end. */
class Report
{
  public:
    explicit Report(std::string workload) : workload_(std::move(workload))
    {
    }

    void
    add(const Metric &m)
    {
        std::cout << workload_ << " " << m.name << " "
                  << report::formatJsonNumber(m.value) << " " << m.unit
                  << "\n";
        metrics_.push_back(m);
    }

    void
    summary(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted
                  << ", \"failed\": " << failed << ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::cout << (i ? ", " : "")
                      << report::quoteJsonString(metrics_[i].name)
                      << ": {\"value\": "
                      << report::formatJsonNumber(metrics_[i].value)
                      << ", \"unit\": "
                      << report::quoteJsonString(metrics_[i].unit) << "}";
        std::cout << "}}" << std::endl;
    }

  private:
    std::string workload_;
    std::vector<Metric> metrics_;
};

/** Removes the run's working directory (caches, socket) on exit. */
class WorkDir
{
  public:
    explicit WorkDir(fs::path path) : path_(std::move(path))
    {
        if (fs::exists(path_))
            usage("work dir " + path_.string() + " already exists");
        fs::create_directories(path_);
    }

    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string sub(const char *name) const { return (path_ / name).string(); }

  private:
    fs::path path_;
};

std::function<std::optional<Call>(uint64_t)>
listSource(const std::vector<Call> &calls)
{
    return [&calls](uint64_t i) -> std::optional<Call> {
        if (i >= calls.size())
            return std::nullopt;
        return calls[i];
    };
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    if (n == 0)
        return 0;
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Latencies (ms) of the answered requests of one class, ascending. */
std::vector<double>
latenciesMs(const Tally &t, Class cls)
{
    std::vector<double> out;
    for (const Sample &s : t.samples)
        if (s.ok && s.cls == cls)
            out.push_back((s.endS - s.startS) * 1e3);
    std::sort(out.begin(), out.end());
    return out;
}

/** A measured load phase: all of it, and the windows (steady
 *  workloads) or rounds it splits into. */
struct Measured
{
    Tally total;
    std::vector<Tally> parts;
};

/** Split a steady phase that ran [start, start + seconds) into windows
 *  of about kWindowS by answer time; later answers are left out. */
std::vector<Tally>
windows(const Tally &t, double start, double seconds)
{
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds / kWindowS)));
    const double width = seconds / static_cast<double>(n);
    std::vector<Tally> parts(n);
    for (Tally &part : parts)
        part.seconds = width;
    for (const Sample &s : t.samples) {
        const double k = std::floor((s.endS - start) / width);
        if (k < 0 || k >= static_cast<double>(n) || !s.ok)
            continue;
        Tally &part = parts[static_cast<size_t>(k)];
        ++part.ok;
        if (commandIsJob(s.cmd))
            ++part.okJobs;
        part.samples.push_back(s);
    }
    return parts;
}

/** A rate over each part (`count` per second); the median over parts. */
double
medianRate(const Measured &m, uint64_t Tally::*count)
{
    std::vector<double> rates;
    for (const Tally &part : m.parts)
        rates.push_back(static_cast<double>(part.*count) / part.seconds);
    return median(rates);
}

/**
 * Throughput and p50s are medians over the phase's parts, so a few
 * seconds in which the host runs slow move them little; the p95s pool
 * the whole phase, since a part holds too few samples for a tail.
 */
std::vector<Metric>
endToEnd(const Measured &m)
{
    std::vector<Metric> out = {
        {"throughput_rps", medianRate(m, &Tally::ok), "req/s"},
        {"jobs_per_s", medianRate(m, &Tally::okJobs), "jobs/s"},
    };
    for (Class cls : {Class::Inline, Class::Light, Class::Heavy}) {
        std::vector<double> p50s, pooled;
        for (const Tally &part : m.parts) {
            std::vector<double> v = latenciesMs(part, cls);
            if (v.empty())
                continue;
            p50s.push_back(percentile(v, 0.50));
            pooled.insert(pooled.end(), v.begin(), v.end());
        }
        if (pooled.empty())
            continue;
        std::sort(pooled.begin(), pooled.end());
        const std::string name = className(cls);
        out.push_back({name + "_p50_ms", median(p50s), "ms"});
        if (cls != Class::Inline)
            out.push_back({name + "_p95_ms", percentile(pooled, 0.95), "ms"});
        out.push_back({"n_" + name, static_cast<double>(pooled.size()),
                       "count"});
    }
    return out;
}

/**
 * Recompute a seeded sample of the distinct job requests through
 * Dispatcher::execute on a fresh Session over `cache_dir` and compare
 * each result byte for byte with what the daemon answered. Returns
 * the number of mismatches; `checked` receives the sample size.
 */
uint64_t
recheck(const WorkloadSuite &suite, const std::string &cache_dir,
        const ResultBook &book, uint64_t seed, uint64_t *checked)
{
    auto entries = book.distinct();
    shuffle(entries, mixSeed(seed, 4000));
    if (entries.size() > kGateSample)
        entries.resize(kGateSample);

    SessionConfig cfg;
    cfg.jobs = kConnections;
    cfg.traceCacheDir = cache_dir;
    Session session(cfg);
    Dispatcher dispatcher(session, suite);
    std::vector<char> bad(entries.size(), 0);
    session.runner().forEach(entries.size(), [&](size_t i) {
        JobOutcome outcome = dispatcher.execute(entries[i].first);
        bad[i] = !outcome.ok ||
                 "{" + outcome.resultFields + "}" != entries[i].second;
        if (bad[i])
            vpprof_warn("vpbench: ", requestKey(entries[i].first),
                        ": daemon answered ", entries[i].second,
                        ", in-process ", outcome.resultFields);
    });
    *checked = entries.size();
    return static_cast<uint64_t>(std::count(bad.begin(), bad.end(), 1));
}

/** sum/count of a registry histogram between two snapshots, in us. */
double
histogramMeanUs(const telemetry::MetricsSnapshot &before,
                const telemetry::MetricsSnapshot &after,
                const std::string &name)
{
    auto get = [&](const telemetry::MetricsSnapshot &s) {
        auto it = s.histograms.find(name);
        return it == s.histograms.end() ? telemetry::HistogramSnapshot{}
                                        : it->second;
    };
    telemetry::HistogramSnapshot a = get(before), b = get(after);
    uint64_t count = b.count - a.count;
    return count ? static_cast<double>(b.sum - a.sum) /
                       static_cast<double>(count)
                 : 0.0;
}

/** The layer pass's cost of the mix a load phase sent, in us/job. */
double
dispatchMixMeanUs(const Tally &t, const std::vector<Metric> &layers)
{
    auto layer = [&](const char *name) {
        for (const Metric &m : layers)
            if (m.name == name)
                return m.value * 1e3;
        return 0.0;
    };
    double sum = 0;
    uint64_t jobs = 0;
    for (const Sample &s : t.samples) {
        if (!s.ok || !commandIsJob(s.cmd))
            continue;
        ++jobs;
        switch (s.cmd) {
          case Command::Profile:
            sum += layer(s.cls == Class::Light ? "dispatch.profile_memo_ms"
                                               : "dispatch.profile_first_ms");
            break;
          case Command::Evaluate:
            sum += layer("dispatch.evaluate_ms");
            break;
          default:
            sum += layer("dispatch.verify_ms");
            break;
        }
    }
    return jobs ? sum / static_cast<double>(jobs) : 0.0;
}

double
meanJobLatencyUs(const Tally &t)
{
    double sum = 0;
    uint64_t n = 0;
    for (const Sample &s : t.samples) {
        if (s.ok && commandIsJob(s.cmd)) {
            sum += (s.endS - s.startS) * 1e6;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** The tracer's spans as Chrome trace JSON at `path`, committed only
 *  when they parse back with report::parseJson. */
bool
writeSpans(const std::string &path)
{
    std::ostringstream os;
    telemetry::SpanTracer::instance().writeJson(os);
    const std::string text = os.str();
    return report::parseJson(text) && writeFileAtomically(path, text);
}

int
runWorkload(const Options &opt)
{
    const Mix workload = *opt.workload;
    const uint64_t seed = *opt.seed;
    const WorkloadSuite suite;
    const Traffic traffic(workload, seed, suite);
    const WorkDir work(opt.workDir);
    const std::string socket = work.sub("vpbench.sock");
    const std::string cache = work.sub("cache");
    const bool traced = !opt.tracePath.empty();
    telemetry::SpanTracer &tracer = telemetry::SpanTracer::instance();
    Report report(workloadName(workload));

    ResultBook book;
    Tally all;  // counts of everything this run sent
    uint64_t phase = 0;
    auto nextTraceBase = [&] { return ++phase * kPhaseStride; };
    uint64_t next_round = 0;

    // ---- set-up, kSetups times: a fresh daemon over an empty cache
    // profiles every (program, input), which captures each trace into
    // the cache and profiles it. That is the state every workload's load
    // starts from (an evaluate's training profile is then a merge of
    // memoized profiles), and the same work as one cold_start round.
    // setup_s is the median. The last daemon serves the steady
    // workloads; restart's rounds reuse its cache.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
        daemon.reset();
        fs::remove_all(cache);
        const std::vector<Call> calls = traffic.round(next_round++);
        const double t0 = nowS();
        daemon = std::make_unique<Daemon>(socket, cache);
        all.merge(closedLoop(socket, listSource(calls), kForever,
                             nextTraceBase(), book));
        setup_s.push_back(nowS() - t0);
    }
    if (isRoundWorkload(workload))
        daemon.reset();

    // ---- measured load: steady traffic until the deadline, split into
    // windows, or whole rounds (a fresh daemon each). Another round
    // starts while it is expected to end less than half a round past
    // `seconds`. The live heap is read while each daemon is up.
    double heap_mb = 0;
    auto measure = [&](double seconds) {
        Measured m;
        if (!isRoundWorkload(workload)) {
            const double start = nowS();
            m.total = closedLoop(
                socket,
                [&](uint64_t i) { return std::optional(traffic.steady(i)); },
                start + seconds, nextTraceBase(), book);
            heap_mb = std::max(heap_mb, heapInUseMb());
            m.parts = windows(m.total, start, seconds);
            return m;
        }
        while (m.parts.empty() ||
               m.total.seconds * (1 + 0.5 / static_cast<double>(
                                              m.parts.size())) <
                   seconds) {
            if (workload == Mix::ColdStart)
                fs::remove_all(cache);
            const std::vector<Call> calls = traffic.round(next_round++);
            const double t0 = nowS();
            Daemon fresh(socket, cache);
            Tally round = closedLoop(socket, listSource(calls), kForever,
                                     nextTraceBase(), book);
            round.seconds = nowS() - t0;
            heap_mb = std::max(heap_mb, heapInUseMb());
            m.total.merge(round);
            m.total.seconds += round.seconds;
            m.parts.push_back(std::move(round));
        }
        return m;
    };

    // A traced run measures the same traffic twice, tracing off and
    // then on, so the tracing overhead is a difference within one
    // process. Only the second half records spans: the client's around
    // each call and the daemon's own, all tagged with the trace id.
    const Measured measured =
        measure(traced ? opt.seconds / 2 : opt.seconds);
    const double rss_mb = peakRssMb();
    all.merge(measured.total);

    Measured spanned;
    telemetry::MetricsSnapshot before, after;
    if (traced) {
        before = telemetry::snapshotMetrics();
        tracer.enable();
        spanned = measure(opt.seconds / 2);
        tracer.disable();
        after = telemetry::snapshotMetrics();
        all.merge(spanned.total);
    }
    daemon.reset();

    uint64_t checked = 0;
    const uint64_t mismatches =
        recheck(suite, cache, book, seed, &checked);
    const uint64_t failed = all.failed() + mismatches;
    const uint64_t attempted = all.sent + checked;

    if (!traced) {
        report.add({"setup_s", median(setup_s), "s"});
        for (const Metric &m : endToEnd(measured))
            report.add(m);
        report.add({"fail_ratio",
                    static_cast<double>(failed) /
                        static_cast<double>(attempted),
                    "ratio"});
        report.add({"heap_mb", heap_mb, "MB"});
        report.add({"peak_rss_mb", rss_mb, "MB"});
        report.add({isRoundWorkload(workload) ? "rounds" : "windows",
                    static_cast<double>(measured.parts.size()), "count"});
    } else {
        const double rps_off = static_cast<double>(measured.total.ok) /
                               measured.total.seconds;
        const double rps_on = static_cast<double>(spanned.total.ok) /
                              spanned.total.seconds;
        report.add({"trace_overhead_pct",
                    100.0 * (rps_off - rps_on) / rps_off, "%"});

        // The layer pass starts from the state the workload's daemons
        // start from: an empty cache for cold_start, else the warm one.
        const std::string layer_cache =
            workload == Mix::ColdStart ? work.sub("layer-cache") : cache;
        tracer.enable();
        std::vector<Metric> layers =
            layerPass(suite, layer_cache, work.sub("scratch"));
        tracer.disable();

        const double job_us =
            histogramMeanUs(before, after, "daemon.job_latency.us");
        report.add({"server.job_latency_mean_us", job_us, "us"});
        report.add({"server.runner_queue_wait_mean_us",
                    histogramMeanUs(before, after, "runner.queue_wait.us"),
                    "us"});
        report.add({"server.wait_mean_us",
                    job_us - dispatchMixMeanUs(spanned.total, layers), "us"});
        report.add({"server.transport_mean_us",
                    meanJobLatencyUs(spanned.total) - job_us, "us"});
        report.add({"server.rejected",
                    static_cast<double>(spanned.total.rejected), "count"});

        for (const Metric &m :
             protocolPass(traffic, workload, spanned.total.sent, book))
            report.add(m);
        for (const Metric &m : layers)
            report.add(m);

        if (!writeSpans(opt.tracePath)) {
            std::cerr << "vpbench: cannot write spans to "
                      << opt.tracePath << "\n";
            return 1;
        }
    }

    std::cerr << "vpbench: " << workloadName(workload) << " seed " << seed
              << ": " << attempted << " requests checked, " << failed
              << " failed (rejected " << all.rejected << ", errors "
              << all.errors << ", unanswered " << all.unanswered
              << ", wrong " << all.wrong << ", gate mismatches "
              << mismatches << "/" << checked << ")\n";
    report.summary(failed == 0, attempted, failed);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Freed memory stays in the heap for reuse instead of going back to
    // the kernel: on a virtual machine the cost of faulting it back in
    // swings by a third with the host's load, which would otherwise be
    // most of the run-to-run spread. The thresholds are fixed, so both
    // sides of a comparison run with the same allocator behaviour.
    ::mallopt(M_MMAP_THRESHOLD, 1 << 30);
    ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    // Each daemon's drain notice would interleave with the metrics.
    setLogLevel(LogLevel::Warn);
    return runWorkload(parseArgs(argc, argv));
}
