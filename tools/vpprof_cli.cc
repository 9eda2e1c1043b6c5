/**
 * @file
 * vpprof_cli — command-line driver for the library.
 *
 *   vpprof_cli [flags] <command> [args]   (flags may appear anywhere)
 *
 *   vpprof_cli list
 *   vpprof_cli disasm   <workload>
 *   vpprof_cli run      <workload> [input]
 *   vpprof_cli trace    <workload> <input> <out.trace>
 *   vpprof_cli replay   <trace-file>
 *   vpprof_cli profile  <workload> <input> <out.profile>
 *   vpprof_cli annotate <workload> <profile-file> [threshold]
 *   vpprof_cli classify <workload> [threshold]
 *   vpprof_cli ilp      <workload> [window] [penalty]
 *   vpprof_cli critpath <workload> [input]
 *   vpprof_cli blocks   <workload> [threshold]
 *   vpprof_cli correlate <workload>
 *   vpprof_cli verify   --golden DIR [--results DIR]
 *
 * Commands that analyze workload traces share one Session: the VM runs
 * each (workload, input) at most once per invocation, and with
 * --trace-cache DIR the captured traces persist, so repeated
 * invocations replay from disk instead of re-interpreting.
 *
 * `profile` supports sampled profiling (--sample-rate / --sample-policy
 * / --sample-seed / --sample-burst / --sketch): the trace is replayed
 * through the sampled-profiling subsystem instead of the exact
 * collector. Bad sampling values are hard errors (exit 1), never a
 * silent fall-back to exact profiling.
 *
 * `verify` checks a bench run (RESULTS_*.json + BENCH_*.json in
 * --results, default '.') against the committed golden specs
 * (--golden DIR holding shape/ rule specs and perf/ baselines).
 * Exit 0 = every rule passed and no perf regression; exit 1 =
 * verification failed; structured fatals (exit 1) for setup errors.
 */

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/telemetry/telemetry.hh"
#include "daemon/client.hh"
#include "daemon/retry.hh"
#include "report/verify.hh"
#include "compiler/cfg.hh"
#include "core/evaluators.hh"
#include "core/experiment.hh"
#include "core/session.hh"
#include "ilp/critical_path.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "profile/correlation.hh"
#include "profile/sampling/sampling_policy.hh"
#include "vm/trace_io.hh"

using namespace vpprof;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: vpprof_cli [flags] <command> [args]\n"
                 "flags (accepted before or after the command):\n"
                 "  --jobs N          parallel sweep cells "
                 "(0 = all cores)\n"
                 "  --trace-cache DIR reuse captured traces across "
                 "invocations\n"
                 "  --stats           print trace-repository serving "
                 "+ recovery counters (stderr)\n"
                 "  --stats-json      print the same counters (plus "
                 "log warning\n"
                 "                    counters) as one JSON object "
                 "(stdout)\n"
                 "  --trace-json FILE write a Chrome trace_event "
                 "span timeline (Perfetto-loadable)\n"
                 "  --metrics-out FILE write a metrics snapshot "
                 "(counters/gauges/histograms) as JSON\n"
                 "verification (verify command only):\n"
                 "  --golden DIR      golden specs: shape/*.json rules "
                 "+ perf/BENCH_*.json baselines\n"
                 "  --results DIR     bench output to check "
                 "(default .)\n"
                 "  --require-all     skipped rules (bench not run) "
                 "become failures\n"
                 "  --no-perf         skip the BENCH_* perf gate\n"
                 "  --perf-wall-margin PCT    timing regression "
                 "margin (default 50)\n"
                 "  --perf-counter-margin PCT counter regression "
                 "margin (default 0)\n"
                 "daemon client (daemon-client command only):\n"
                 "  --socket PATH     vpprofd Unix-domain socket, or "
                 "host:port for\n"
                 "                    a daemon serving --listen\n"
                 "  --timeout-ms N    per-attempt round-trip bound "
                 "(default 120000)\n"
                 "  --retries N       attempts on retryable failures "
                 "(default 1 = no retry)\n"
                 "  --backoff-base-ms N  first backoff delay; doubles "
                 "per retry (default 50)\n"
                 "  --deadline-ms N   request deadline_ms AND the total "
                 "retry budget\n"
                 "  --prometheus      metrics: print the Prometheus "
                 "text exposition\n"
                 "  --events SPEC     subscribe: event class "
                 "(lifecycle, the only one)\n"
                 "  --event-sample-rate R  subscribe: deliver ~R of "
                 "lifecycle events (0,1]\n"
                 "  --journal-limit N journal: newest N events only "
                 "(0 = all retained)\n"
                 "  --trace-id N      pin the job's trace id instead "
                 "of minting one\n"
                 "  --max-events N    subscribe: exit 0 after N "
                 "event lines\n"
                 "  --duration-ms N   subscribe: exit 0 after N ms "
                 "of streaming\n"
                 "sampled profiling (profile command only):\n"
                 "  --sample-rate N   observe ~1 in N trace records "
                 "(default 1 = exact)\n"
                 "  --sample-policy P periodic | random | burst "
                 "(default periodic)\n"
                 "  --sample-seed S   PRNG seed for --sample-policy "
                 "random (default 1)\n"
                 "  --sample-burst W  records per burst window "
                 "(default 1024)\n"
                 "  --sketch N        bound collector memory to N hot "
                 "pcs + sketch\n"
                 "commands:\n"
                 "  list                                 workloads\n"
                 "  disasm   <workload>                  disassembly\n"
                 "  run      <workload> [input]          execute + "
                 "verify\n"
                 "  trace    <workload> <input> <file>   capture a "
                 "trace\n"
                 "  trace    --format-stats              per-workload "
                 "fixed-width vs v3 size/blocks\n"
                 "  replay   <file>                      trace stats\n"
                 "  profile  <workload> <input> <file>   profile "
                 "image (sampling flags apply)\n"
                 "  annotate <workload> <file> [thresh]  phase-3 "
                 "pass\n"
                 "  classify <workload> [thresh]         FSM vs "
                 "profile\n"
                 "  ilp      <workload> [window] [pen]   abstract "
                 "machine\n"
                 "  critpath <workload> [input]          critical "
                 "path\n"
                 "  correlate <workload>                 Section 4 "
                 "metrics\n"
                 "  blocks   <workload> [thresh]         basic-block "
                 "schedule\n"
                 "  verify   --golden DIR                golden shape "
                 "checks + perf gate\n"
                 "  daemon-client --socket PATH <cmd> [workload] "
                 "[input] [thresh]\n"
                 "           cmd: ping | profile | evaluate | verify | "
                 "stats | shutdown\n"
                 "                | cancel <target-id> | metrics | "
                 "journal | subscribe;\n"
                 "           prints the daemon's JSON response line on "
                 "stdout\n"
                 "           (subscribe then streams lifecycle event "
                 "lines);\n"
                 "           exit 0 = daemon answered ok, 1 = daemon "
                 "error response,\n"
                 "           3 = transport failure (no daemon answer)\n");
    return 2;
}

const Workload *
findOrDie(const WorkloadSuite &suite, const char *name)
{
    const Workload *w = suite.find(name);
    if (!w)
        vpprof_fatal("unknown workload '", name,
                     "' (try: vpprof_cli list)");
    return w;
}

size_t
inputIndex(const Workload &w, const char *arg)
{
    size_t idx = arg ? static_cast<size_t>(std::atoi(arg)) : 0;
    if (idx >= w.numInputSets())
        vpprof_fatal("input index ", idx, " out of range (workload "
                     "has ", w.numInputSets(), " input sets)");
    return idx;
}

int
cmdList(const WorkloadSuite &suite)
{
    std::printf("%-10s %7s %9s %7s  %s\n", "name", "static",
                "producers", "inputs", "description");
    for (const auto &w : suite.all()) {
        std::printf("%-10s %7zu %9zu %7zu  %s\n",
                    std::string(w->name()).c_str(), w->program().size(),
                    w->program().countValueProducers(),
                    w->numInputSets(),
                    std::string(w->description()).c_str());
    }
    return 0;
}

int
cmdRun(const Workload &w, size_t input)
{
    Machine machine(w.program(), w.input(input));
    CountingTraceSink counts;
    RunResult result = machine.run(&counts, w.maxInstructions());
    int64_t checksum = machine.memory().load(kChecksumAddr);
    int64_t expected = w.referenceChecksum(input);
    std::printf("instructions : %llu\n",
                static_cast<unsigned long long>(
                    result.instructionsExecuted));
    std::printf("  producers  : %llu\n",
                static_cast<unsigned long long>(counts.producers()));
    std::printf("  loads      : %llu\n",
                static_cast<unsigned long long>(counts.loads()));
    std::printf("  stores     : %llu\n",
                static_cast<unsigned long long>(counts.stores()));
    std::printf("  branches   : %llu\n",
                static_cast<unsigned long long>(counts.branches()));
    std::printf("checksum     : %lld (%s)\n",
                static_cast<long long>(checksum),
                checksum == expected ? "matches reference"
                                     : "MISMATCH");
    return checksum == expected ? 0 : 1;
}

int
cmdTrace(Session &session, const Workload &w, size_t input,
         const char *path)
{
    ColumnarTraceBuilder builder;
    session.runTrace(w, input, &builder);
    ColumnarTrace trace = builder.take();
    // The user asked for this exact file: a failed commit (full disk,
    // unwritable directory) is a loud structured error, not a silent
    // success over a missing or torn file.
    TraceIoStatus st = writeColumnarTraceFile(path, trace);
    if (st != TraceIoStatus::Ok)
        vpprof_fatal("cannot write trace file (",
                     traceIoStatusName(st), "): ", path);
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(trace.records), path);
    return 0;
}

/**
 * trace --format-stats: the on-disk economics of the columnar format,
 * per workload. Each input-0 trace is captured through the session
 * (so --trace-cache reuse applies) and its v3 file size (the header
 * plus the encoded blocks, exactly what writeColumnarTraceFile
 * writes) is compared against the size of a fixed-width record stream
 * (16-byte header + 39 bytes/record + 8-byte checksum trailer, the
 * retired v2 layout). Nothing is written to disk.
 */
int
cmdTraceFormatStats(Session &session, const WorkloadSuite &suite)
{
    std::printf("%-10s %12s %7s %12s %12s %8s\n", "workload",
                "records", "blocks", "fixed bytes", "v3 bytes",
                "v3/fixed");
    uint64_t total_records = 0, total_blocks = 0;
    uint64_t total_fixed = 0, total_v3 = 0;
    for (const auto &w : suite.all()) {
        std::string name(w->name());
        ColumnarTraceBuilder builder;
        session.runTrace(*w, 0, &builder);
        ColumnarTrace trace = builder.take();

        uint64_t records = trace.records;
        uint64_t blocks = trace.blocks;
        uint64_t fixed_bytes = 16 + 39 * records + 8;
        uint64_t v3_bytes = kTraceFileHeaderBytes + trace.bytes.size();

        total_records += records;
        total_blocks += blocks;
        total_fixed += fixed_bytes;
        total_v3 += v3_bytes;
        std::printf("%-10s %12llu %7llu %12llu %12llu %7.2fx\n",
                    name.c_str(),
                    static_cast<unsigned long long>(records),
                    static_cast<unsigned long long>(blocks),
                    static_cast<unsigned long long>(fixed_bytes),
                    static_cast<unsigned long long>(v3_bytes),
                    static_cast<double>(v3_bytes) /
                        static_cast<double>(fixed_bytes));
    }
    std::printf("%-10s %12llu %7llu %12llu %12llu %7.2fx\n", "total",
                static_cast<unsigned long long>(total_records),
                static_cast<unsigned long long>(total_blocks),
                static_cast<unsigned long long>(total_fixed),
                static_cast<unsigned long long>(total_v3),
                static_cast<double>(total_v3) /
                    static_cast<double>(total_fixed));
    return 0;
}

int
cmdReplay(const char *path)
{
    TraceIoStatus st = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(path, &st);
    if (!reader)
        vpprof_fatal("cannot read trace file (", traceIoStatusName(st),
                     "): ", path);
    CountingTraceSink counts;
    uint64_t n = reader->replay(&counts);
    if (reader->status() != TraceIoStatus::Ok)
        vpprof_fatal("trace replay failed (",
                     traceIoStatusName(reader->status()), ") after ", n,
                     " of ", reader->recordCount(), " records: ", path);
    std::printf("replayed %llu records: %llu producers, %llu loads, "
                "%llu stores, %llu branches\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(counts.producers()),
                static_cast<unsigned long long>(counts.loads()),
                static_cast<unsigned long long>(counts.stores()),
                static_cast<unsigned long long>(counts.branches()));
    return 0;
}

int
cmdProfile(Session &session, const Workload &w, size_t input,
           const char *path, const SamplingConfig &sampling)
{
    const ProfileImage &image =
        session.collectSampledProfile(w, input, sampling);
    image.saveFile(path);
    if (sampling.isExact())
        std::printf("profiled %zu instructions -> %s\n", image.size(),
                    path);
    else
        std::printf("profiled %zu instructions (sampled %s) -> %s\n",
                    image.size(), sampling.cacheKey().c_str(), path);
    return 0;
}

int
cmdAnnotate(const Workload &w, const char *profile_path,
            const char *threshold_arg)
{
    ProfileImage image = ProfileImage::loadFile(profile_path);
    InserterConfig cfg;
    if (threshold_arg)
        cfg.accuracyThresholdPercent = std::atof(threshold_arg);
    Program program = w.program();
    InsertionStats stats = insertDirectives(program, image, cfg);
    std::printf("threshold %.0f%%: tagged %zu of %zu producers "
                "(%zu stride, %zu last-value)\n",
                cfg.accuracyThresholdPercent, stats.tagged(),
                stats.producers, stats.taggedStride,
                stats.taggedLastValue);
    std::printf("%s", program.disassemble().c_str());
    return 0;
}

int
cmdClassify(Session &session, const Workload &w,
            const char *threshold_arg)
{
    InserterConfig cfg;
    if (threshold_arg)
        cfg.accuracyThresholdPercent = std::atof(threshold_arg);
    Program annotated =
        session.annotatedProgram(w, trainingInputsFor(w, 0), cfg);

    SaturatingClassifier fsm;
    ClassificationAccuracy fsm_acc =
        session.evaluateClassification(w, 0, w.program(), fsm);
    ProfileClassifier prof;
    ClassificationAccuracy prof_acc =
        session.evaluateClassification(w, 0, annotated, prof);

    std::printf("%-32s %10s %12s\n", "", "FSM",
                "profile");
    std::printf("%-32s %9.1f%% %11.1f%%\n", "mispredictions caught",
                fsm_acc.mispredictionAccuracy(),
                prof_acc.mispredictionAccuracy());
    std::printf("%-32s %9.1f%% %11.1f%%\n", "corrects accepted",
                fsm_acc.correctAccuracy(), prof_acc.correctAccuracy());
    return 0;
}

int
cmdIlp(Session &session, const Workload &w, const char *window_arg,
       const char *pen_arg)
{
    IlpConfig mc;
    if (window_arg)
        mc.windowSize = static_cast<size_t>(std::atoi(window_arg));
    if (pen_arg)
        mc.mispredictPenalty =
            static_cast<unsigned>(std::atoi(pen_arg));

    InserterConfig cfg;
    Program annotated =
        session.annotatedProgram(w, trainingInputsFor(w, 0), cfg);

    IlpResult base = session.evaluateIlp(w, 0, w.program(), mc,
                                         VpPolicy::None,
                                         infiniteConfig());
    IlpResult fsm = session.evaluateIlp(w, 0, w.program(), mc,
                                        VpPolicy::Fsm,
                                        paperFiniteConfig(true));
    IlpResult prof = session.evaluateIlp(w, 0, annotated, mc,
                                         VpPolicy::Profile,
                                         paperFiniteConfig(false));
    std::printf("window=%zu penalty=%u\n", mc.windowSize,
                mc.mispredictPenalty);
    std::printf("  no VP        : %.3f\n", base.ilp());
    std::printf("  VP + FSM     : %.3f (%+.1f%%)\n", fsm.ilp(),
                100.0 * (fsm.ilp() / base.ilp() - 1.0));
    std::printf("  VP + profile : %.3f (%+.1f%%)\n", prof.ilp(),
                100.0 * (prof.ilp() / base.ilp() - 1.0));
    return 0;
}

int
cmdCritpath(Session &session, const Workload &w, size_t input)
{
    // Both analyzers consume one fused replay of the cached trace.
    CriticalPathConfig plain;
    CriticalPathAnalyzer base(plain);
    CriticalPathConfig collapsed;
    collapsed.collapseCorrectPredictions = true;
    CriticalPathAnalyzer vp(collapsed);
    session.replayInto(w, input, {&base, &vp});
    CriticalPathResult r1 = base.finish();
    CriticalPathResult r2 = vp.finish();

    std::printf("instructions        : %llu\n",
                static_cast<unsigned long long>(r1.instructions));
    std::printf("critical path       : %llu (dataflow ILP %.2f)\n",
                static_cast<unsigned long long>(r1.pathLength),
                r1.dataflowIlp());
    std::printf("with VP oracle      : %llu (dataflow ILP %.2f, "
                "%.1fx shorter)\n",
                static_cast<unsigned long long>(r2.pathLength),
                r2.dataflowIlp(),
                static_cast<double>(r1.pathLength) /
                    static_cast<double>(r2.pathLength));
    std::printf("hottest path pcs    :");
    for (size_t i = 0; i < r1.members.size() && i < 8; ++i) {
        std::printf(" %llu(x%llu)",
                    static_cast<unsigned long long>(r1.members[i].pc),
                    static_cast<unsigned long long>(
                        r1.members[i].occurrences));
    }
    std::printf("\n");
    return 0;
}

int
cmdBlocks(Session &session, const Workload &w,
          const char *threshold_arg)
{
    InserterConfig cfg;
    cfg.accuracyThresholdPercent =
        threshold_arg ? std::atof(threshold_arg) : 70.0;
    Program annotated =
        session.annotatedProgram(w, trainingInputsFor(w, 0), cfg);

    uint64_t plain = 0, collapsed = 0;
    size_t blocks = 0, tagged_blocks = 0;
    for (const BlockSchedule &s : analyzeSchedules(annotated)) {
        plain += s.chainLength;
        collapsed += s.collapsedChainLength;
        ++blocks;
        tagged_blocks += s.tagged > 0 ? 1 : 0;
    }
    std::printf("basic blocks          : %zu (%zu contain tagged "
                "instructions)\n",
                blocks, tagged_blocks);
    std::printf("aggregate chain length: %llu\n",
                static_cast<unsigned long long>(plain));
    std::printf("with VP-aware schedule: %llu (%.1f%% slack)\n",
                static_cast<unsigned long long>(collapsed),
                100.0 * (1.0 - static_cast<double>(collapsed) /
                                   static_cast<double>(plain)));
    return 0;
}

int
cmdCorrelate(Session &session, const Workload &w)
{
    std::vector<ProfileImage> images(w.numInputSets());
    session.runner().forEach(images.size(), [&](size_t i) {
        images[i] = session.collectProfile(w, i);
    });
    AlignedProfileVectors v = alignAccuracy(images);
    Histogram mmax = decileSpread(maxDistance(v));
    Histogram mavg = decileSpread(averageDistance(v));
    AlignedProfileVectors sv = alignStrideEfficiency(images);
    Histogram savg = decileSpread(averageDistance(sv));

    std::printf("%zu runs, %zu common instructions\n", v.numRuns(),
                v.dimension());
    auto low = [](const Histogram &h) {
        return 100.0 * (h.fraction(0) + h.fraction(1));
    };
    std::printf("M(V)max     low-interval mass: %5.1f%%\n", low(mmax));
    std::printf("M(V)average low-interval mass: %5.1f%%\n", low(mavg));
    std::printf("M(S)average low-interval mass: %5.1f%%\n", low(savg));
    return 0;
}

/**
 * --stats: the trace repository's serving + recovery counters, on
 * stderr so stdout stays machine-readable. The recovery counters
 * (quarantines, regenerations, spill failures, read retries) are how
 * an operator sees that a cache directory is sick even though every
 * run still succeeded.
 */
void
printRepoStats(Session &session)
{
    TraceRepoStats st = session.traces().stats();
    std::fprintf(stderr,
                 "[trace-repo] vm_runs=%llu disk_loads=%llu "
                 "replays=%llu unique_traces=%llu\n"
                 "[trace-repo] corrupt_quarantined=%llu "
                 "regenerations=%llu spill_failures=%llu "
                 "read_retries=%llu\n"
                 "[trace-repo] v3_blocks_decoded=%llu "
                 "v3_bytes_mapped=%llu\n",
                 static_cast<unsigned long long>(st.vmRuns),
                 static_cast<unsigned long long>(st.diskLoads),
                 static_cast<unsigned long long>(st.replays),
                 static_cast<unsigned long long>(st.uniqueTraces),
                 static_cast<unsigned long long>(st.corruptQuarantined),
                 static_cast<unsigned long long>(st.regenerations),
                 static_cast<unsigned long long>(st.spillFailures),
                 static_cast<unsigned long long>(st.readRetries),
                 static_cast<unsigned long long>(st.v3BlocksDecoded),
                 static_cast<unsigned long long>(st.v3BytesMapped));
}

/** Strict unsigned flag value: rejects garbage instead of atoi's 0. */
uint64_t
parseUintFlag(const char *flag, const char *value)
{
    if (!value || !*value)
        vpprof_fatal(flag, " requires an unsigned integer value");
    // strtoull skips leading whitespace and accepts a sign (" -1"
    // wraps to 2^64-1), and saturates out-of-range values: demand a
    // leading digit and reject ERANGE.
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE)
        vpprof_fatal(flag, ": '", value,
                     "' is not an unsigned integer");
    return static_cast<uint64_t>(parsed);
}

/** Strict non-negative percentage flag value. */
double
parsePctFlag(const char *flag, const char *value)
{
    if (!value || !*value)
        vpprof_fatal(flag, " requires a percentage value");
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    if (*end != '\0' || parsed < 0.0)
        vpprof_fatal(flag, ": '", value,
                     "' is not a non-negative percentage");
    return parsed;
}

/** Observability knobs for daemon-client (metrics/journal/subscribe). */
struct DaemonClientOptions
{
    std::string socketPath;
    int timeoutMs = 120'000;
    daemon::RetryPolicy retry;
    uint64_t deadlineMs = 0;
    bool prometheus = false;       ///< metrics: print the text format
    std::string events;            ///< subscribe: event-class filter
    double eventSampleRate = 1.0;  ///< subscribe: delivery fraction
    uint64_t journalLimit = 0;     ///< journal: newest-N bound
    uint64_t traceId = 0;          ///< client-chosen trace id; 0 = mint
    uint64_t maxEvents = 0;        ///< subscribe: stop after N lines
    uint64_t durationMs = 0;       ///< subscribe: stop after N ms
};

/**
 * subscribe: after the daemon acks the subscription, the connection
 * becomes a lifecycle event stream — print each line verbatim until
 * --max-events / --duration-ms is reached (exit 0) or the daemon
 * closes the connection (clean EOF, also exit 0). Read timeouts keep
 * waiting: an idle daemon emits nothing, which is not a failure.
 */
int
streamSubscription(daemon::DaemonClient &client,
                   const DaemonClientOptions &opt)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point start = Clock::now();
    uint64_t printed = 0;
    for (;;) {
        if (opt.maxEvents > 0 && printed >= opt.maxEvents)
            return 0;
        int wait_ms = opt.timeoutMs;
        if (opt.durationMs > 0) {
            auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - start)
                    .count();
            if (elapsed >= static_cast<int64_t>(opt.durationMs))
                return 0;
            wait_ms = static_cast<int>(
                std::min<int64_t>(wait_ms,
                                  static_cast<int64_t>(opt.durationMs) -
                                      elapsed));
        }
        std::optional<std::string> line = client.readLine(wait_ms);
        if (line) {
            std::printf("%s\n", line->c_str());
            std::fflush(stdout);
            ++printed;
            continue;
        }
        if (client.lastReason() == daemon::CallReason::Timeout)
            continue;  // idle stream: keep listening
        if (client.lastReason() == daemon::CallReason::Eof)
            return 0;  // daemon drained: a clean end of stream
        std::fprintf(stderr, "vpprof_cli: subscribe stream: %s\n",
                     client.lastError().c_str());
        return 3;
    }
}

/**
 * daemon-client: one protocol round trip against a running vpprofd
 * (with optional retry/backoff — see daemon/retry.hh for the matrix).
 * The daemon's response line goes to stdout verbatim (it is already
 * one strict-JSON document), so shell pipelines and the CI smoke can
 * parse it directly.
 *
 * Exit status distinguishes WHO failed: 0 = the daemon answered ok,
 * 1 = the daemon answered with an error response (its JSON line is
 * still printed), 3 = transport failure — connect refused, timeout,
 * disconnect — where no daemon answer exists (a structured error line
 * is synthesized so consumers always read valid JSON).
 */
int
cmdDaemonClient(const DaemonClientOptions &opt, int nrest, char **rest)
{
    if (opt.socketPath.empty())
        vpprof_fatal("daemon-client requires --socket PATH");
    if (nrest < 2)
        vpprof_fatal("daemon-client requires a command "
                     "(ping | profile | evaluate | verify | stats | "
                     "shutdown | cancel | metrics | journal | "
                     "subscribe)");
    std::optional<daemon::Command> cmd = daemon::parseCommand(rest[1]);
    if (!cmd)
        vpprof_fatal("unknown daemon command '", rest[1], "'");

    daemon::Request req;
    req.id = 1;
    req.cmd = *cmd;
    req.deadlineMs = opt.deadlineMs;
    req.traceId = opt.traceId;
    if (*cmd == daemon::Command::Cancel) {
        if (nrest < 3)
            vpprof_fatal("daemon command 'cancel' requires the target "
                         "request id");
        req.cancelTarget = parseUintFlag("target", rest[2]);
    } else if (*cmd == daemon::Command::Metrics) {
        req.format = opt.prometheus ? "prometheus" : "json";
    } else if (*cmd == daemon::Command::Journal) {
        req.limit = opt.journalLimit;
    } else if (*cmd == daemon::Command::Subscribe) {
        req.subEvents = opt.events;
        req.sampleRate = opt.eventSampleRate;
    } else {
        req.workload = nrest > 2 ? rest[2] : "";
        if (daemon::commandIsJob(*cmd) && req.workload.empty())
            vpprof_fatal("daemon command '", rest[1],
                         "' requires a workload");
        req.input = nrest > 3
                        ? static_cast<size_t>(
                              parseUintFlag("input", rest[3]))
                        : 0;
        req.threshold = nrest > 4 ? std::atof(rest[4]) : 70.0;
    }

    daemon::DaemonClient client;
    std::string error;
    if (!client.connect(opt.socketPath, &error)) {
        // Connect refused/missing socket is a transport failure, not
        // a daemon verdict: synthesized JSON line + exit 3.
        std::fprintf(stderr, "vpprof_cli: daemon-client: %s\n",
                     error.c_str());
        std::printf("%s\n",
                    daemon::errorResponseLine(
                        1, daemon::ErrorCode::Internal,
                        "disconnected: " + error)
                        .c_str());
        return 3;
    }
    daemon::CallResult result =
        client.callWithRetry(req, opt.retry, opt.timeoutMs);
    if (result.raw.empty()) {
        // Transport failure: no response line to print; synthesize a
        // structured one so consumers always read valid JSON.
        std::printf("%s\n",
                    daemon::errorResponseLine(
                        1, daemon::ErrorCode::Internal,
                        result.code + ": " + result.error)
                        .c_str());
        return 3;
    }
    if (result.ok && *cmd == daemon::Command::Metrics &&
        opt.prometheus) {
        // --prometheus unwraps the exposition text: raw scrape-ready
        // output instead of a JSON envelope around it.
        const report::JsonValue *res = result.response.get("result");
        const report::JsonValue *text = res ? res->get("text") : nullptr;
        if (text && text->isString()) {
            std::fputs(text->asString().c_str(), stdout);
            return 0;
        }
        // Shape surprise (e.g. daemon older than this client): fall
        // through to the raw line so the caller sees what arrived.
    }
    std::printf("%s\n", result.raw.c_str());
    std::fflush(stdout);
    if (!result.ok)
        return 1;
    if (*cmd == daemon::Command::Subscribe) {
        bool subscribed = false;
        if (const report::JsonValue *res = result.response.get("result"))
            if (const report::JsonValue *s = res->get("subscribed"))
                subscribed = s->isBool() && s->asBool();
        if (!subscribed)
            return 0;  // the daemon declined: ack printed, done
        return streamSubscription(client, opt);
    }
    return 0;
}

int
cmdVerify(const report::VerifyOptions &options)
{
    if (options.goldenDir.empty())
        vpprof_fatal("verify requires --golden DIR (the committed "
                     "golden/ directory)");
    report::VerifyReport rep = report::runVerify(options);
    std::printf("%s", report::renderVerifyReport(rep).c_str());
    return rep.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    SessionConfig session_cfg;
    SamplingConfig sampling;
    bool policy_given = false, sampling_given = false;
    bool show_stats = false;
    bool show_stats_json = false;
    bool format_stats = false;
    DaemonClientOptions daemon_opts;
    daemon_opts.retry.maxAttempts = 1;  // no retry unless --retries asks
    std::string trace_json_path, metrics_out_path;
    report::VerifyOptions verify_opts;

    // Flags may appear before or after the command; positionals keep
    // their relative order. Bad flag values are structured fatal
    // errors (nonzero exit), never silently ignored.
    std::vector<char *> positional;
    for (int arg = 1; arg < argc; ++arg) {
        std::string flag = argv[arg];
        if (flag.rfind("--", 0) != 0) {
            positional.push_back(argv[arg]);
            continue;
        }
        const char *value = arg + 1 < argc ? argv[arg + 1] : nullptr;
        if (flag == "--jobs") {
            session_cfg.jobs = static_cast<unsigned>(
                parseUintFlag("--jobs", value));
        } else if (flag == "--trace-cache") {
            if (!value)
                vpprof_fatal("--trace-cache requires a directory");
            session_cfg.traceCacheDir = value;
        } else if (flag == "--stats") {
            show_stats = true;
            continue;  // boolean flag: no value to consume
        } else if (flag == "--stats-json") {
            show_stats_json = true;
            continue;  // boolean flag: no value to consume
        } else if (flag == "--socket") {
            if (!value)
                vpprof_fatal("--socket requires a path");
            daemon_opts.socketPath = value;
        } else if (flag == "--timeout-ms") {
            daemon_opts.timeoutMs = static_cast<int>(
                parseUintFlag("--timeout-ms", value));
        } else if (flag == "--retries") {
            daemon_opts.retry.maxAttempts = static_cast<size_t>(
                parseUintFlag("--retries", value));
            if (daemon_opts.retry.maxAttempts == 0)
                vpprof_fatal("--retries must be >= 1 (got 0)");
        } else if (flag == "--backoff-base-ms") {
            daemon_opts.retry.backoffBaseMs =
                parseUintFlag("--backoff-base-ms", value);
        } else if (flag == "--deadline-ms") {
            // One deadline, both ends: the request's deadline_ms (the
            // daemon refuses to serve it late) and the client's total
            // retry budget (no retry is planned past it).
            daemon_opts.deadlineMs =
                parseUintFlag("--deadline-ms", value);
            daemon_opts.retry.deadlineBudgetMs = daemon_opts.deadlineMs;
        } else if (flag == "--prometheus") {
            daemon_opts.prometheus = true;
            continue;  // boolean flag: no value to consume
        } else if (flag == "--events") {
            if (!value)
                vpprof_fatal("--events requires a class list "
                             "(lifecycle)");
            daemon_opts.events = value;
        } else if (flag == "--event-sample-rate") {
            if (!value)
                vpprof_fatal("--event-sample-rate requires a value "
                             "in (0, 1]");
            char *end = nullptr;
            double parsed = std::strtod(value, &end);
            if (*end != '\0' || parsed <= 0.0 || parsed > 1.0)
                vpprof_fatal("--event-sample-rate: '", value,
                             "' is not a number in (0, 1]");
            daemon_opts.eventSampleRate = parsed;
        } else if (flag == "--journal-limit") {
            daemon_opts.journalLimit =
                parseUintFlag("--journal-limit", value);
        } else if (flag == "--trace-id") {
            // Pin the response's trace id instead of letting the
            // daemon mint one: responses become byte-comparable
            // across daemons and connections.
            daemon_opts.traceId =
                parseUintFlag("--trace-id", value);
        } else if (flag == "--max-events") {
            daemon_opts.maxEvents =
                parseUintFlag("--max-events", value);
        } else if (flag == "--duration-ms") {
            daemon_opts.durationMs =
                parseUintFlag("--duration-ms", value);
        } else if (flag == "--format-stats") {
            format_stats = true;
            continue;  // boolean flag: no value to consume
        } else if (flag == "--trace-json") {
            if (!value)
                vpprof_fatal("--trace-json requires a file path");
            trace_json_path = value;
        } else if (flag == "--metrics-out") {
            if (!value)
                vpprof_fatal("--metrics-out requires a file path");
            metrics_out_path = value;
        } else if (flag == "--golden") {
            if (!value)
                vpprof_fatal("--golden requires a directory");
            verify_opts.goldenDir = value;
        } else if (flag == "--results") {
            if (!value)
                vpprof_fatal("--results requires a directory");
            verify_opts.resultsDir = value;
        } else if (flag == "--require-all") {
            verify_opts.requireAll = true;
            continue;  // boolean flag: no value to consume
        } else if (flag == "--no-perf") {
            verify_opts.perfGate = false;
            continue;  // boolean flag: no value to consume
        } else if (flag == "--perf-wall-margin") {
            verify_opts.perf.wallMarginPct =
                parsePctFlag("--perf-wall-margin", value);
        } else if (flag == "--perf-counter-margin") {
            verify_opts.perf.counterMarginPct =
                parsePctFlag("--perf-counter-margin", value);
        } else if (flag == "--sample-rate") {
            sampling.rate = parseUintFlag("--sample-rate", value);
            if (sampling.rate == 0)
                vpprof_fatal("--sample-rate must be >= 1 (got 0)");
            sampling_given = true;
        } else if (flag == "--sample-policy") {
            if (!value)
                vpprof_fatal("--sample-policy requires a value "
                             "(periodic | random | burst)");
            auto parsed = parseSamplingPolicy(value);
            if (!parsed)
                vpprof_fatal("unknown sampling policy '", value,
                             "' (expected periodic, random or burst)");
            sampling.policy = *parsed;
            policy_given = true;
            sampling_given = true;
        } else if (flag == "--sample-seed") {
            sampling.seed = parseUintFlag("--sample-seed", value);
            sampling_given = true;
        } else if (flag == "--sample-burst") {
            sampling.burstLen = parseUintFlag("--sample-burst", value);
            if (sampling.burstLen == 0)
                vpprof_fatal("--sample-burst must be >= 1 (got 0)");
            sampling_given = true;
        } else if (flag == "--sketch") {
            sampling.sketchCapacity = static_cast<size_t>(
                parseUintFlag("--sketch", value));
            if (sampling.sketchCapacity == 0)
                vpprof_fatal("--sketch must be >= 1 (got 0)");
            sampling_given = true;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            return usage();
        }
        ++arg;  // skip the consumed value
    }
    // --sample-rate N alone means periodic 1-in-N.
    if (sampling_given && !policy_given &&
        sampling.policy == SamplingPolicy::Exact)
        sampling.policy = SamplingPolicy::Periodic;
    if (auto complaint = sampling.validate())
        vpprof_fatal("invalid sampling flags: ", *complaint);

    // Env first, flags second: explicit flags override
    // VPPROF_TRACE_JSON / VPPROF_METRICS_OUT.
    telemetry::autoConfigureFromEnv();
    telemetry::configureOutputs(trace_json_path, metrics_out_path);

    if (positional.empty())
        return usage();
    std::string cmd = positional[0];
    // rest[1] = first command operand, mirroring the old argv layout.
    char **rest = positional.data();
    int nrest = static_cast<int>(positional.size());

    WorkloadSuite suite;
    Session session(session_cfg);

    // Dispatch through a lambda so --stats can report the session's
    // trace-repository counters after whichever command ran.
    auto dispatch = [&]() -> int {
        if (cmd == "list")
            return cmdList(suite);
        if (cmd == "verify")
            return cmdVerify(verify_opts);
        if (cmd == "daemon-client")
            return cmdDaemonClient(daemon_opts, nrest, rest);
        if (cmd == "trace" && format_stats)
            return cmdTraceFormatStats(session, suite);
        if (nrest < 2)
            return usage();

        if (cmd == "replay")
            return cmdReplay(rest[1]);

        const Workload *w = findOrDie(suite, rest[1]);
        if (cmd == "disasm") {
            std::printf("%s", w->program().disassemble().c_str());
            return 0;
        }
        if (cmd == "run")
            return cmdRun(*w,
                          inputIndex(*w,
                                     nrest > 2 ? rest[2] : nullptr));
        if (cmd == "trace" && nrest >= 4)
            return cmdTrace(session, *w, inputIndex(*w, rest[2]),
                            rest[3]);
        if (cmd == "profile" && nrest >= 4)
            return cmdProfile(session, *w, inputIndex(*w, rest[2]),
                              rest[3], sampling);
        if (cmd == "annotate" && nrest >= 3)
            return cmdAnnotate(*w, rest[2],
                               nrest > 3 ? rest[3] : nullptr);
        if (cmd == "classify")
            return cmdClassify(session, *w,
                               nrest > 2 ? rest[2] : nullptr);
        if (cmd == "ilp")
            return cmdIlp(session, *w, nrest > 2 ? rest[2] : nullptr,
                          nrest > 3 ? rest[3] : nullptr);
        if (cmd == "critpath")
            return cmdCritpath(
                session, *w,
                inputIndex(*w, nrest > 2 ? rest[2] : nullptr));
        if (cmd == "correlate")
            return cmdCorrelate(session, *w);
        if (cmd == "blocks")
            return cmdBlocks(session, *w,
                             nrest > 2 ? rest[2] : nullptr);
        return usage();
    };

    int rc = dispatch();
    if (show_stats)
        printRepoStats(session);
    // Machine-readable stats: the exact trace serializer the daemon's
    // `stats` command uses (its "trace" member), plus the same "log"
    // warning counters, so scripts parse one schema everywhere.
    if (show_stats_json)
        std::printf("{\"log\": {\"warnings_emitted\": %llu, "
                    "\"warnings_suppressed\": %llu}, \"trace\": %s}\n",
                    static_cast<unsigned long long>(warningsEmitted()),
                    static_cast<unsigned long long>(
                        warningsSuppressed()),
                    repoStatsJson(session.traces().stats()).c_str());
    return rc;
}
