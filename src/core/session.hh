/**
 * @file
 * The trace-once, evaluate-many Session (the SHADE workflow, in
 * process form): a TraceRepository runs the VM exactly once per
 * (workload, input), encoding the dynamic trace into columnar blocks
 * and committing them as a v3 trace file, then replays the mapped
 * file into any number of consumers: classifiers, finite/hybrid table
 * evaluations, the ILP engine, and sampled and phased profiles. The
 * consumer whose call captures a key is fed by the VM directly (the
 * tee), so an evaluator's first pass decodes nothing.
 *
 * An exact phase-2 profile is one pass and needs no replay, so
 * collectProfile runs the VM straight into its collector and never
 * touches the repository: a key that is only profiled is never
 * captured, encoded or committed.
 *
 * Directives are pure metadata (they never change control flow or
 * values), so ONE raw trace serves every annotation threshold: replays
 * rewrite the per-record directive from the consumer's annotated
 * program via DirectiveOverrideSink. A threshold sweep that used to
 * re-interpret the workload dozens of times now interprets it once.
 *
 * All Session entry points are thread-safe; sweep cells running under
 * the ExperimentRunner share one Session freely.
 */

#ifndef VPPROF_CORE_SESSION_HH
#define VPPROF_CORE_SESSION_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/telemetry/metrics.hh"
#include "core/batch_replay.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "profile/sampling/sampling_policy.hh"
#include "vm/trace_io.hh"

namespace vpprof
{

/** Tunables for a Session. */
struct SessionConfig
{
    /** Sweep-cell parallelism (ExperimentRunner width); 0 = #cores. */
    unsigned jobs = 1;

    /**
     * Directory holding persistent trace files for cross-process
     * reuse (the CLI's --trace-cache); replays read the mapped files.
     * Empty: traces live only for this process, each replayed from
     * its in-memory capture buffer.
     */
    std::string traceCacheDir;
};

/**
 * Counters describing how a repository served its consumers, and how
 * it recovered when the filesystem misbehaved. The recovery counters
 * account for every fault the repository absorbed: crash-consistency
 * tests assert them, the CLI prints them under --stats, and the
 * benches record them next to wall times.
 *
 * This struct is a typed snapshot VIEW: the live values are
 * telemetry-backed counters (registry names `trace.*`, see
 * DESIGN.md §10), so --stats, tests, bench JSON and --metrics-out all
 * read one source of truth. stats() reads each counter individually
 * (lock-free); a snapshot taken while another thread is mid-update
 * may be one event stale per counter, but at any quiescent point it
 * is exact.
 */
struct TraceRepoStats
{
    uint64_t vmRuns = 0;        ///< trace-producing VM interpretations
    uint64_t diskLoads = 0;     ///< traces adopted from the cache dir
    /** Deliveries served to consumers, counting a capture that fed
     *  its caller directly (which decodes no block). */
    uint64_t replays = 0;
    uint64_t uniqueTraces = 0;  ///< distinct (workload, input) keys

    /** Unusable cache files renamed aside to `<file>.bad`. */
    uint64_t corruptQuarantined = 0;
    /**
     * Times a trace was re-produced by the VM because a persisted
     * copy was unusable: re-captures after a quarantine and
     * mid-replay fallbacks. These deliberately do NOT count into
     * vmRuns, so the trace-once invariant (vmRuns <= uniqueTraces)
     * keeps holding under faults.
     */
    uint64_t regenerations = 0;
    /** Failed attempts to commit a trace to the cache directory. */
    uint64_t spillFailures = 0;
    /** Mid-replay read errors retried once from disk. */
    uint64_t readRetries = 0;

    /** Columnar (v3) blocks decoded by replays. The decode-
     *  amplification observable — one batched pass decodes each
     *  block once however many evaluators listen. */
    uint64_t v3BlocksDecoded = 0;
    /** Bytes of v3 trace files mapped when adopting cache files. */
    uint64_t v3BytesMapped = 0;

    /**
     * The counters as JSON object members (no surrounding braces):
     * `"vm_runs": N, "disk_loads": N, ...`. The one definition of the
     * snake_case names BENCH_session.json entries and the perf-gate
     * baselines use.
     */
    void writeJsonFields(std::ostream &os) const;
};

/**
 * The stats as one complete JSON object (writeJsonFields wrapped in
 * braces): the single serializer behind `vpprof_cli --stats-json`,
 * the daemon protocol's `stats` response and vpprofd's --stats dump,
 * so the three surfaces can never drift apart.
 */
std::string repoStatsJson(const TraceRepoStats &stats);

/**
 * Owns one cached dynamic trace per (workload, input): produced at
 * most once per process — by the VM, or adopted from a valid file in
 * the persistent cache directory — and replayed read-only thereafter.
 * Thread-safe; concurrent replays of one trace are lock-free.
 *
 * Residency: every trace is one immutable span of v3 blocks. Its
 * bytes are the read-only mapping of the committed cache file — a
 * capture is committed, mapped and its buffer freed; an adopted file
 * is Full-verified and mapped. Only when no file can be committed (no
 * cache directory, a failed commit) does the capture buffer itself
 * own the span. Replays decode straight from the span either way.
 * Committed files are never modified in place (see trace_io.hh);
 * truncating one under a running process is outside that contract
 * and can raise SIGBUS.
 *
 * Failure model (see DESIGN.md §9): the repository never aborts on a
 * sick cache. An unusable cache file (truncated, corrupt, wrong
 * version) is quarantined — renamed to `<file>.bad` — and the trace
 * is regenerated by the VM; quarantined files are never re-probed
 * within a process (each key is produced at most once, and the probe
 * only ever looks at the exact `<workload>.in<N>.trace` name). A
 * span that fails mid-replay is retried once from a Full re-open of
 * its file, resuming past the records the sink already consumed,
 * then falls back to regenerating the tail via the VM — replay is
 * deterministic, so consumers see bit-identical records either way.
 * A failed commit (e.g. ENOSPC) keeps the capture buffer as the
 * span. Captures into a shared cache directory serialize on an
 * advisory `<file>.lock` flock, so concurrent processes sharing one
 * --trace-cache neither duplicate VM work nor race the
 * probe-then-commit sequence.
 */
class TraceRepository
{
  public:
    explicit TraceRepository(const SessionConfig &config);
    ~TraceRepository();

    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /**
     * Replay (workload, input)'s trace into `sink`, producing it first
     * if this is the key's first use. When this call captures the
     * trace, `sink` is fed by the VM as the capture runs and nothing
     * is decoded: a cold key costs one pass. Returns the original run
     * result.
     */
    RunResult replay(const Workload &workload, size_t input_idx,
                     TraceSink *sink);

    /** One shared pass fanned out to several consumers. */
    RunResult replayInto(const Workload &workload, size_t input_idx,
                         const std::vector<TraceSink *> &sinks);

    /**
     * Batched replay: decode each trace block once and fan the SoA
     * view to every evaluator in the bank. The recovery ladder is the
     * record-sink replay's, so fault recovery and bit-identity carry
     * over unchanged. A capture made by this call feeds the bank
     * directly, as replay() feeds its sink.
     */
    RunResult replayBatch(const Workload &workload, size_t input_idx,
                          EvaluatorBank &bank);

    TraceRepoStats stats() const;

    /** VM interpretations performed (the trace-once assertion hook). */
    uint64_t vmRuns() const;

  private:
    struct Entry;

    /** What probing the persistent cache for a key found. */
    enum class AdoptOutcome
    {
        Adopted,     ///< valid file adopted; entry is produced
        Missing,     ///< no usable file (absent/unreadable); capture
        Quarantined, ///< sick file renamed aside; capture (and count)
    };

    /**
     * The key's entry, produced on first use. When this call captures
     * the trace through the VM, `tee` (if not null) receives the
     * capture's record stream and `*teed` is set: the caller has had
     * its replay. Adopted keys, and calls that find the key produced
     * or wait on another thread's capture, leave `*teed` false.
     */
    Entry &producedEntry(const Workload &workload, size_t input_idx,
                         TraceSink *tee, bool *teed);
    /** Adopt or capture the key; true when `tee` saw the capture. */
    bool produce(Entry &entry, const Workload &workload,
                 size_t input_idx, TraceSink *tee);
    AdoptOutcome adoptCacheFile(Entry &entry, const std::string &path);
    /** Commit `trace` at `path` (when non-empty) and make the entry's
     *  span the committed v3 file's mapping, else the buffer. */
    void install(Entry &entry, const std::string &path,
                 ColumnarTrace trace);
    void quarantine(const std::string &path, TraceIoStatus status);
    bool writeTraceFile(const std::string &path,
                        const ColumnarTrace &trace);
    /** Replay the entry's span into `sink` through the recovery
     *  ladder (retry from a Full re-open, then the VM). */
    void replaySpan(Entry &entry, const Workload &workload,
                    size_t input_idx, TraceBlockSink *sink);
    /** The ladder's last rung: re-run the VM and deliver the records
     *  past the `delivered` prefix the sink already has. */
    void regenerate(const Workload &workload, size_t input_idx,
                    TraceBlockSink *sink, uint64_t delivered,
                    TraceIoStatus status);

    /**
     * The live counters behind TraceRepoStats: per-repository values
     * (value() feeds stats()) mirrored into the process-wide
     * telemetry registry under the same `trace.*` names, aggregated
     * across repositories for --metrics-out. Increments are relaxed
     * atomics — no lock on the serving path.
     */
    struct Counters
    {
        telemetry::ScopedCounter vmRuns{"trace.vm_runs"};
        telemetry::ScopedCounter diskLoads{"trace.disk_loads"};
        telemetry::ScopedCounter replays{"trace.replays"};
        telemetry::ScopedCounter uniqueTraces{"trace.unique_traces"};
        telemetry::ScopedCounter corruptQuarantined{
            "trace.corrupt_quarantined"};
        telemetry::ScopedCounter regenerations{"trace.regenerations"};
        telemetry::ScopedCounter spillFailures{"trace.spill_failures"};
        telemetry::ScopedCounter readRetries{"trace.read_retries"};
        telemetry::ScopedCounter v3BlocksDecoded{
            "trace.v3.blocks_decoded"};
        telemetry::ScopedCounter v3BytesMapped{"trace.v3.bytes_mapped"};
    };

    SessionConfig config_;

    mutable std::mutex mutex_;  ///< guards entries_
    std::map<std::pair<std::string, size_t>, std::unique_ptr<Entry>>
        entries_;
    Counters counters_;
};

/**
 * One experiment session: a TraceRepository, an ExperimentRunner, and
 * memoized profile images / merged training profiles on top, exposing
 * replay-backed versions of the experiment pipelines. The free
 * functions in experiment.hh are thin wrappers over a process-wide
 * default Session.
 */
class Session
{
  public:
    explicit Session(SessionConfig config = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const SessionConfig &config() const { return config_; }
    TraceRepository &traces() { return traces_; }
    ExperimentRunner &runner() { return runner_; }

    /** Replay the (workload, input) trace into an arbitrary sink. */
    RunResult runTrace(const Workload &workload, size_t input_idx,
                       TraceSink *sink);

    /** One shared replay pass fanned out to several consumers. */
    RunResult replayInto(const Workload &workload, size_t input_idx,
                         const std::vector<TraceSink *> &sinks);

    /**
     * One batched replay pass: each trace block decodes once and fans
     * out to every evaluator in the bank, with per-slot directive
     * columns replacing the per-record DirectiveOverrideSink copies.
     * The pass delivers the identical record stream a serial replay
     * would — evaluators cannot tell the difference.
     */
    RunResult replayInto(const Workload &workload, size_t input_idx,
                         EvaluatorBank &bank);

    /**
     * Phase-2 profile of one run (the paper's infinite stride/last-
     * value predictor over one pass of the program), memoized per
     * (workload, input). A key's first call runs the VM straight into
     * the collector: no trace is captured, encoded or committed, and
     * the trace repository is never touched, since one pass needs no
     * replay. Concurrent first calls for one key wait on its slot, so
     * the VM runs once per key however many callers race.
     */
    const ProfileImage &collectProfile(const Workload &workload,
                                       size_t input_idx);

    /**
     * Sampled phase-2 profile of one run, collected through the
     * sampled-profiling subsystem: the cached trace is replayed
     * through a SamplingTraceSink decorator into an exact collector —
     * or a memory-bounded SketchProfileCollector when the config asks
     * for one. Memoized per (workload, input, config.cacheKey());
     * exact configs share collectProfile()'s cache. Deterministic for
     * every jobs count: the kept-record set is a pure function of the
     * config and the trace.
     */
    const ProfileImage &collectSampledProfile(
        const Workload &workload, size_t input_idx,
        const SamplingConfig &sampling);

    /** Phase-2 profile split at the workload's phaseSplitPc(). */
    PhasedProfiles collectPhasedProfile(const Workload &workload,
                                        size_t input_idx);

    /**
     * Merged profile over several inputs: one VM pass per input (each
     * memoized), merged in index order. Inputs are profiled in
     * parallel across the runner when jobs > 1; the merge order makes
     * the result independent of the jobs count.
     */
    ProfileImage collectMergedProfile(const Workload &workload,
                                      const std::vector<size_t> &inputs);

    /**
     * The full three-phase methodology against cached traces; the
     * merged training profile is memoized per (workload, inputs) so a
     * threshold sweep re-annotates without re-profiling.
     */
    Program annotatedProgram(const Workload &workload,
                             const std::vector<size_t> &train_inputs,
                             const InserterConfig &config);

    /**
     * Subsection 5.1 classification accuracy over the cached trace,
     * with directives taken from `program` (pass workload.program()
     * for the un-annotated FSM baseline).
     */
    ClassificationAccuracy evaluateClassification(
        const Workload &workload, size_t input_idx,
        const Program &program, Classifier &classifier);

    /** Subsection 5.2 finite-table evaluation over the cached trace. */
    FiniteTableStats evaluateFiniteTable(const Workload &workload,
                                         size_t input_idx,
                                         const Program &program,
                                         VpPolicy policy,
                                         const PredictorConfig &config);

    /** Subsection 5.3 abstract-machine ILP over the cached trace. */
    IlpResult evaluateIlp(const Workload &workload, size_t input_idx,
                          const Program &program,
                          const IlpConfig &ilp_config, VpPolicy policy,
                          const PredictorConfig &predictor_config);

    /** Section 3.2 hybrid two-table evaluation over the cached trace. */
    FiniteTableStats evaluateHybridTable(const Workload &workload,
                                         size_t input_idx,
                                         const Program &program,
                                         const HybridConfig &config);

  private:
    SessionConfig config_;
    TraceRepository traces_;
    ExperimentRunner runner_;

    /** One key's exact profile, computed at most once. */
    struct ProfileSlot;

    std::mutex profileMutex_;  ///< guards the three maps below
    std::map<std::pair<std::string, size_t>, std::unique_ptr<ProfileSlot>>
        profiles_;
    std::map<std::string, ProfileImage> mergedProfiles_;
    /** Keyed by (workload, input, sampling cache key). */
    std::map<std::tuple<std::string, size_t, std::string>, ProfileImage>
        sampledProfiles_;
};

/**
 * The process-wide Session backing the experiment.hh free functions
 * (jobs=1: parallelism is opted into by constructing an explicit
 * Session). Repeated profile/annotation requests across a test or
 * bench process hit its caches instead of re-interpreting workloads.
 */
Session &defaultSession();

} // namespace vpprof

#endif // VPPROF_CORE_SESSION_HH
