#include "core/session.hh"

#include <filesystem>
#include <optional>
#include <sstream>

#include "common/file_lock.hh"
#include "common/logging.hh"
#include "common/telemetry/telemetry.hh"
#include "core/evaluators.hh"
#include "ilp/dataflow_engine.hh"
#include "predictors/stride_predictor.hh"
#include "profile/profile_collector.hh"
#include "profile/sampling/sketch_collector.hh"
#include "vm/trace_io.hh"

namespace vpprof
{

namespace fs = std::filesystem;

struct TraceRepository::Entry
{
    std::mutex produceMutex;
    std::atomic<bool> produced{false};

    // Immutable once `produced` is set (release-published): replays
    // read these concurrently without locks.
    /** The whole trace as encoded blocks, owned by `file` or `buffer`. */
    ColumnarSpan span;
    /** The committed file at `path` whose mapping holds the span. */
    std::unique_ptr<TraceFileReader> file;
    /** The capture when no file could be committed. */
    ColumnarTrace buffer;
    std::string path;  ///< empty unless `file` is set
    RunResult result;
    /** Set when a replay quarantined `file`: its mapping would fail at
     *  the same block again, so later replays go straight to the VM. */
    std::atomic<bool> sick{false};
};

namespace
{

/** Persistent cache-file name for a (workload, input) pair. */
std::string
traceFileName(const std::string &workload, size_t input_idx)
{
    std::ostringstream os;
    os << workload << ".in" << input_idx << ".trace";
    return os.str();
}

} // namespace

TraceRepository::TraceRepository(const SessionConfig &config)
    : config_(config)
{
    if (!config_.traceCacheDir.empty()) {
        std::error_code ec;
        fs::create_directories(config_.traceCacheDir, ec);
        if (ec)
            vpprof_fatal("cannot create trace cache directory '",
                         config_.traceCacheDir, "': ", ec.message());
    }
}

TraceRepository::~TraceRepository() = default;

TraceRepository::Entry &
TraceRepository::producedEntry(const Workload &workload,
                               size_t input_idx, TraceSink *tee,
                               bool *teed)
{
    Entry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto key =
            std::make_pair(std::string(workload.name()), input_idx);
        auto [it, inserted] = entries_.try_emplace(key);
        if (inserted) {
            it->second = std::make_unique<Entry>();
            counters_.uniqueTraces.add();
        }
        entry = it->second.get();
    }
    if (!entry->produced.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(entry->produceMutex);
        if (!entry->produced.load(std::memory_order_relaxed)) {
            *teed = produce(*entry, workload, input_idx, tee);
            entry->produced.store(true, std::memory_order_release);
        }
    }
    return *entry;
}

void
TraceRepository::quarantine(const std::string &path,
                            TraceIoStatus status)
{
    // Rename the sick file aside so the evidence survives for a
    // post-mortem and the next probe sees a clean miss; `.bad` files
    // are never probed (lookups only ever use the exact trace name).
    std::string bad = path + ".bad";
    std::error_code ec;
    fs::rename(path, bad, ec);
    if (ec)
        fs::remove(path, ec);  // last resort: clear the slot
    counters_.corruptQuarantined.add();
    // Diagnostic, not fatal — and rate-limited: a sweep touching a
    // damaged cache directory hits this once per trace file, and
    // stdout consumers (bench JSON, CLI pipelines) must never see
    // these lines interleaved into their output.
    vpprof_warn_limited(8, "quarantined unusable trace cache file ",
                        path, " (", traceIoStatusName(status),
                        "); regenerating");
}

TraceRepository::AdoptOutcome
TraceRepository::adoptCacheFile(Entry &entry, const std::string &path)
{
    VPPROF_TIMED_SPAN("trace.adopt");
    // Adopt a valid file captured by an earlier process; any
    // malformed file (truncated writer, foreign bytes, flipped bits,
    // a format version other than 3) is a structured miss, never a
    // crash or a short replay — it is quarantined and the trace
    // re-captured.
    TraceIoStatus status = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(path, &status);
    if (!reader) {
        if (status == TraceIoStatus::IoError)
            return AdoptOutcome::Missing;
        quarantine(path, status);
        return AdoptOutcome::Quarantined;
    }

    counters_.v3BytesMapped.add(reader->mappedBytes());
    entry.result.instructionsExecuted = reader->recordCount();
    entry.result.halted = true;
    // The verified mapping IS the replay source: no copy.
    entry.span = reader->span();
    entry.file = std::move(reader);
    entry.path = path;
    counters_.diskLoads.add();
    return AdoptOutcome::Adopted;
}

bool
TraceRepository::writeTraceFile(const std::string &path,
                                const ColumnarTrace &trace)
{
    VPPROF_TIMED_SPAN("trace.commit");
    // The capture is already encoded: persisting is a framed buffer
    // write, not a second per-record encode.
    TraceIoStatus st = writeColumnarTraceFile(path, trace);
    if (st == TraceIoStatus::Ok)
        return true;
    counters_.spillFailures.add();
    vpprof_warn_limited(8, "cannot persist trace to ", path, " (",
                        traceIoStatusName(st),
                        "); continuing without the file");
    return false;
}

void
TraceRepository::install(Entry &entry, const std::string &path,
                         ColumnarTrace trace)
{
    if (!path.empty() && writeTraceFile(path, trace)) {
        // We produced those bytes through the checksumming writer:
        // the framing walk is proof enough for this process.
        auto file = TraceFileReader::tryOpen(path, nullptr,
                                             TraceVerify::HeaderOnly);
        if (file) {
            entry.span = file->span();
            entry.file = std::move(file);
            entry.path = path;
            return;  // `trace` is freed: the mapping serves replays
        }
    }
    entry.buffer = std::move(trace);
    entry.span = entry.buffer.span();
}

bool
TraceRepository::produce(Entry &entry, const Workload &workload,
                         size_t input_idx, TraceSink *tee)
{
    std::string name(workload.name());
    std::string cachePath;
    std::optional<ScopedFileLock> cacheLock;
    bool quarantined = false;
    if (!config_.traceCacheDir.empty()) {
        cachePath = config_.traceCacheDir + "/" +
                    traceFileName(name, input_idx);
        // Advisory cross-process lock around probe + capture +
        // commit: a sibling process sharing this cache directory
        // either finishes its capture first (we adopt it) or blocks
        // until ours is committed. Readers never need the lock —
        // commits are atomic renames.
        {
            VPPROF_TIMED_SPAN("trace.lock_wait");
            cacheLock.emplace(cachePath + ".lock");
        }
        switch (adoptCacheFile(entry, cachePath)) {
          case AdoptOutcome::Adopted:
            return false;
          case AdoptOutcome::Quarantined:
            quarantined = true;
            break;
          case AdoptOutcome::Missing:
            break;
        }
    }

    // First use in any process (or the cached copy was unusable):
    // interpret the workload once, encoding columnar blocks as the
    // records stream out — the capture is never held as AoS records.
    // The tee sees the same stream the committed blocks replay (the
    // encoding is lossless), so its caller needs no replay.
    ColumnarTraceBuilder builder;
    MultiTraceSink both;
    both.addSink(&builder);
    if (tee)
        both.addSink(tee);
    {
        VPPROF_TIMED_SPAN("trace.capture");
        entry.result = runProgram(workload.program(),
                                  workload.input(input_idx), &both,
                                  workload.maxInstructions());
    }
    counters_.vmRuns.add();
    if (quarantined)
        counters_.regenerations.add();
    install(entry, cachePath, builder.take());
    return tee != nullptr;
}

void
TraceRepository::replaySpan(Entry &entry, const Workload &workload,
                            size_t input_idx, TraceBlockSink *sink)
{
    // The sink cannot un-consume records, so every recovery step
    // below resumes exactly past the `delivered` prefix — consumers
    // see one contiguous, bit-exact trace however many attempts it
    // took.
    VPPROF_TIMED_SPAN("trace.replay");
    if (entry.sick.load(std::memory_order_acquire)) {
        // Checksum mismatch is the only status that quarantines.
        regenerate(workload, input_idx, sink, 0,
                   TraceIoStatus::ChecksumMismatch);
        return;
    }
    // Pcs index the program: a block naming a pc past its end is
    // refused before any consumer sees it.
    const uint64_t pcLimit = workload.program().size();
    TraceBlockScratch scratch;
    uint64_t delivered = 0, blocks = 0;
    TraceIoStatus status = replayTraceSpan(entry.span, 0, scratch, sink,
                                           &delivered, &blocks, pcLimit);
    counters_.v3BlocksDecoded.add(blocks);
    if (status == TraceIoStatus::Ok)
        return;

    // Mid-replay failure: the mapped bytes stopped decoding (or an
    // injected fault fired). Retry once from a fresh, fully verified
    // mapping of the file, skipping the prefix the sink already has...
    if (!entry.path.empty()) {
        counters_.readRetries.add();
        vpprof_warn_limited(8, "trace replay of ", entry.path,
                            " failed (", traceIoStatusName(status),
                            ") after ", delivered,
                            " records; retrying from disk");
        auto retry = TraceFileReader::tryOpen(entry.path, &status,
                                              TraceVerify::Full);
        if (retry) {
            blocks = 0;
            status = replayTraceSpan(retry->span(), delivered, scratch,
                                     sink, &delivered, &blocks, pcLimit);
            counters_.v3BlocksDecoded.add(blocks);
            if (status == TraceIoStatus::Ok)
                return;
            // The file passed its checksums yet a block still does
            // not decode (or names pcs outside the program): it is
            // sick in a way validation cannot see, so no later
            // process may adopt it.
            if (status == TraceIoStatus::ChecksumMismatch) {
                quarantine(entry.path, status);
                entry.sick.store(true, std::memory_order_release);
            }
        }
    }

    // ...then regenerate via the VM.
    regenerate(workload, input_idx, sink, delivered, status);
}

void
TraceRepository::regenerate(const Workload &workload, size_t input_idx,
                            TraceBlockSink *sink, uint64_t delivered,
                            TraceIoStatus status)
{
    // Interpretation is deterministic, so the regenerated records past
    // `delivered` are the records the span would have held.
    counters_.regenerations.add();
    vpprof_warn_limited(8, "trace for ", workload.name(), ".in",
                        input_idx, " is unreadable (",
                        traceIoStatusName(status),
                        "); regenerating the replay via the VM");
    VPPROF_TIMED_SPAN("trace.regenerate");
    BlockAssembler assembler(sink);
    uint64_t seen = 0;
    CallbackTraceSink skipper([&](const TraceRecord &rec) {
        if (seen++ >= delivered)
            assembler.record(rec);
    });
    runProgram(workload.program(), workload.input(input_idx), &skipper,
               workload.maxInstructions());
    assembler.flush();
}

RunResult
TraceRepository::replay(const Workload &workload, size_t input_idx,
                        TraceSink *sink)
{
    bool teed = false;
    Entry &entry = producedEntry(workload, input_idx, sink, &teed);
    if (sink && !teed) {
        RecordFanBlockSink fan(sink);
        replaySpan(entry, workload, input_idx, &fan);
    }
    counters_.replays.add();
    return entry.result;
}

RunResult
TraceRepository::replayBatch(const Workload &workload, size_t input_idx,
                             EvaluatorBank &bank)
{
    // A capture made by this call feeds the bank through the
    // assembler, re-blocked as the VM regeneration of a failed replay
    // is.
    BlockAssembler assembler(&bank);
    bool teed = false;
    Entry &entry = producedEntry(workload, input_idx, &assembler, &teed);
    if (teed)
        assembler.flush();
    else
        replaySpan(entry, workload, input_idx, &bank);
    counters_.replays.add();
    return entry.result;
}

RunResult
TraceRepository::replayInto(const Workload &workload, size_t input_idx,
                            const std::vector<TraceSink *> &sinks)
{
    MultiTraceSink fan;
    for (TraceSink *sink : sinks)
        fan.addSink(sink);
    return replay(workload, input_idx, &fan);
}

TraceRepoStats
TraceRepository::stats() const
{
    // Typed snapshot over the per-instance counters. Each field is an
    // independent relaxed load: monotone counters make the view at
    // worst one event stale per field, never torn — same guarantee the
    // registry snapshot gives (and no mutex on the readers' side).
    TraceRepoStats s;
    s.vmRuns = counters_.vmRuns.value();
    s.diskLoads = counters_.diskLoads.value();
    s.replays = counters_.replays.value();
    s.uniqueTraces = counters_.uniqueTraces.value();
    s.corruptQuarantined = counters_.corruptQuarantined.value();
    s.regenerations = counters_.regenerations.value();
    s.spillFailures = counters_.spillFailures.value();
    s.readRetries = counters_.readRetries.value();
    s.v3BlocksDecoded = counters_.v3BlocksDecoded.value();
    s.v3BytesMapped = counters_.v3BytesMapped.value();
    return s;
}

uint64_t
TraceRepository::vmRuns() const
{
    return counters_.vmRuns.value();
}

void
TraceRepoStats::writeJsonFields(std::ostream &os) const
{
    os << "\"vm_runs\": " << vmRuns
       << ", \"disk_loads\": " << diskLoads
       << ", \"replays\": " << replays
       << ", \"unique_traces\": " << uniqueTraces
       << ", \"corrupt_quarantined\": " << corruptQuarantined
       << ", \"regenerations\": " << regenerations
       << ", \"spill_failures\": " << spillFailures
       << ", \"read_retries\": " << readRetries
       << ", \"v3_blocks_decoded\": " << v3BlocksDecoded
       << ", \"v3_bytes_mapped\": " << v3BytesMapped;
}

std::string
repoStatsJson(const TraceRepoStats &stats)
{
    std::ostringstream os;
    os << "{";
    stats.writeJsonFields(os);
    os << "}";
    return os.str();
}

Session::Session(SessionConfig config)
    : config_(config),
      traces_(config),
      runner_(config.jobs)
{
}

Session::~Session() = default;

RunResult
Session::runTrace(const Workload &workload, size_t input_idx,
                  TraceSink *sink)
{
    return traces_.replay(workload, input_idx, sink);
}

RunResult
Session::replayInto(const Workload &workload, size_t input_idx,
                    const std::vector<TraceSink *> &sinks)
{
    return traces_.replayInto(workload, input_idx, sinks);
}

RunResult
Session::replayInto(const Workload &workload, size_t input_idx,
                    EvaluatorBank &bank)
{
    return traces_.replayBatch(workload, input_idx, bank);
}

struct Session::ProfileSlot
{
    std::mutex computeMutex;
    std::atomic<bool> computed{false};
    /** Immutable once `computed` is set (release-published). */
    ProfileImage image;
};

const ProfileImage &
Session::collectProfile(const Workload &workload, size_t input_idx)
{
    ProfileSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto &entry = profiles_[std::make_pair(
            std::string(workload.name()), input_idx)];
        if (!entry)
            entry = std::make_unique<ProfileSlot>();
        slot = entry.get();
    }
    if (!slot->computed.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(slot->computeMutex);
        if (!slot->computed.load(std::memory_order_relaxed)) {
            VPPROF_TIMED_SPAN("profile.collect");
            ProfileCollector collector(std::string(workload.name()));
            runProgram(workload.program(), workload.input(input_idx),
                       collector, workload.maxInstructions());
            slot->image = collector.takeImage();
            slot->computed.store(true, std::memory_order_release);
        }
    }
    return slot->image;
}

const ProfileImage &
Session::collectSampledProfile(const Workload &workload,
                               size_t input_idx,
                               const SamplingConfig &sampling)
{
    if (auto complaint = sampling.validate())
        vpprof_fatal("invalid sampling config: ", *complaint);
    if (sampling.isExact())
        return collectProfile(workload, input_idx);

    auto key = std::make_tuple(std::string(workload.name()), input_idx,
                               sampling.cacheKey());
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto it = sampledProfiles_.find(key);
        if (it != sampledProfiles_.end())
            return it->second;
    }

    VPPROF_TIMED_SPAN("profile.collect_sampled");
    ProfileImage image;
    if (sampling.sketchCapacity > 0) {
        SketchConfig sketch_cfg;
        sketch_cfg.capacity = sampling.sketchCapacity;
        SketchProfileCollector collector(std::string(workload.name()),
                                         sketch_cfg);
        SamplingTraceSink sampler(sampling, &collector);
        traces_.replay(workload, input_idx, &sampler);
        image = collector.takeImage();
    } else {
        ProfileCollector collector(std::string(workload.name()));
        SamplingTraceSink sampler(sampling, &collector);
        traces_.replay(workload, input_idx, &sampler);
        image = collector.takeImage();
    }

    std::lock_guard<std::mutex> lock(profileMutex_);
    // First insertion wins under a race; the kept-record set is a
    // pure function of (config, trace), so both images are identical.
    auto [it, inserted] =
        sampledProfiles_.try_emplace(key, std::move(image));
    (void)inserted;
    return it->second;
}

PhasedProfiles
Session::collectPhasedProfile(const Workload &workload,
                              size_t input_idx)
{
    auto split = workload.phaseSplitPc();
    if (!split)
        vpprof_fatal("workload '", workload.name(),
                     "' has no phase split pc");

    ProfileCollector init_collector(std::string(workload.name()) +
                                    ".init");
    ProfileCollector comp_collector(std::string(workload.name()) +
                                    ".comp");
    bool in_compute = false;
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        if (!in_compute && rec.pc == *split)
            in_compute = true;
        if (in_compute)
            comp_collector.record(rec);
        else
            init_collector.record(rec);
    });
    traces_.replay(workload, input_idx, &sink);

    PhasedProfiles phases;
    phases.init = init_collector.takeImage();
    phases.compute = comp_collector.takeImage();
    return phases;
}

ProfileImage
Session::collectMergedProfile(const Workload &workload,
                              const std::vector<size_t> &inputs)
{
    if (inputs.empty())
        vpprof_fatal("collectMergedProfile: no training inputs");

    // Warm the per-input caches in parallel, then merge in index
    // order so the result is bit-identical for every jobs count.
    runner_.forEach(inputs.size(), [&](size_t i) {
        collectProfile(workload, inputs[i]);
    });
    ProfileImage merged(std::string(workload.name()));
    for (size_t idx : inputs)
        merged.merge(collectProfile(workload, idx));
    return merged;
}

Program
Session::annotatedProgram(const Workload &workload,
                          const std::vector<size_t> &train_inputs,
                          const InserterConfig &config)
{
    std::ostringstream key;
    key << workload.name();
    for (size_t idx : train_inputs)
        key << '|' << idx;

    const ProfileImage *image = nullptr;
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto it = mergedProfiles_.find(key.str());
        if (it != mergedProfiles_.end())
            image = &it->second;
    }
    if (!image) {
        ProfileImage merged = collectMergedProfile(workload,
                                                   train_inputs);
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto [it, inserted] =
            mergedProfiles_.try_emplace(key.str(), std::move(merged));
        (void)inserted;
        image = &it->second;
    }

    Program program = workload.program();  // copy
    insertDirectives(program, *image, config);
    return program;
}

ClassificationAccuracy
Session::evaluateClassification(const Workload &workload,
                                size_t input_idx,
                                const Program &program,
                                Classifier &classifier)
{
    VPPROF_TIMED_SPAN("eval.classification");
    ClassificationEvaluator evaluator(classifier);
    EvaluatorBank bank;
    bank.addBlockSink(&evaluator, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return evaluator.result();
}

FiniteTableStats
Session::evaluateFiniteTable(const Workload &workload, size_t input_idx,
                             const Program &program, VpPolicy policy,
                             const PredictorConfig &config)
{
    VPPROF_TIMED_SPAN("eval.finite_table");
    FiniteTableEvaluator evaluator(policy, config);
    EvaluatorBank bank;
    bank.addBlockSink(&evaluator, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return evaluator.result();
}

IlpResult
Session::evaluateIlp(const Workload &workload, size_t input_idx,
                     const Program &program, const IlpConfig &ilp_config,
                     VpPolicy policy,
                     const PredictorConfig &predictor_config)
{
    VPPROF_TIMED_SPAN("eval.ilp");
    StridePredictor predictor(predictor_config);
    DataflowEngine engine(ilp_config, policy,
                          policy == VpPolicy::None ? nullptr
                                                   : &predictor);
    EvaluatorBank bank;
    bank.addRecordSink(&engine, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return engine.result();
}

FiniteTableStats
Session::evaluateHybridTable(const Workload &workload, size_t input_idx,
                             const Program &program,
                             const HybridConfig &config)
{
    VPPROF_TIMED_SPAN("eval.hybrid_table");
    HybridTableEvaluator evaluator(config);
    EvaluatorBank bank;
    bank.addBlockSink(&evaluator, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return evaluator.result();
}

Session &
defaultSession()
{
    static Session session{SessionConfig{}};
    return session;
}

} // namespace vpprof
