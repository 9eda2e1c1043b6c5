/**
 * @file
 * Unit tests for the Session / TraceRepository layer: the trace-once
 * guarantee, fused multi-sink replays, profile memoization, replay
 * from the mapped cache file, and the persistent cross-process trace
 * cache (including recovery from a corrupt cache file).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/telemetry/metrics.hh"
#include "core/session.hh"
#include "predictors/profile_classifier.hh"
#include "profile/profile_collector.hh"
#include "vm/trace.hh"

namespace vpprof
{
namespace
{

const Workload &
li()
{
    static WorkloadSuite suite;
    return *suite.find("li");
}

/** Process-wide registry value of one trace.* counter (0 when off). */
uint64_t
registryCounter(const char *name)
{
    telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(Session, TraceOnceAcrossRepeatedReplays)
{
    Session session;
    CountingTraceSink a, b, c;
    session.runTrace(li(), 0, &a);
    session.runTrace(li(), 0, &b);
    session.runTrace(li(), 0, &c);

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.uniqueTraces, 1u);
    EXPECT_EQ(st.replays, 3u);
    EXPECT_EQ(a.producers(), b.producers());
    EXPECT_EQ(b.producers(), c.producers());
    EXPECT_GT(a.producers(), 0u);
}

TEST(Session, DistinctInputsAreDistinctTraces)
{
    Session session;
    CountingTraceSink a, b;
    session.runTrace(li(), 0, &a);
    session.runTrace(li(), 1, &b);
    EXPECT_EQ(session.traces().stats().vmRuns, 2u);
    EXPECT_EQ(session.traces().stats().uniqueTraces, 2u);
}

TEST(Session, FusedReplayMatchesSeparateReplays)
{
    Session session;
    CountingTraceSink separate;
    session.runTrace(li(), 0, &separate);

    CountingTraceSink f1, f2;
    RunResult fused = session.replayInto(li(), 0, {&f1, &f2});
    EXPECT_EQ(session.traces().stats().vmRuns, 1u);
    EXPECT_GT(fused.instructionsExecuted, 0u);
    for (const CountingTraceSink *s : {&f1, &f2}) {
        EXPECT_EQ(s->producers(), separate.producers());
        EXPECT_EQ(s->loads(), separate.loads());
        EXPECT_EQ(s->stores(), separate.stores());
        EXPECT_EQ(s->branches(), separate.branches());
    }
}

/** Process-wide count of one telemetry histogram (0 when absent). */
uint64_t
registryHistogramCount(const char *name)
{
    telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.count;
}

TEST(Session, ProfileIsMemoizedPerInput)
{
    // A profile is one VM pass into the collector: it captures no
    // trace, so only a replaying consumer makes the repository run
    // the VM, and it does so once, after the profile.
    Session session;
    const uint64_t collects = registryHistogramCount("profile.collect.us");
    const ProfileImage &first = session.collectProfile(li(), 0);
    const ProfileImage &again = session.collectProfile(li(), 0);
    EXPECT_EQ(&first, &again);
    EXPECT_EQ(registryHistogramCount("profile.collect.us"), collects + 1);
    EXPECT_EQ(session.traces().stats().uniqueTraces, 0u);

    ProfileCollector replayed("li");
    session.runTrace(li(), 0, &replayed);
    EXPECT_EQ(session.traces().stats().vmRuns, 1u);
    EXPECT_TRUE(replayed.takeImage() == first);
    EXPECT_GT(first.size(), 0u);
}

TEST(Session, ConcurrentColdProfileRunsTheVmOnce)
{
    // Eight threads race for one cold key: the per-key slot lets one
    // of them run the VM while the others wait, and every caller gets
    // the same memoized image.
    Session session;
    const uint64_t collects = registryHistogramCount("profile.collect.us");
    constexpr int kCallers = 8;
    std::vector<const ProfileImage *> images(kCallers, nullptr);
    std::vector<std::thread> threads;
    for (int i = 0; i < kCallers; ++i)
        threads.emplace_back([&, i] {
            images[i] = &session.collectProfile(li(), 2);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(registryHistogramCount("profile.collect.us"), collects + 1);
    for (const ProfileImage *image : images)
        EXPECT_EQ(image, images[0]);
    EXPECT_FALSE(images[0]->empty());
    EXPECT_EQ(session.traces().stats().vmRuns, 0u);
}

TEST(Session, CacheBackedTraceRoundTripsThroughTheMappedFile)
{
    Session in_memory;  // no cache dir: the capture buffer serves
    CountingTraceSink from_buffer;
    in_memory.runTrace(li(), 0, &from_buffer);

    std::string dir = ::testing::TempDir() + "/vpprof_cache_mapped";
    std::filesystem::remove_all(dir);
    SessionConfig cfg;
    cfg.traceCacheDir = dir;  // capture commits, then replays the map
    Session mapped(cfg);
    CountingTraceSink from_file_1, from_file_2;
    mapped.runTrace(li(), 0, &from_file_1);
    mapped.runTrace(li(), 0, &from_file_2);

    TraceRepoStats st = mapped.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.spillFailures, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/li.in0.trace"));
    EXPECT_EQ(from_file_1.producers(), from_buffer.producers());
    EXPECT_EQ(from_file_1.branches(), from_buffer.branches());
    EXPECT_EQ(from_file_2.producers(), from_buffer.producers());
    std::filesystem::remove_all(dir);
}

TEST(Session, PersistentCacheIsAdoptedAcrossSessions)
{
    std::string dir = ::testing::TempDir() + "/vpprof_cache_adopt";
    std::filesystem::remove_all(dir);

    SessionConfig cfg;
    cfg.traceCacheDir = dir;

    // Profiles replayed through runTrace: collectProfile runs the VM
    // and never touches the repository or its cache directory.
    ProfileImage first_image;
    {
        Session writer(cfg);
        ProfileCollector collector("li");
        writer.runTrace(li(), 0, &collector);
        first_image = collector.takeImage();
        EXPECT_EQ(writer.traces().stats().vmRuns, 1u);
    }
    ASSERT_TRUE(std::filesystem::exists(dir + "/li.in0.trace"));

    Session reader(cfg);
    ProfileCollector collector("li");
    reader.runTrace(li(), 0, &collector);
    const ProfileImage second_image = collector.takeImage();
    TraceRepoStats st = reader.traces().stats();
    EXPECT_EQ(st.vmRuns, 0u) << "cache hit must not re-interpret";
    EXPECT_EQ(st.diskLoads, 1u);

    ASSERT_EQ(second_image.size(), first_image.size());
    for (const auto &[pc, p] : first_image.entries()) {
        const PcProfile *q = second_image.find(pc);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(q->attempts, p.attempts);
        EXPECT_EQ(q->correct, p.correct);
    }
    std::filesystem::remove_all(dir);
}

TEST(Session, CorruptCacheFileIsRecaptured)
{
    std::string dir = ::testing::TempDir() + "/vpprof_cache_corrupt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        std::ofstream bad(dir + "/li.in0.trace", std::ios::binary);
        bad << "not a trace at all";
    }

    SessionConfig cfg;
    cfg.traceCacheDir = dir;
    Session session(cfg);
    CountingTraceSink counts;
    session.runTrace(li(), 0, &counts);

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u) << "bad cache file must be re-captured";
    EXPECT_EQ(st.diskLoads, 0u);
    EXPECT_GT(counts.producers(), 0u);

    // The re-captured trace replaced the corrupt file: a fresh session
    // adopts it cleanly.
    Session again(cfg);
    CountingTraceSink counts2;
    again.runTrace(li(), 0, &counts2);
    EXPECT_EQ(again.traces().stats().vmRuns, 0u);
    EXPECT_EQ(counts2.producers(), counts.producers());
    std::filesystem::remove_all(dir);
}

TEST(Session, QuarantineUsesBadSuffixAndIsNeverReprobed)
{
    std::string dir = ::testing::TempDir() + "/vpprof_cache_quarantine";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string garbage = "definitely not a trace";
    {
        std::ofstream bad(dir + "/li.in0.trace", std::ios::binary);
        bad << garbage;
    }

    SessionConfig cfg;
    cfg.traceCacheDir = dir;
    Session session(cfg);
    CountingTraceSink counts;
    session.runTrace(li(), 0, &counts);

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);

    // The sick file was renamed aside with the `.bad` suffix, its
    // bytes preserved for post-mortem inspection.
    std::ifstream aside(dir + "/li.in0.trace.bad", std::ios::binary);
    ASSERT_TRUE(aside.good());
    std::string kept((std::istreambuf_iterator<char>(aside)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(kept, garbage);

    // Within the process the key replays from its regenerated copy:
    // the quarantined file is never re-probed, so further replays
    // neither bump the quarantine counter nor touch the .bad file.
    CountingTraceSink counts2;
    session.runTrace(li(), 0, &counts2);
    TraceRepoStats st2 = session.traces().stats();
    EXPECT_EQ(st2.corruptQuarantined, 1u);
    EXPECT_EQ(st2.regenerations, 1u);
    EXPECT_EQ(counts2.producers(), counts.producers());
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().string().find(".bad.bad"),
                  std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Session, EvaluateClassificationMatchesDirectExecution)
{
    // The replayed + directive-overridden evaluation must agree, count
    // for count, with running the annotated program in the VM.
    Session session;
    InserterConfig cfg;
    cfg.accuracyThresholdPercent = 70.0;
    Program annotated =
        session.annotatedProgram(li(), {1, 2}, cfg);

    ProfileClassifier replayed_cls;
    ClassificationAccuracy replayed = session.evaluateClassification(
        li(), 0, annotated, replayed_cls);

    ProfileClassifier direct_cls;
    ClassificationAccuracy direct =
        evaluateClassification(annotated, li().input(0), direct_cls);

    EXPECT_EQ(replayed.corrects, direct.corrects);
    EXPECT_EQ(replayed.correctsAccepted, direct.correctsAccepted);
    EXPECT_EQ(replayed.mispredictions, direct.mispredictions);
    EXPECT_EQ(replayed.mispredictionsCaught,
              direct.mispredictionsCaught);
    EXPECT_GT(replayed.corrects, 0u);
}

TEST(Session, EvaluateIlpMatchesDirectExecution)
{
    Session session;
    IlpResult replayed = session.evaluateIlp(
        li(), 0, li().program(), IlpConfig{}, VpPolicy::Fsm,
        paperFiniteConfig(true));
    IlpResult direct =
        evaluateIlp(li().program(), li().input(0), IlpConfig{},
                    VpPolicy::Fsm, paperFiniteConfig(true));
    EXPECT_EQ(replayed.cycles, direct.cycles);
    EXPECT_EQ(replayed.instructions, direct.instructions);
    EXPECT_EQ(replayed.predictionsUsed, direct.predictionsUsed);
    EXPECT_EQ(replayed.correctUsed, direct.correctUsed);
}

TEST(Session, MergedProfileRejectsEmptyTraining)
{
    Session session;
    EXPECT_DEATH(session.collectMergedProfile(li(), {}),
                 "no training inputs");
}

TEST(Session, RegistryCountersMirrorTypedStatsView)
{
    // TraceRepoStats is a typed view over registry-backed counters:
    // the process-wide registry must advance by exactly the deltas the
    // per-session view reports (delta-based because other tests in
    // this binary share the process-wide registry).
    uint64_t vm_before = registryCounter("trace.vm_runs");
    uint64_t replays_before = registryCounter("trace.replays");
    uint64_t unique_before = registryCounter("trace.unique_traces");

    Session session;
    CountingTraceSink a, b;
    session.runTrace(li(), 0, &a);
    session.runTrace(li(), 0, &b);

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.replays, 2u);
    EXPECT_EQ(st.uniqueTraces, 1u);
    EXPECT_EQ(registryCounter("trace.vm_runs") - vm_before, st.vmRuns);
    EXPECT_EQ(registryCounter("trace.replays") - replays_before,
              st.replays);
    EXPECT_EQ(registryCounter("trace.unique_traces") - unique_before,
              st.uniqueTraces);
}

TEST(Session, RegistryKeepsRegenerationsOutOfVmRunsUnderFaults)
{
    // The crash-consistency contract survives the counter migration:
    // a quarantined cache file costs one regeneration and one vmRun —
    // regenerations never leak into vmRuns, in the typed view or the
    // registry, so the trace-once invariant (vmRuns <= uniqueTraces)
    // stays checkable from either.
    std::string dir = ::testing::TempDir() + "/vpprof_registry_fault";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        std::ofstream bad(dir + "/li.in0.trace", std::ios::binary);
        bad << "corrupt bytes, not a trace";
    }

    uint64_t vm_before = registryCounter("trace.vm_runs");
    uint64_t regen_before = registryCounter("trace.regenerations");
    uint64_t quarantine_before =
        registryCounter("trace.corrupt_quarantined");

    SessionConfig cfg;
    cfg.traceCacheDir = dir;
    Session session(cfg);
    CountingTraceSink counts;
    session.runTrace(li(), 0, &counts);

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_LE(st.vmRuns, st.uniqueTraces);
    EXPECT_EQ(registryCounter("trace.vm_runs") - vm_before, 1u);
    EXPECT_EQ(registryCounter("trace.regenerations") - regen_before, 1u);
    EXPECT_EQ(registryCounter("trace.corrupt_quarantined") -
                  quarantine_before,
              1u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace vpprof
