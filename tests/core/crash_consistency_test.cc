/**
 * @file
 * Crash-consistency matrix for the trace cache: with faults injected
 * at every write / commit / open / read stage, Session experiments
 * must return bit-identical results to a fault-free cold run, nothing
 * may abort, and the TraceRepoStats recovery counters must account
 * for every injected fault. Also covers concurrent sessions sharing
 * one cache directory (the in-process equivalent of two CLI runs
 * sharing --trace-cache).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "core/session.hh"
#include "predictors/profile_classifier.hh"

namespace vpprof
{
namespace
{

namespace fs = std::filesystem;

const Workload &
li()
{
    static WorkloadSuite suite;
    return *suite.find("li");
}

/**
 * Order-sensitive digest of every replayed record's observable
 * fields: equal digests mean the consumer saw a bit-identical trace.
 */
uint64_t
replayDigest(Session &session, const Workload &w, size_t input)
{
    uint64_t sum = kFnv1a64Seed;
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        sum = fnv1a64(&rec.seq, sizeof(rec.seq), sum);
        sum = fnv1a64(&rec.pc, sizeof(rec.pc), sum);
        uint8_t op = static_cast<uint8_t>(rec.op);
        sum = fnv1a64(&op, 1, sum);
        uint8_t dir = static_cast<uint8_t>(rec.directive);
        sum = fnv1a64(&dir, 1, sum);
        uint8_t flags = (rec.writesReg ? 1 : 0) | (rec.isMem ? 2 : 0);
        sum = fnv1a64(&flags, 1, sum);
        sum = fnv1a64(&rec.dest, sizeof(rec.dest), sum);
        sum = fnv1a64(&rec.value, sizeof(rec.value), sum);
        sum = fnv1a64(&rec.numSrcs, sizeof(rec.numSrcs), sum);
        sum = fnv1a64(rec.srcs.data(), 2, sum);
        sum = fnv1a64(&rec.memAddr, sizeof(rec.memAddr), sum);
    });
    session.runTrace(w, input, &sink);
    return sum;
}

/** The fault-free cold-run reference digest (no cache, no faults). */
uint64_t
referenceDigest()
{
    static uint64_t digest = [] {
        Session clean;
        return replayDigest(clean, li(), 0);
    }();
    return digest;
}

class CrashConsistency : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        dir_ = ::testing::TempDir() + "/vpprof_crash_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        FailpointRegistry::instance().reset();
        fs::remove_all(dir_);
    }

    SessionConfig
    cacheConfig()
    {
        SessionConfig cfg;
        cfg.traceCacheDir = dir_;
        return cfg;
    }

    std::string
    cacheFile() const
    {
        return dir_ + "/li.in0.trace";
    }

    /**
     * Capture a valid cache file in a session of its own. The next
     * session adopts it, so its replays read the file: a session's
     * own capture feeds that first caller without reading anything.
     */
    void
    warmCache()
    {
        Session warmup(cacheConfig());
        replayDigest(warmup, li(), 0);
    }

    /** Capture a valid cache file, then damage it with `mutate`. */
    void
    plantDamagedCacheFile(
        const std::function<void(std::string &)> &mutate)
    {
        warmCache();
        std::ifstream in(cacheFile(), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        in.close();
        ASSERT_GT(bytes.size(), 100u);
        mutate(bytes);
        std::ofstream out(cacheFile(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string dir_;
};

TEST_F(CrashConsistency, WriteFailureMidCaptureStillReplaysExactly)
{
    FailpointRegistry::instance().arm("trace_io.write",
                                      {FailpointAction::Fail, 100});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.spillFailures, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    // The failed capture committed nothing: no file, no torn temp.
    EXPECT_FALSE(fs::exists(cacheFile()));
    for (const auto &e : fs::directory_iterator(dir_))
        EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
            << e.path();
}

TEST_F(CrashConsistency, CommitRenameFailureStillReplaysExactly)
{
    FailpointRegistry::instance().arm("trace_io.commit",
                                      {FailpointAction::Fail, 1});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    EXPECT_EQ(session.traces().stats().spillFailures, 1u);
    EXPECT_FALSE(fs::exists(cacheFile()));

    // Disarmed, a later session captures and commits normally.
    FailpointRegistry::instance().reset();
    Session healthy(cacheConfig());
    EXPECT_EQ(replayDigest(healthy, li(), 0), referenceDigest());
    EXPECT_TRUE(fs::exists(cacheFile()));
}

TEST_F(CrashConsistency, DiskFullAtCommitDegradesGracefully)
{
    FailpointRegistry::instance().arm("trace_io.commit",
                                      {FailpointAction::NoSpace, 0});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u) << "the capture buffer still serves replays";
    EXPECT_EQ(st.spillFailures, 1u);
    EXPECT_FALSE(fs::exists(cacheFile()));
}

TEST_F(CrashConsistency, TruncatedCacheFileIsQuarantinedAndRegenerated)
{
    plantDamagedCacheFile(
        [](std::string &bytes) { bytes.resize(bytes.size() - 13); });

    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.diskLoads, 0u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));
    // The regenerated commit is valid: a fresh session adopts it.
    Session adopt(cacheConfig());
    EXPECT_EQ(replayDigest(adopt, li(), 0), referenceDigest());
    EXPECT_EQ(adopt.traces().stats().diskLoads, 1u);
}

TEST_F(CrashConsistency, FlippedBitInCacheFileIsQuarantined)
{
    plantDamagedCacheFile([](std::string &bytes) {
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    });

    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));
}

TEST_F(CrashConsistency, TransientShortReadIsRetriedFromDisk)
{
    // The replay reads the mapped cache file; the 50th record read
    // fails once, then the file is healthy again — the retry must
    // resume past the already-delivered prefix, not duplicate it.
    warmCache();
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 50});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.readRetries, 1u);
    EXPECT_EQ(st.regenerations, 0u);
}

TEST_F(CrashConsistency, PersistentReadFailureRegeneratesViaTheVm)
{
    warmCache();
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 0});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.readRetries, 1u);
    EXPECT_EQ(st.regenerations, 1u);
}

TEST_F(CrashConsistency, UnreadableProbeFallsBackToCapture)
{
    // A valid cache file that cannot even be opened (permissions,
    // transient I/O): the probe treats it as a miss and re-captures.
    warmCache();
    FailpointRegistry::instance().arm("trace_io.open",
                                      {FailpointAction::Fail, 1});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.corruptQuarantined, 0u)
        << "unreadable is a miss, not a quarantine";
}

TEST_F(CrashConsistency, ExperimentResultsSurviveInjectedReadFaults)
{
    // Full methodology under faults: classification counts must equal
    // the fault-free run's, not merely "some result".
    ProfileClassifier clean_cls;
    ClassificationAccuracy clean;
    {
        Session session;
        clean = session.evaluateClassification(li(), 0, li().program(),
                                               clean_cls);
    }

    warmCache();
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 1000});
    Session faulty(cacheConfig());
    ProfileClassifier faulty_cls;
    ClassificationAccuracy got = faulty.evaluateClassification(
        li(), 0, li().program(), faulty_cls);

    EXPECT_EQ(got.corrects, clean.corrects);
    EXPECT_EQ(got.correctsAccepted, clean.correctsAccepted);
    EXPECT_EQ(got.mispredictions, clean.mispredictions);
    EXPECT_EQ(got.mispredictionsCaught, clean.mispredictionsCaught);
    EXPECT_EQ(faulty.traces().stats().readRetries, 1u);
}

TEST_F(CrashConsistency, ConcurrentSessionsShareOneCacheDirectory)
{
    // Two sessions race on one cache directory — the in-process
    // analogue of two CLI processes sharing --trace-cache. The flock
    // serializes capture: exactly one VM run between them, and the
    // directory holds exactly one committed file, no temp litter.
    uint64_t digest_a = 0, digest_b = 0;
    Session a(cacheConfig()), b(cacheConfig());
    std::thread ta([&] { digest_a = replayDigest(a, li(), 0); });
    std::thread tb([&] { digest_b = replayDigest(b, li(), 0); });
    ta.join();
    tb.join();

    EXPECT_EQ(digest_a, referenceDigest());
    EXPECT_EQ(digest_b, referenceDigest());
    TraceRepoStats sa = a.traces().stats();
    TraceRepoStats sb = b.traces().stats();
    EXPECT_EQ(sa.vmRuns + sb.vmRuns, 1u)
        << "the lock must prevent duplicate captures";
    EXPECT_EQ(sa.diskLoads + sb.diskLoads, 1u);

    size_t traceFiles = 0;
    for (const auto &e : fs::directory_iterator(dir_)) {
        std::string name = e.path().filename().string();
        EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
        EXPECT_EQ(name.find(".bad"), std::string::npos) << name;
        if (name == "li.in0.trace")
            ++traceFiles;
    }
    EXPECT_EQ(traceFiles, 1u);
}

} // namespace
} // namespace vpprof
