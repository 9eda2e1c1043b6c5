/**
 * @file
 * v3 extension of the crash-consistency matrix: the columnar format's
 * failure modes — block-checksum corruption, torn tail blocks, and a
 * stale-version file whose re-capture cannot commit — must degrade
 * like every other row: bit-identical replays, structured counters,
 * no aborts, evidence preserved in `<file>.bad`.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "core/session.hh"
#include "vm/trace_io.hh"

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

uint64_t
replayDigest(Session &session, const Workload &w, size_t input)
{
    uint64_t sum = kFnv1a64Seed;
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        sum = fnv1a64(&rec.seq, sizeof(rec.seq), sum);
        sum = fnv1a64(&rec.pc, sizeof(rec.pc), sum);
        sum = fnv1a64(&rec.value, sizeof(rec.value), sum);
        uint8_t flags = (rec.writesReg ? 1 : 0) | (rec.isMem ? 2 : 0);
        sum = fnv1a64(&flags, 1, sum);
        sum = fnv1a64(&rec.memAddr, sizeof(rec.memAddr), sum);
    });
    session.runTrace(w, input, &sink);
    return sum;
}

uint64_t
referenceDigest()
{
    static uint64_t digest = [] {
        Session clean;
        return replayDigest(clean, li(), 0);
    }();
    return digest;
}

class TraceV3Crash : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        dir_ = ::testing::TempDir() + "/vpprof_v3crash_" +
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

    std::string
    slurp(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    void
    spit(const std::string &path, const std::string &bytes) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string dir_;
};

TEST_F(TraceV3Crash, BlockChecksumCorruptionQuarantinesToBad)
{
    // Capture a v3 cache file, flip one payload bit mid-block: the
    // next session must quarantine it to `<file>.bad` (per-block
    // checksum, no file-level trailer in v3) and regenerate.
    {
        Session warmup(cacheConfig());
        ASSERT_EQ(replayDigest(warmup, li(), 0), referenceDigest());
    }
    std::string bytes = slurp(cacheFile());
    ASSERT_GT(bytes.size(), 100u);
    ASSERT_EQ(bytes[7], kTraceFormatVersion)
        << "capture must write the current format";
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    spit(cacheFile(), bytes);

    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.diskLoads, 0u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));
    // The regenerated commit is healthy: a fresh session adopts it.
    Session adopt(cacheConfig());
    EXPECT_EQ(replayDigest(adopt, li(), 0), referenceDigest());
    EXPECT_EQ(adopt.traces().stats().diskLoads, 1u);
}

TEST_F(TraceV3Crash, TornTailBlockRecoversThroughTheLadder)
{
    // After a successful replay the cache file is replaced by a copy
    // torn mid-block. Committed files only ever change by rename, so
    // the session's mapping keeps the inode it verified and replays
    // on untouched. A mid-replay fault then sends the ladder to the
    // torn file: the Full re-open fails (TruncatedFile), the VM
    // regenerates the tail, and the stream stays bit-identical.
    Session session(cacheConfig());
    ASSERT_EQ(replayDigest(session, li(), 0), referenceDigest());

    std::string bytes = slurp(cacheFile());
    ASSERT_GT(bytes.size(), 100u);
    ASSERT_EQ(bytes[7], kTraceFormatVersion);
    const std::string torn = cacheFile() + ".torn";
    spit(torn, bytes.substr(0, bytes.size() - 23));
    fs::rename(torn, cacheFile());

    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    EXPECT_EQ(session.traces().stats().readRetries, 0u)
        << "the mapping is immune to a re-commit of its file";

    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 50});
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    FailpointRegistry::instance().reset();
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.readRetries, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u)
        << "the regeneration does not count as a trace-producing run";

    // A FRESH session probing the torn file quarantines it instead.
    Session probe(cacheConfig());
    EXPECT_EQ(replayDigest(probe, li(), 0), referenceDigest());
    EXPECT_EQ(probe.traces().stats().corruptQuarantined, 1u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));
}

TEST_F(TraceV3Crash, StaleVersionRecaptureSurvivesAFailedCommit)
{
    // A cache file from a retired format version is quarantined and
    // re-captured; when the re-capture's commit fails too, the capture
    // buffer serves the replay, the evidence stays in `.bad`, and no
    // temp file is left behind.
    {
        Session warmup(cacheConfig());
        ASSERT_EQ(replayDigest(warmup, li(), 0), referenceDigest());
    }
    std::string bytes = slurp(cacheFile());
    ASSERT_EQ(bytes[7], kTraceFormatVersion);
    bytes[7] = '2';
    spit(cacheFile(), bytes);

    FailpointRegistry::instance().arm("trace_io.commit",
                                      {FailpointAction::Fail, 0});
    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest())
        << "the capture buffer serves every later replay";
    FailpointRegistry::instance().reset();
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.spillFailures, 1u);
    EXPECT_EQ(st.diskLoads, 0u);
    EXPECT_EQ(slurp(cacheFile() + ".bad"), bytes);
    EXPECT_FALSE(fs::exists(cacheFile()));
    for (const auto &entry : fs::directory_iterator(dir_))
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
}

} // namespace
} // namespace vpprof
