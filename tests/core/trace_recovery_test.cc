/**
 * @file
 * Recovery twins: the same injected read fault must recover to the
 * same answer whether the mapped trace feeds a record sink (runTrace)
 * or an evaluator bank (evaluateClassification). The faults land on
 * block edges — the first record, the last record of block 1, the
 * first record of block 2, the trace's last record — and on every
 * read; each must climb exactly the ladder rungs it needs. A
 * checksummed file naming a pc outside the program takes the same
 * ladder and is quarantined.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "core/session.hh"
#include "predictors/profile_classifier.hh"
#include "profile/profile_collector.hh"

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

ClassificationAccuracy
classify(Session &session)
{
    ProfileClassifier classifier;
    return session.evaluateClassification(li(), 0, li().program(),
                                          classifier);
}

void
expectSameAccuracy(const ClassificationAccuracy &got,
                   const ClassificationAccuracy &want)
{
    EXPECT_EQ(got.corrects, want.corrects);
    EXPECT_EQ(got.correctsAccepted, want.correctsAccepted);
    EXPECT_EQ(got.mispredictions, want.mispredictions);
    EXPECT_EQ(got.mispredictionsCaught, want.mispredictionsCaught);
}

/** The fault-free answers from a session without any cache. */
struct CleanRun
{
    uint64_t digest = 0;
    uint64_t records = 0;
    ClassificationAccuracy accuracy;
    ProfileImage profile;
};

const CleanRun &
cleanRun()
{
    static CleanRun run = [] {
        CleanRun r;
        Session clean;
        r.digest = replayDigest(clean, li(), 0);
        r.records = clean.runTrace(li(), 0, nullptr).instructionsExecuted;
        r.accuracy = classify(clean);
        r.profile = clean.collectProfile(li(), 0);
        return r;
    }();
    return run;
}

class TraceRecovery : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        dir_ = ::testing::TempDir() + "/vpprof_recovery_" +
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
    cacheConfig() const
    {
        SessionConfig cfg;
        cfg.traceCacheDir = dir_;
        return cfg;
    }

    std::string dir_;
};

TEST_F(TraceRecovery, ReadFaultsRecoverBitIdenticallyForSinksAndBanks)
{
    const CleanRun &clean = cleanRun();
    ASSERT_GT(clean.records, 2u * kTraceBlockCapacity);
    {
        Session warm(cacheConfig());  // commits the cache file
        ASSERT_EQ(replayDigest(warm, li(), 0), clean.digest);
    }

    struct Case
    {
        uint64_t hit;  ///< 1-based record read that fails; 0 = all
        uint64_t regenerations;
    };
    const Case cases[] = {
        {1, 0},
        {kTraceBlockCapacity, 0},
        {kTraceBlockCapacity + 1, 0},
        {clean.records, 0},
        {0, 1},  // every read fails: the retry fails too, the VM serves
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("trace_io.read:short@" + std::to_string(c.hit));
        FailpointSpec spec{FailpointAction::Short, c.hit};

        FailpointRegistry::instance().arm("trace_io.read", spec);
        Session sink_session(cacheConfig());
        EXPECT_EQ(replayDigest(sink_session, li(), 0), clean.digest);
        TraceRepoStats st = sink_session.traces().stats();
        EXPECT_EQ(st.readRetries, 1u);
        EXPECT_EQ(st.regenerations, c.regenerations);
        EXPECT_EQ(st.vmRuns, 0u);

        FailpointRegistry::instance().arm("trace_io.read", spec);
        Session bank_session(cacheConfig());
        expectSameAccuracy(classify(bank_session), clean.accuracy);
        st = bank_session.traces().stats();
        EXPECT_EQ(st.readRetries, 1u);
        EXPECT_EQ(st.regenerations, c.regenerations);
        EXPECT_EQ(st.vmRuns, 0u);
    }
}

TEST_F(TraceRecovery, ForeignPcInACheckedFileIsRefusedAndQuarantined)
{
    // A cache file whose every checksum holds, but one record of block
    // 1 names a pc far past the program's end. Replays refuse that
    // block before any consumer sees it (an evaluator indexes the
    // program by pc), the ladder answers bit-identically, and the file
    // is quarantined so no later process adopts it. Only the first of
    // the three replays decodes the sick mapping and retries from
    // disk; the later ones go straight to the VM.
    const CleanRun &clean = cleanRun();
    const uint64_t forged = kTraceBlockCapacity + 7;
    ASSERT_GT(clean.records, forged);
    fs::create_directories(dir_);
    const std::string path = dir_ + "/li.in0.trace";
    {
        ColumnarTraceBuilder builder;
        CallbackTraceSink forge([&](const TraceRecord &rec) {
            TraceRecord copy = rec;
            if (copy.seq == forged)
                copy.pc = uint64_t{1} << 20;
            builder.record(copy);
        });
        runProgram(li().program(), li().input(0), &forge,
                   li().maxInstructions());
        ASSERT_EQ(writeColumnarTraceFile(path, builder.take()),
                  TraceIoStatus::Ok);
    }

    Session session(cacheConfig());
    ProfileCollector collector("li");
    session.runTrace(li(), 0, &collector);
    EXPECT_TRUE(collector.takeImage() == clean.profile);
    expectSameAccuracy(classify(session), clean.accuracy);
    EXPECT_EQ(replayDigest(session, li(), 0), clean.digest);

    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.diskLoads, 1u) << "the checksums hold: adopted";
    EXPECT_EQ(st.vmRuns, 0u);
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.readRetries, 1u);
    EXPECT_EQ(st.regenerations, 3u);
    EXPECT_TRUE(fs::exists(path + ".bad"));
    EXPECT_FALSE(fs::exists(path));
}

} // namespace
} // namespace vpprof
