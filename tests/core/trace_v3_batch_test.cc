/**
 * @file
 * Batch-replay equivalence: an EvaluatorBank pass must be bit-identical
 * to serial record-at-a-time replay for every evaluator, any jobs
 * count, and every cache format generation (v1/v2/v3) feeding it —
 * including a v2 cache directory adopted transparently by a v3-default
 * session (the migration path).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/checksum.hh"
#include "core/batch_replay.hh"
#include "core/evaluators.hh"
#include "core/session.hh"
#include "ilp/dataflow_engine.hh"
#include "predictors/profile_classifier.hh"

namespace vpprof
{
namespace
{

namespace fs = std::filesystem;

const WorkloadSuite &
suite()
{
    static WorkloadSuite s;
    return s;
}

const Workload &
li()
{
    return *suite().find("li");
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

class TraceV3Batch : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("VPPROF_TRACE_FORMAT");
        dir_ = ::testing::TempDir() + "/vpprof_v3batch_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        ::unsetenv("VPPROF_TRACE_FORMAT");
        fs::remove_all(dir_);
    }

    SessionConfig
    cacheConfig(unsigned jobs = 1)
    {
        SessionConfig cfg;
        cfg.jobs = jobs;
        cfg.traceCacheDir = dir_;
        return cfg;
    }

    std::string dir_;
};

/** Serial reference results for every evaluator over (li, 0). */
struct SerialReference
{
    ClassificationAccuracy classification;
    FiniteTableStats fsm;
    FiniteTableStats profile;
    FiniteTableStats hybrid;
    IlpResult ilp;
};

SerialReference
serialReference(Session &session, const Program &annotated)
{
    SerialReference ref;
    {
        ProfileClassifier cls;
        ClassificationEvaluator ev(cls);
        DirectiveOverrideSink sink(annotated, &ev);
        session.runTrace(li(), 0, &sink);
        ref.classification = ev.result();
    }
    {
        FiniteTableEvaluator ev(VpPolicy::Fsm, PredictorConfig{});
        DirectiveOverrideSink sink(annotated, &ev);
        session.runTrace(li(), 0, &sink);
        ref.fsm = ev.result();
    }
    {
        FiniteTableEvaluator ev(VpPolicy::Profile, PredictorConfig{});
        DirectiveOverrideSink sink(annotated, &ev);
        session.runTrace(li(), 0, &sink);
        ref.profile = ev.result();
    }
    {
        HybridTableEvaluator ev(HybridConfig{});
        DirectiveOverrideSink sink(annotated, &ev);
        session.runTrace(li(), 0, &sink);
        ref.hybrid = ev.result();
    }
    {
        StridePredictor predictor{PredictorConfig{}};
        DataflowEngine engine(IlpConfig{}, VpPolicy::Fsm, &predictor);
        DirectiveOverrideSink sink(annotated, &engine);
        session.runTrace(li(), 0, &sink);
        ref.ilp = engine.result();
    }
    return ref;
}

void
expectFiniteEq(const FiniteTableStats &got, const FiniteTableStats &want)
{
    EXPECT_EQ(got.producers, want.producers);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.correctTaken, want.correctTaken);
    EXPECT_EQ(got.incorrectTaken, want.incorrectTaken);
    EXPECT_EQ(got.evictions, want.evictions);
}

void
expectBatchMatchesSerial(Session &session, const SerialReference &ref,
                         const Program &annotated)
{
    // ONE bank, ONE pass, five evaluators (two annotation programs:
    // the annotated copy and the raw program share the trace).
    ProfileClassifier cls;
    ClassificationEvaluator classification(cls);
    FiniteTableEvaluator fsm(VpPolicy::Fsm, PredictorConfig{});
    FiniteTableEvaluator profile(VpPolicy::Profile, PredictorConfig{});
    HybridTableEvaluator hybrid(HybridConfig{});
    StridePredictor predictor{PredictorConfig{}};
    DataflowEngine engine(IlpConfig{}, VpPolicy::Fsm, &predictor);

    EvaluatorBank bank;
    bank.addBlockSink(&classification, &annotated);
    bank.addBlockSink(&fsm, &annotated);
    bank.addBlockSink(&profile, &annotated);
    bank.addBlockSink(&hybrid, &annotated);
    bank.addRecordSink(&engine, &annotated);
    ASSERT_EQ(bank.size(), 5u);
    session.replayInto(li(), 0, bank);

    EXPECT_EQ(classification.result().corrects,
              ref.classification.corrects);
    EXPECT_EQ(classification.result().correctsAccepted,
              ref.classification.correctsAccepted);
    EXPECT_EQ(classification.result().mispredictions,
              ref.classification.mispredictions);
    EXPECT_EQ(classification.result().mispredictionsCaught,
              ref.classification.mispredictionsCaught);
    expectFiniteEq(fsm.result(), ref.fsm);
    expectFiniteEq(profile.result(), ref.profile);
    expectFiniteEq(hybrid.result(), ref.hybrid);
    EXPECT_EQ(engine.result().instructions, ref.ilp.instructions);
    EXPECT_EQ(engine.result().cycles, ref.ilp.cycles);
    EXPECT_EQ(engine.result().predictionsUsed, ref.ilp.predictionsUsed);
    EXPECT_EQ(engine.result().correctUsed, ref.ilp.correctUsed);
}

TEST_F(TraceV3Batch, BatchMatchesSerialForEveryEvaluator)
{
    Session session(cacheConfig());
    Program annotated =
        session.annotatedProgram(li(), {0}, InserterConfig{});
    SerialReference ref = serialReference(session, annotated);
    expectBatchMatchesSerial(session, ref, annotated);
    // Decode-once accounting: the batched pass decoded blocks.
    EXPECT_GT(session.traces().stats().v3BlocksDecoded, 0u);
}

TEST_F(TraceV3Batch, BatchMatchesSerialAcrossJobsCounts)
{
    Program annotated;
    SerialReference ref;
    {
        Session serial(cacheConfig(1));
        annotated =
            serial.annotatedProgram(li(), {0}, InserterConfig{});
        ref = serialReference(serial, annotated);
    }
    for (unsigned jobs : {1u, 4u, 8u}) {
        Session session(cacheConfig(jobs));
        expectBatchMatchesSerial(session, ref, annotated);
    }
}

TEST_F(TraceV3Batch, BatchMatchesSerialFromDiskAndDegraded)
{
    Session serial(cacheConfig());
    Program annotated =
        serial.annotatedProgram(li(), {0}, InserterConfig{});
    SerialReference ref = serialReference(serial, annotated);

    // A fresh session adopts the committed v3 file: the batch pass
    // decodes straight from its mapping.
    Session disk(cacheConfig());
    expectBatchMatchesSerial(disk, ref, annotated);
    EXPECT_EQ(disk.traces().stats().diskLoads, 1u);
    EXPECT_EQ(disk.traces().stats().vmRuns, 0u);

    // A session without a cache replays from its capture buffer
    // through the same span code.
    Session buffered;
    expectBatchMatchesSerial(buffered, ref, annotated);
}

TEST_F(TraceV3Batch, V2CacheFeedsBatchReplayTransparently)
{
    // Capture with the previous format generation pinned...
    ::setenv("VPPROF_TRACE_FORMAT", "2", 1);
    Session v2session(cacheConfig());
    Program annotated =
        v2session.annotatedProgram(li(), {0}, InserterConfig{});
    SerialReference ref = serialReference(v2session, annotated);
    std::string file = dir_ + "/li.in0.trace";
    {
        std::ifstream in(file, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 16u);
        ASSERT_EQ(bytes[7], '2');
    }

    // ...then adopt it with the v3 default: same batch results, no
    // quarantine, no re-capture.
    ::unsetenv("VPPROF_TRACE_FORMAT");
    Session v3session(cacheConfig());
    expectBatchMatchesSerial(v3session, ref, annotated);
    TraceRepoStats st = v3session.traces().stats();
    EXPECT_EQ(st.vmRuns, 0u);
    EXPECT_EQ(st.diskLoads, 1u);
    EXPECT_EQ(st.corruptQuarantined, 0u);
}

TEST_F(TraceV3Batch, V1CacheFeedsBatchReplayTransparently)
{
    // Build a v1 cache file (v2 bytes, version patched, trailer
    // dropped) and prove the oldest generation still serves batches.
    ::setenv("VPPROF_TRACE_FORMAT", "2", 1);
    Session v2session(cacheConfig());
    Program annotated =
        v2session.annotatedProgram(li(), {0}, InserterConfig{});
    SerialReference ref = serialReference(v2session, annotated);

    std::string file = dir_ + "/li.in0.trace";
    std::ifstream in(file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 24u);
    bytes.resize(bytes.size() - 8);  // drop the v2 trailer
    bytes[7] = '1';
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();

    ::unsetenv("VPPROF_TRACE_FORMAT");
    Session v3session(cacheConfig());
    expectBatchMatchesSerial(v3session, ref, annotated);
    TraceRepoStats st = v3session.traces().stats();
    EXPECT_EQ(st.vmRuns, 0u);
    EXPECT_EQ(st.diskLoads, 1u);
}

TEST_F(TraceV3Batch, V2ToV3MigrationPreservesEveryWorkloadReplay)
{
    // The cache-migration acceptance test: capture all nine workloads
    // under the v2 pin, replay each under the v3 default, and require
    // the delivered record stream bit-identical to a cache-less run.
    std::map<std::string, uint64_t> want;
    {
        Session clean;  // no cache, no formats involved
        for (const auto &w : suite().all())
            want[std::string(w->name())] = replayDigest(clean, *w, 0);
    }
    ASSERT_EQ(want.size(), 9u);

    ::setenv("VPPROF_TRACE_FORMAT", "2", 1);
    {
        Session capture(cacheConfig());
        for (const auto &w : suite().all())
            EXPECT_EQ(replayDigest(capture, *w, 0),
                      want[std::string(w->name())]);
    }

    ::unsetenv("VPPROF_TRACE_FORMAT");
    Session migrated(cacheConfig());
    for (const auto &w : suite().all())
        EXPECT_EQ(replayDigest(migrated, *w, 0),
                  want[std::string(w->name())])
            << w->name();
    TraceRepoStats st = migrated.traces().stats();
    EXPECT_EQ(st.vmRuns, 0u) << "every trace adopted, none re-captured";
    EXPECT_EQ(st.diskLoads, 9u);
    EXPECT_EQ(st.corruptQuarantined, 0u);
}

} // namespace
} // namespace vpprof
