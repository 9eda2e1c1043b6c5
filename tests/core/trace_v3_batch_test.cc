/**
 * @file
 * Batch-replay equivalence: an EvaluatorBank pass must be bit-identical
 * to serial record-at-a-time replay for every evaluator and any jobs
 * count, whether the trace is mapped from the cache or held in the
 * capture buffer, or fed by the capture itself on a cold key. A cache
 * of stale-version files re-captures every trace and replays
 * bit-identically.
 */

#include <gtest/gtest.h>

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
        dir_ = ::testing::TempDir() + "/vpprof_v3batch_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
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

TEST_F(TraceV3Batch, ColdBatchPassFedByTheCaptureMatchesSerial)
{
    // A bank's pass over a key its session has not produced yet is fed
    // by the VM capture itself, re-blocked by a BlockAssembler: it
    // decodes nothing and still matches serial replay.
    Session warm(cacheConfig());
    Program annotated =
        warm.annotatedProgram(li(), {0}, InserterConfig{});
    SerialReference ref = serialReference(warm, annotated);

    Session cold;
    expectBatchMatchesSerial(cold, ref, annotated);
    TraceRepoStats st = cold.traces().stats();
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.replays, 1u);
    EXPECT_EQ(st.v3BlocksDecoded, 0u);
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

TEST_F(TraceV3Batch, StaleVersionCacheRecapturesEveryWorkload)
{
    // A cache whose files carry a version byte other than
    // kTraceFormatVersion (files of the retired v1/v2 formats) is a
    // miss per file: each is quarantined to `.bad` and re-captured
    // through the VM, and every replay stays bit-identical to a
    // cache-less run.
    std::map<std::string, uint64_t> want;
    {
        Session clean;  // no cache
        for (const auto &w : suite().all())
            want[std::string(w->name())] = replayDigest(clean, *w, 0);
    }
    ASSERT_EQ(want.size(), 9u);

    {
        Session capture(cacheConfig());
        for (const auto &w : suite().all())
            EXPECT_EQ(replayDigest(capture, *w, 0),
                      want[std::string(w->name())]);
    }
    char version = '1';  // the first file claims v1, the rest v2
    for (const auto &w : suite().all()) {
        std::string file = dir_ + "/" + std::string(w->name()) +
                           ".in0.trace";
        std::fstream io(file, std::ios::binary | std::ios::in |
                                  std::ios::out);
        ASSERT_TRUE(io.good()) << file;
        io.seekp(7);
        io.put(version);
        version = '2';
    }

    Session stale(cacheConfig());
    for (const auto &w : suite().all())
        EXPECT_EQ(replayDigest(stale, *w, 0),
                  want[std::string(w->name())])
            << w->name();
    TraceRepoStats st = stale.traces().stats();
    EXPECT_EQ(st.vmRuns, 9u) << "every stale file re-captured";
    EXPECT_EQ(st.corruptQuarantined, 9u);
    EXPECT_EQ(st.regenerations, 9u);
    EXPECT_EQ(st.diskLoads, 0u);
    for (const auto &w : suite().all())
        EXPECT_TRUE(fs::exists(dir_ + "/" + std::string(w->name()) +
                               ".in0.trace.bad"))
            << w->name();

    // The re-captures were committed: the next session adopts them.
    Session again(cacheConfig());
    for (const auto &w : suite().all())
        EXPECT_EQ(replayDigest(again, *w, 0),
                  want[std::string(w->name())])
            << w->name();
    EXPECT_EQ(again.traces().stats().vmRuns, 0u);
    EXPECT_EQ(again.traces().stats().diskLoads, 9u);
}

} // namespace
} // namespace vpprof
