/**
 * @file
 * Integration tests for the extension modules on real workloads:
 * hybrid-table evaluation, critical-path analysis, trace-file
 * round trips and the FCM predictor inside the dataflow engine.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/experiment.hh"
#include "core/session.hh"
#include "ilp/critical_path.hh"
#include "predictors/context_predictor.hh"
#include "vm/trace_io.hh"

namespace vpprof
{
namespace
{

class Extensions : public ::testing::Test
{
  protected:
    static const WorkloadSuite &
    suite()
    {
        static WorkloadSuite s;
        return s;
    }

    /** The shared Session backing the experiment.hh free functions. */
    static Session &
    session()
    {
        return defaultSession();
    }
};

TEST_F(Extensions, HybridTableCompetitiveWithEqualBudgetStride)
{
    // Section 3.2's utilization claim on one benchmark: the hybrid
    // (128 stride + 512 last-value) must deliver at least 60% of the
    // correct predictions of a 640-entry all-stride table while using
    // a quarter of the stride fields.
    const Workload *m88k = suite().find("m88ksim");
    InserterConfig cfg;
    cfg.accuracyThresholdPercent = 70.0;
    Program annotated =
        annotatedProgram(*m88k, trainingInputsFor(*m88k, 0), cfg);

    PredictorConfig mono = paperFiniteConfig(false);
    mono.numEntries = 640;
    FiniteTableStats single = session().evaluateFiniteTable(
        *m88k, 0, annotated, VpPolicy::Profile, mono);

    HybridConfig hybrid;
    hybrid.stride.numEntries = 128;
    hybrid.stride.counterBits = 0;
    hybrid.lastValue.numEntries = 512;
    hybrid.lastValue.counterBits = 0;
    FiniteTableStats hyb =
        session().evaluateHybridTable(*m88k, 0, annotated, hybrid);

    EXPECT_GT(hyb.correctTaken, single.correctTaken * 6 / 10);
    EXPECT_GT(hyb.correctTaken, hyb.incorrectTaken * 10);
}

TEST_F(Extensions, HybridTableCountsCandidatesLikeProfilePolicy)
{
    const Workload *li = suite().find("li");
    Program annotated =
        annotatedProgram(*li, {1, 2}, InserterConfig{});
    FiniteTableStats prof = session().evaluateFiniteTable(
        *li, 0, annotated, VpPolicy::Profile,
        paperFiniteConfig(false));
    FiniteTableStats hyb = session().evaluateHybridTable(
        *li, 0, annotated, HybridConfig{});
    EXPECT_EQ(prof.candidates, hyb.candidates);
    EXPECT_EQ(prof.producers, hyb.producers);
}

TEST_F(Extensions, CriticalPathMatchesDataflowBoundPerWorkload)
{
    // The critical-path ILP is an upper bound on what the windowed
    // dataflow engine can extract (same dependence model, fewer
    // constraints).
    for (const char *name : {"compress", "m88ksim"}) {
        const Workload *w = suite().find(name);
        CriticalPathAnalyzer analyzer;
        session().runTrace(*w, 0, &analyzer);
        CriticalPathResult path = analyzer.finish();

        IlpConfig mc;
        mc.windowSize = 40;
        IlpResult windowed = session().evaluateIlp(
            *w, 0, w->program(), mc, VpPolicy::None,
            infiniteConfig());
        EXPECT_GT(path.dataflowIlp(), windowed.ilp()) << name;
        EXPECT_GT(path.pathLength, 0u) << name;
    }
}

TEST_F(Extensions, OracleCollapseShortensPredictableWorkloadsMost)
{
    auto path_ratio = [&](const char *name) {
        const Workload *w = suite().find(name);
        CriticalPathAnalyzer plain;
        CriticalPathConfig cfg;
        cfg.collapseCorrectPredictions = true;
        CriticalPathAnalyzer oracle(cfg);
        // Both analyzers share one fused replay of the cached trace.
        session().replayInto(*w, 0, {&plain, &oracle});
        uint64_t base = plain.finish().pathLength;
        uint64_t vp = oracle.finish().pathLength;
        return static_cast<double>(base) / static_cast<double>(vp);
    };
    // The highly predictable interpreter collapses far more than the
    // hash-dominated compressor.
    EXPECT_GT(path_ratio("m88ksim"), path_ratio("compress") * 2.0);
}

TEST_F(Extensions, TraceFileDrivesOfflineAnalysis)
{
    // Capture a trace once, then feed the critical-path analyzer and
    // the dataflow engine from the file; results must match the live
    // run exactly.
    const Workload *compress = suite().find("compress");
    std::string path = ::testing::TempDir() + "/compress.trace";
    {
        ColumnarTraceBuilder builder;
        runTrace(*compress, 1, &builder);
        ASSERT_EQ(writeColumnarTraceFile(path, builder.take()),
                  TraceIoStatus::Ok);
    }

    DataflowEngine live(IlpConfig{}, VpPolicy::None, nullptr);
    runTrace(*compress, 1, &live);

    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    DataflowEngine replayed(IlpConfig{}, VpPolicy::None, nullptr);
    reader->replay(&replayed);
    EXPECT_EQ(reader->status(), TraceIoStatus::Ok);

    EXPECT_EQ(live.result().cycles, replayed.result().cycles);
    EXPECT_EQ(live.result().instructions,
              replayed.result().instructions);
    std::remove(path.c_str());
}

TEST_F(Extensions, ContextPredictorWorksInDataflowEngine)
{
    // The FCM is a ValuePredictor like any other: under TakeAll it
    // must improve the interpreter benchmark's ILP over no-VP.
    const Workload *m88k = suite().find("m88ksim");
    IlpConfig mc;

    IlpResult base = evaluateIlp(m88k->program(), m88k->input(0), mc,
                                 VpPolicy::None, infiniteConfig());

    ContextConfig cfg;
    cfg.level1.numEntries = 0;
    cfg.level1.counterBits = 2;
    cfg.level1.counterInit = 1;
    ContextPredictor fcm(cfg);
    DataflowEngine engine(mc, VpPolicy::Fsm, &fcm);
    runTrace(*m88k, 0, &engine);

    EXPECT_GT(engine.result().ilp(), base.ilp());
    EXPECT_GT(engine.result().correctUsed,
              engine.result().incorrectUsed * 5);
}

TEST_F(Extensions, CriticalPathCensusCoversWholePath)
{
    const Workload *li = suite().find("li");
    CriticalPathAnalyzer analyzer;
    session().runTrace(*li, 0, &analyzer);
    CriticalPathResult r = analyzer.finish();
    uint64_t census_total = 0;
    for (const PathMember &m : r.members)
        census_total += m.occurrences;
    EXPECT_EQ(census_total, r.pathLength);
}

} // namespace
} // namespace vpprof
