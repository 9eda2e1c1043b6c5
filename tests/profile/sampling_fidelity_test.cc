/**
 * @file
 * Unit tests for the fidelity comparator (directive agreement, ratio
 * error, downstream delta) and the ConvergenceTracker's early-exit
 * profiling.
 */

#include <gtest/gtest.h>

#include <vector>

#include "profile/profile_collector.hh"
#include "profile/sampling/convergence.hh"
#include "profile/sampling/fidelity.hh"

namespace vpprof
{
namespace
{

TraceRecord
producer(uint64_t seq, uint64_t pc, int64_t value)
{
    TraceRecord rec;
    rec.seq = seq;
    rec.pc = pc;
    rec.op = Opcode::Add;
    rec.writesReg = true;
    rec.dest = 1;
    rec.value = value;
    return rec;
}

/** Exact profile of a two-pc trace: pc 1 constant, pc 2 striding. */
ProfileImage
referenceImage(size_t reps)
{
    ProfileCollector c("p");
    for (size_t i = 0; i < reps; ++i) {
        c.record(producer(2 * i, 1, 7));
        c.record(producer(2 * i + 1, 2, static_cast<int64_t>(i) * 4));
    }
    return c.takeImage();
}

TEST(ProfileFidelity, IdenticalImagesAreAPerfectMatch)
{
    ProfileImage image = referenceImage(100);
    ProfileFidelity f = compareProfiles(image, image);
    EXPECT_EQ(f.exactPcs, 2u);
    EXPECT_EQ(f.sampledPcs, 2u);
    EXPECT_EQ(f.agreeingPcs, 2u);
    EXPECT_DOUBLE_EQ(f.directiveAgreementPercent(), 100.0);
    EXPECT_DOUBLE_EQ(f.weightedAgreementPercent(), 100.0);
    EXPECT_DOUBLE_EQ(f.meanAccuracyErrorPct, 0.0);
    EXPECT_DOUBLE_EQ(f.meanStrideRatioErrorPct, 0.0);
}

TEST(ProfileFidelity, MissingTaggedPcIsADisagreement)
{
    // Both reference pcs classify above the default thresholds; an
    // empty sampled image classifies them None -> zero agreement.
    ProfileImage exact = referenceImage(100);
    DirectiveRule rule;
    for (const auto &[pc, p] : exact.entries())
        ASSERT_NE(classifyDirective(p, rule), Directive::None) << pc;

    ProfileImage empty("p");
    ProfileFidelity f = compareProfiles(exact, empty, rule);
    EXPECT_EQ(f.exactPcs, 2u);
    EXPECT_EQ(f.agreeingPcs, 0u);
    EXPECT_DOUBLE_EQ(f.directiveAgreementPercent(), 0.0);
    EXPECT_DOUBLE_EQ(f.weightedAgreementPercent(), 0.0);
    EXPECT_GT(f.meanAccuracyErrorPct, 50.0);
}

TEST(ProfileFidelity, UntaggedPcsAgreeByDefault)
{
    // A pc below minAttempts is None in both images - agreement, not
    // a false disagreement.
    ProfileCollector c("p");
    c.record(producer(0, 1, 7));
    ProfileImage exact = c.takeImage();
    ProfileImage empty("p");
    ProfileFidelity f = compareProfiles(exact, empty);
    EXPECT_EQ(f.agreeingPcs, 1u);
    EXPECT_DOUBLE_EQ(f.directiveAgreementPercent(), 100.0);
}

TEST(ProfileFidelity, RatioErrorSeesPerturbedAccuracy)
{
    ProfileImage exact = referenceImage(100);
    ProfileImage perturbed = referenceImage(100);
    // Halve pc 1's correct count: accuracy drops from ~100% to ~50%.
    PcProfile &p = perturbed.at(1);
    p.correct /= 2;
    p.lastValueCorrect /= 2;

    ProfileFidelity f = compareProfiles(exact, perturbed);
    EXPECT_GT(f.meanAccuracyErrorPct, 10.0);
    EXPECT_LT(f.directiveAgreementPercent(), 100.0);
}

TEST(ProfileFidelity, EmptyExactImageIsVacuouslyPerfect)
{
    ProfileImage empty_a("p"), empty_b("p");
    ProfileFidelity f = compareProfiles(empty_a, empty_b);
    EXPECT_DOUBLE_EQ(f.directiveAgreementPercent(), 100.0);
    EXPECT_DOUBLE_EQ(f.weightedAgreementPercent(), 100.0);
}

TEST(DownstreamDelta, ComputesShareDeltas)
{
    DownstreamCounts exact{1000, 800, 100};
    DownstreamCounts sampled{1000, 700, 200};
    DownstreamDelta d = compareDownstream(exact, sampled);
    EXPECT_DOUBLE_EQ(d.exactCorrectPct, 80.0);
    EXPECT_DOUBLE_EQ(d.sampledCorrectPct, 70.0);
    EXPECT_DOUBLE_EQ(d.mispredictDeltaPct(), 10.0);
    EXPECT_DOUBLE_EQ(d.correctDeltaPct(), -10.0);
}

TEST(ConvergenceTracker, StableTraceConverges)
{
    ProfileCollector collector("p");
    ConvergenceConfig cfg;
    cfg.checkIntervalProducers = 100;
    cfg.stableChecks = 2;
    ConvergenceTracker tracker(collector, cfg);

    // One constant pc: its directive settles immediately, so snapshots
    // 2 and 3 both agree with their predecessor -> converged at the
    // third snapshot (300 producers).
    for (uint64_t i = 0; i < 1000; ++i)
        tracker.record(producer(i, 1, 7));

    EXPECT_TRUE(tracker.converged());
    EXPECT_EQ(tracker.producersAtConvergence(), 300u);
    EXPECT_GE(tracker.snapshotsTaken(), 3u);
    EXPECT_DOUBLE_EQ(tracker.lastAgreementPercent(), 100.0);
}

TEST(ConvergenceTracker, EarlyExitStopsFeedingTheCollector)
{
    ProfileCollector collector("p");
    ConvergenceConfig cfg;
    cfg.checkIntervalProducers = 100;
    cfg.stableChecks = 2;
    cfg.earlyExit = true;
    ConvergenceTracker tracker(collector, cfg);

    for (uint64_t i = 0; i < 1000; ++i)
        tracker.record(producer(i, 1, 7));

    EXPECT_TRUE(tracker.converged());
    EXPECT_EQ(tracker.producersAtConvergence(), 300u);
    EXPECT_EQ(tracker.recordsSkipped(), 700u);
    EXPECT_EQ(collector.producersSeen(), 300u);
    // The truncated profile still tags the pc the same way.
    const ProfileImage image = collector.snapshot();
    EXPECT_EQ(classifyDirective(*image.find(1), cfg.rule),
              Directive::LastValue);
}

TEST(ConvergenceTracker, ShortTraceNeverConverges)
{
    ProfileCollector collector("p");
    ConvergenceConfig cfg;
    cfg.checkIntervalProducers = 100;
    ConvergenceTracker tracker(collector, cfg);
    for (uint64_t i = 0; i < 50; ++i)
        tracker.record(producer(i, 1, 7));
    EXPECT_FALSE(tracker.converged());
    EXPECT_EQ(tracker.snapshotsTaken(), 0u);
    EXPECT_EQ(tracker.producersAtConvergence(), 0u);
    EXPECT_EQ(collector.producersSeen(), 50u);
}

TEST(ConvergenceTracker, NonProducersPassThroughUncounted)
{
    ProfileCollector collector("p");
    ConvergenceConfig cfg;
    cfg.checkIntervalProducers = 10;
    ConvergenceTracker tracker(collector, cfg);
    TraceRecord store;
    store.pc = 9;
    store.op = Opcode::St;
    store.writesReg = false;
    for (int i = 0; i < 100; ++i)
        tracker.record(store);
    EXPECT_EQ(tracker.snapshotsTaken(), 0u);
    EXPECT_EQ(collector.producersSeen(), 0u);
}

} // namespace
} // namespace vpprof
