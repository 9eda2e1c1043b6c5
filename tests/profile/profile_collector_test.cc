/**
 * @file
 * Unit tests for the profile collector against hand-built traces, and
 * its twins over every workload: an image built from infinite
 * StridePredictor / LastValuePredictor objects, and a sketch collector
 * large enough to hold every pc.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/experiment.hh"
#include "predictors/last_value_predictor.hh"
#include "predictors/stride_predictor.hh"
#include "profile/profile_collector.hh"
#include "profile/sampling/sketch_collector.hh"

namespace vpprof
{
namespace
{

/** Feed one value-producing record to the collector. */
void
feed(ProfileCollector &collector, uint64_t pc, int64_t value,
     Opcode op = Opcode::Add)
{
    TraceRecord rec;
    rec.pc = pc;
    rec.op = op;
    rec.writesReg = true;
    rec.dest = 1;
    rec.value = value;
    collector.record(rec);
}

TEST(ProfileCollector, IgnoresNonProducers)
{
    ProfileCollector c("p");
    TraceRecord rec;
    rec.pc = 1;
    rec.op = Opcode::St;
    rec.writesReg = false;
    c.record(rec);
    EXPECT_EQ(c.producersSeen(), 0u);
    EXPECT_TRUE(c.snapshot().empty());
}

TEST(ProfileCollector, FirstExecutionIsNotAnAttempt)
{
    ProfileCollector c("p");
    feed(c, 1, 42);
    const ProfileImage image = c.snapshot();
    const PcProfile *p = image.find(1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->executions, 1u);
    EXPECT_EQ(p->attempts, 0u);
}

TEST(ProfileCollector, RepeatingValueIsFullyPredictable)
{
    ProfileCollector c("p");
    for (int i = 0; i < 11; ++i)
        feed(c, 1, 7);
    const ProfileImage image = c.snapshot();
    const PcProfile *p = image.find(1);
    EXPECT_EQ(p->executions, 11u);
    EXPECT_EQ(p->attempts, 10u);
    EXPECT_EQ(p->correct, 10u);
    EXPECT_DOUBLE_EQ(p->accuracyPercent(), 100.0);
    EXPECT_DOUBLE_EQ(p->strideEfficiencyPercent(), 0.0);
    EXPECT_EQ(p->lastValueCorrect, 10u);
}

TEST(ProfileCollector, StridingValueHasFullStrideEfficiency)
{
    ProfileCollector c("p");
    for (int i = 0; i < 12; ++i)
        feed(c, 1, i * 5);
    const ProfileImage image = c.snapshot();
    const PcProfile *p = image.find(1);
    // Attempts from the 2nd execution; correct from the 3rd.
    EXPECT_EQ(p->attempts, 11u);
    EXPECT_EQ(p->correct, 10u);
    EXPECT_EQ(p->correctNonZeroStride, 10u);
    EXPECT_DOUBLE_EQ(p->strideEfficiencyPercent(), 100.0);
    // The companion last-value predictor never gets one right.
    EXPECT_EQ(p->lastValueCorrect, 0u);
}

TEST(ProfileCollector, RandomlikeValuesAreUnpredictable)
{
    ProfileCollector c("p");
    uint64_t state = 1;
    for (int i = 0; i < 50; ++i)
        feed(c, 1, static_cast<int64_t>(splitmix64(state)));
    const ProfileImage image = c.snapshot();
    const PcProfile *p = image.find(1);
    EXPECT_LT(p->accuracyPercent(), 10.0);
}

TEST(ProfileCollector, PcsAreIndependent)
{
    ProfileCollector c("p");
    for (int i = 0; i < 10; ++i) {
        feed(c, 1, 7);
        feed(c, 2, i);
    }
    const ProfileImage image = c.snapshot();
    EXPECT_DOUBLE_EQ(image.find(1)->accuracyPercent(), 100.0 * 9 / 9);
    // pc 2 strides: correct from 3rd execution on.
    EXPECT_EQ(image.find(2)->correct, 8u);
}

TEST(ProfileCollector, RecordsOpClass)
{
    ProfileCollector c("p");
    feed(c, 1, 5, Opcode::Ld);
    feed(c, 2, 5, Opcode::Fadd);
    const ProfileImage image = c.snapshot();
    EXPECT_EQ(image.find(1)->opClass, OpClass::IntLoad);
    EXPECT_EQ(image.find(2)->opClass, OpClass::FpAlu);
}

TEST(ProfileCollector, TakeImageMovesAndNames)
{
    ProfileCollector c("myprog");
    feed(c, 1, 1);
    ProfileImage img = c.takeImage();
    EXPECT_EQ(img.programName(), "myprog");
    EXPECT_EQ(img.size(), 1u);
}

TEST(ProfileCollector, CountsProducersSeen)
{
    ProfileCollector c("p");
    for (int i = 0; i < 5; ++i)
        feed(c, 1, i);
    EXPECT_EQ(c.producersSeen(), 5u);
}

TEST(ProfileCollector, TakeImageResetsToAPristineCollector)
{
    ProfileCollector c("myprog");
    for (int i = 0; i < 10; ++i)
        feed(c, 1, 7);
    ProfileImage first = c.takeImage();

    // Post-takeImage the collector is reusable: empty image, zeroed
    // producer count, name retained.
    EXPECT_EQ(c.producersSeen(), 0u);
    EXPECT_TRUE(c.snapshot().empty());
    EXPECT_EQ(c.snapshot().programName(), "myprog");

    // No predictor state leaks across the reset: re-feeding the same
    // stream reproduces the first image bit for bit (a warm leftover
    // entry would turn pc 1's first execution into an attempt).
    for (int i = 0; i < 10; ++i)
        feed(c, 1, 7);
    EXPECT_EQ(c.producersSeen(), 10u);
    ProfileImage second = c.takeImage();
    EXPECT_TRUE(second == first);
    EXPECT_EQ(second.find(1)->attempts, 9u);
}

/**
 * The profile of Section 3.2 computed the long way: an image keyed by
 * pc, fed by an infinite stride predictor and an infinite last-value
 * predictor through their own predict/update interfaces.
 */
class PredictorReferenceCollector : public TraceSink
{
  public:
    PredictorReferenceCollector()
        : stride_(infinite()), lastValue_(infinite())
    {
    }

    void
    record(const TraceRecord &rec) override
    {
        if (!rec.writesReg)
            return;
        PcProfile &prof = image_.at(rec.pc);
        prof.opClass = classOf(rec.op);
        ++prof.executions;

        Prediction sp = stride_.predict(rec.pc);
        if (sp.hit) {
            ++prof.attempts;
            if (sp.value == rec.value) {
                ++prof.correct;
                if (sp.usedNonZeroStride)
                    ++prof.correctNonZeroStride;
            }
        }
        stride_.update(rec.pc, rec.value, sp.hit && sp.value == rec.value);

        Prediction lp = lastValue_.predict(rec.pc);
        if (lp.hit) {
            ++prof.lastValueAttempts;
            if (lp.value == rec.value)
                ++prof.lastValueCorrect;
        }
        lastValue_.update(rec.pc, rec.value,
                          lp.hit && lp.value == rec.value);
    }

    const ProfileImage &image() const { return image_; }

  private:
    static PredictorConfig
    infinite()
    {
        PredictorConfig cfg;
        cfg.numEntries = 0;
        cfg.counterBits = 0;
        return cfg;
    }

    ProfileImage image_;
    StridePredictor stride_;
    LastValuePredictor lastValue_;
};

TEST(ProfileCollectorTwin, MatchesInfinitePredictorsOnEveryWorkload)
{
    WorkloadSuite suite;
    size_t keys = 0;
    for (const auto &w : suite.all()) {
        for (size_t input = 0; input < w->numInputSets(); ++input) {
            SCOPED_TRACE(std::string(w->name()) + ".in" +
                         std::to_string(input));
            ++keys;
            ProfileCollector dense{std::string(w->name())};
            PredictorReferenceCollector reference;
            SketchConfig everyPc;
            everyPc.capacity = w->program().size();
            everyPc.promoteThreshold = 1;  // resident from first sight
            SketchProfileCollector sketch(std::string(w->name()),
                                          everyPc);
            MultiTraceSink all;
            all.addSink(&dense);
            all.addSink(&reference);
            all.addSink(&sketch);
            runProgram(w->program(), w->input(input), &all,
                       w->maxInstructions());

            ProfileImage image = dense.takeImage();
            EXPECT_FALSE(image.empty());
            EXPECT_TRUE(image == reference.image());
            EXPECT_TRUE(sketch.takeImage() == image);
        }
    }
    EXPECT_EQ(keys, 45u);
}

} // namespace
} // namespace vpprof
