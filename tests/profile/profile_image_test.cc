/**
 * @file
 * Unit tests for ProfileImage: derived ratios, merge, serialization.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "profile/profile_image.hh"

namespace vpprof
{
namespace
{

TEST(PcProfile, AccuracyPercent)
{
    PcProfile p;
    EXPECT_DOUBLE_EQ(p.accuracyPercent(), 0.0);
    p.attempts = 200;
    p.correct = 150;
    EXPECT_DOUBLE_EQ(p.accuracyPercent(), 75.0);
}

TEST(PcProfile, StrideEfficiencyPercent)
{
    PcProfile p;
    EXPECT_DOUBLE_EQ(p.strideEfficiencyPercent(), 0.0);
    p.attempts = 100;
    p.correct = 50;
    p.correctNonZeroStride = 40;
    EXPECT_DOUBLE_EQ(p.strideEfficiencyPercent(), 80.0);
}

TEST(PcProfile, LastValueAccuracyPercent)
{
    PcProfile p;
    p.lastValueAttempts = 10;
    p.lastValueCorrect = 3;
    EXPECT_DOUBLE_EQ(p.lastValueAccuracyPercent(), 30.0);
}

TEST(ProfileImage, AtCreatesAndFindReturns)
{
    ProfileImage img("prog");
    EXPECT_EQ(img.find(5), nullptr);
    img.at(5).executions = 3;
    ASSERT_NE(img.find(5), nullptr);
    EXPECT_EQ(img.find(5)->executions, 3u);
    EXPECT_EQ(img.size(), 1u);
    EXPECT_EQ(img.programName(), "prog");
}

TEST(ProfileImage, MergeSumsCounters)
{
    ProfileImage a("p"), b("p");
    a.at(1).attempts = 10;
    a.at(1).correct = 5;
    b.at(1).attempts = 20;
    b.at(1).correct = 15;
    b.at(2).attempts = 7;
    a.merge(b);
    EXPECT_EQ(a.find(1)->attempts, 30u);
    EXPECT_EQ(a.find(1)->correct, 20u);
    EXPECT_EQ(a.find(2)->attempts, 7u);
    EXPECT_EQ(a.size(), 2u);
}

TEST(ProfileImage, SaveLoadRoundTrip)
{
    ProfileImage img("roundtrip");
    PcProfile &p = img.at(42);
    p.executions = 100;
    p.attempts = 99;
    p.correct = 80;
    p.correctNonZeroStride = 60;
    p.lastValueAttempts = 99;
    p.lastValueCorrect = 33;
    p.opClass = OpClass::IntLoad;
    img.at(7).executions = 5;

    std::stringstream ss;
    img.save(ss);
    ProfileImage loaded = ProfileImage::load(ss);

    EXPECT_EQ(loaded.programName(), "roundtrip");
    EXPECT_EQ(loaded.size(), 2u);
    const PcProfile *q = loaded.find(42);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->executions, 100u);
    EXPECT_EQ(q->attempts, 99u);
    EXPECT_EQ(q->correct, 80u);
    EXPECT_EQ(q->correctNonZeroStride, 60u);
    EXPECT_EQ(q->lastValueAttempts, 99u);
    EXPECT_EQ(q->lastValueCorrect, 33u);
    EXPECT_EQ(q->opClass, OpClass::IntLoad);
}

/** The pcs of an image's entries, in iteration order. */
std::vector<uint64_t>
pcsOf(const ProfileImage &img)
{
    std::vector<uint64_t> pcs;
    for (const auto &[pc, p] : img.entries())
        pcs.push_back(pc);
    return pcs;
}

PcProfile
profileOf(uint64_t seed)
{
    PcProfile p;
    p.executions = 10 * seed + 1;
    p.attempts = 5 * seed;
    p.correct = 3 * seed;
    p.correctNonZeroStride = seed;
    p.lastValueAttempts = 5 * seed;
    p.lastValueCorrect = 2 * seed;
    p.opClass = seed % 2 ? OpClass::IntLoad : OpClass::FpAlu;
    return p;
}

TEST(ProfileImage, AtOutOfOrderKeepsEntriesAscending)
{
    // SketchProfileCollector's hot set and a hand-written image file
    // both hand at() pcs in no particular order.
    ProfileImage img("p");
    for (uint64_t pc : {9, 3, 7, 1, 12, 5, 0})
        img.at(pc) = profileOf(pc);
    EXPECT_EQ(pcsOf(img), (std::vector<uint64_t>{0, 1, 3, 5, 7, 9, 12}));

    // Touching an existing pc creates nothing and finds its counters.
    EXPECT_EQ(img.at(7), profileOf(7));
    EXPECT_EQ(img.size(), 7u);
    for (const auto &[pc, p] : img.entries())
        EXPECT_EQ(p, profileOf(pc)) << "pc " << pc;
}

TEST(ProfileImage, MergeEqualsTheEntryByEntrySum)
{
    auto sum = [](PcProfile a, const PcProfile &b) {
        a.executions += b.executions;
        a.attempts += b.attempts;
        a.correct += b.correct;
        a.correctNonZeroStride += b.correctNonZeroStride;
        a.lastValueCorrect += b.lastValueCorrect;
        a.lastValueAttempts += b.lastValueAttempts;
        a.opClass = b.opClass;
        return a;
    };
    ProfileImage a("p"), b("p"), disjoint("p");
    for (uint64_t pc : {1, 4, 6, 10})
        a.at(pc) = profileOf(pc);
    for (uint64_t pc : {2, 4, 10, 20})
        b.at(pc) = profileOf(pc + 100);
    for (uint64_t pc : {0, 30, 40})
        disjoint.at(pc) = profileOf(pc + 7);

    ProfileImage overlapping = a;
    overlapping.merge(b);
    ASSERT_EQ(pcsOf(overlapping),
              (std::vector<uint64_t>{1, 2, 4, 6, 10, 20}));
    for (const auto &[pc, p] : overlapping.entries()) {
        const PcProfile *mine = a.find(pc);
        const PcProfile *theirs = b.find(pc);
        PcProfile expected = mine ? *mine : PcProfile{};
        if (theirs)
            expected = sum(expected, *theirs);
        EXPECT_EQ(p, expected) << "pc " << pc;
    }

    ProfileImage apart = a;
    apart.merge(disjoint);
    ASSERT_EQ(pcsOf(apart), (std::vector<uint64_t>{0, 1, 4, 6, 10, 30, 40}));
    for (const auto &[pc, p] : apart.entries()) {
        const PcProfile *mine = a.find(pc);
        EXPECT_EQ(p, mine ? *mine : *disjoint.find(pc)) << "pc " << pc;
    }

    ProfileImage fresh("p");
    fresh.merge(b);
    EXPECT_TRUE(fresh == b);
    fresh.merge(ProfileImage("p"));
    EXPECT_TRUE(fresh == b);
}

TEST(ProfileImage, SaveTextIsByteIdenticalThroughLoad)
{
    ProfileImage img("bytes");
    for (uint64_t pc : {42, 7, 300})
        img.at(pc) = profileOf(pc % 10);
    const std::string expected =
        "# vpprof profile image v1\n"
        "program bytes\n"
        "# pc executions attempts correct correctNonZeroStride"
        " lvAttempts lvCorrect opclass\n"
        "7 71 35 21 7 35 14 1\n"
        "42 21 10 6 2 10 4 2\n"
        "300 1 0 0 0 0 0 2\n";
    std::stringstream first;
    img.save(first);
    EXPECT_EQ(first.str(), expected);

    ProfileImage loaded = ProfileImage::load(first);
    EXPECT_TRUE(loaded == img);
    std::stringstream second;
    loaded.save(second);
    EXPECT_EQ(second.str(), expected);
}

TEST(ProfileImage, LoadRejectsMissingHeader)
{
    std::stringstream ss("1 9 5 4 2 5 3 0\n");
    EXPECT_DEATH(ProfileImage::load(ss), "header");
}

TEST(ProfileImage, LoadRejectsMalformedLine)
{
    std::stringstream ss("program p\nnot-a-number 1 2\n");
    EXPECT_DEATH(ProfileImage::load(ss), "malformed");
}

TEST(ProfileImage, LoadRejectsInconsistentCounters)
{
    // correct > attempts is impossible.
    std::stringstream ss("program p\n1 10 5 7 0 0 0 0\n");
    EXPECT_DEATH(ProfileImage::load(ss), "inconsistent");
}

TEST(ProfileImage, LoadSkipsCommentsAndBlankLines)
{
    std::stringstream ss("# comment\nprogram p\n\n# more\n3 1 0 0 0 0 0 0\n");
    ProfileImage img = ProfileImage::load(ss);
    EXPECT_EQ(img.size(), 1u);
    EXPECT_NE(img.find(3), nullptr);
}

TEST(CommonPcs, IntersectionRequiresAttemptsInAllRuns)
{
    ProfileImage a("p"), b("p");
    a.at(1).attempts = 5;
    a.at(2).attempts = 5;
    a.at(3).executions = 1;  // present but zero attempts
    b.at(1).attempts = 5;
    b.at(3).attempts = 5;
    std::vector<uint64_t> common = commonPcs({a, b});
    ASSERT_EQ(common.size(), 1u);
    EXPECT_EQ(common[0], 1u);
}

TEST(CommonPcs, EmptyInputGivesEmptyResult)
{
    EXPECT_TRUE(commonPcs({}).empty());
}

TEST(CommonPcs, SingleImageReturnsItsAttemptedPcs)
{
    ProfileImage a("p");
    a.at(1).attempts = 1;
    a.at(9).attempts = 1;
    EXPECT_EQ(commonPcs({a}).size(), 2u);
}

} // namespace
} // namespace vpprof
