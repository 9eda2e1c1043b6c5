/**
 * @file
 * The VM's record stream, pinned on every (workload, input) key: an
 * FNV-1a digest over every field of every TraceRecord the Machine
 * emits through its virtual TraceSink interface. The digests were
 * taken from the interpreter before its loop became a template over
 * the sink type, so any change in what the loop emits shows here. The
 * same pass feeds a ProfileCollector through the virtual interface,
 * and its image must equal Session::collectProfile's, which runs the
 * loop on the concrete collector.
 */

#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "common/checksum.hh"
#include "core/session.hh"
#include "profile/profile_collector.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace vpprof
{
namespace
{

/**
 * Digests every record field by field, so struct padding never enters
 * the hash.
 */
class RecordDigestSink : public TraceSink
{
  public:
    void
    record(const TraceRecord &rec) override
    {
        mix(rec.seq);
        mix(rec.pc);
        mix(static_cast<uint8_t>(rec.op));
        mix(static_cast<uint8_t>(rec.directive));
        mix(static_cast<uint8_t>(rec.writesReg));
        mix(rec.dest);
        mix(rec.value);
        mix(rec.numSrcs);
        mix(rec.srcs[0]);
        mix(rec.srcs[1]);
        mix(static_cast<uint8_t>(rec.isMem));
        mix(rec.memAddr);
        ++records_;
    }

    uint64_t digest() const { return digest_; }
    uint64_t records() const { return records_; }

  private:
    template <class T>
    void
    mix(T field)
    {
        static_assert(std::is_integral_v<T>);
        digest_ = fnv1a64(&field, sizeof field, digest_);
    }

    uint64_t digest_ = kFnv1a64Seed;
    uint64_t records_ = 0;
};

struct StreamCase
{
    std::string workload;
    size_t input;
};

void
PrintTo(const StreamCase &c, std::ostream *os)
{
    *os << c.workload << "/input" << c.input;
}

std::vector<StreamCase>
allStreamCases()
{
    std::vector<StreamCase> cases;
    WorkloadSuite suite;
    for (const auto &w : suite.all()) {
        for (size_t i = 0; i < w->numInputSets(); ++i)
            cases.push_back({std::string(w->name()), i});
    }
    return cases;
}

/** The record-stream digest of each key, pinned from the VM whose
 *  loop called the sink through its virtual interface only. */
uint64_t
pinnedDigest(const StreamCase &c)
{
    static const std::map<std::string, uint64_t> pinned = {
        {"go.in0", 0x1e336f303ef5480aull},
        {"go.in1", 0x044907355c4a5181ull},
        {"go.in2", 0xd14ce9dc8d93a3f9ull},
        {"go.in3", 0x5a16d27c2090782full},
        {"go.in4", 0xb93b00cd55c228c6ull},
        {"m88ksim.in0", 0x67c2026c34fd1241ull},
        {"m88ksim.in1", 0x7bb24c029fa7f532ull},
        {"m88ksim.in2", 0x9beb43b913490e16ull},
        {"m88ksim.in3", 0xc2f444d56b881a9dull},
        {"m88ksim.in4", 0xbb9a7ccda03518dcull},
        {"gcc.in0", 0x89aada268bb2a981ull},
        {"gcc.in1", 0x3ec6f2cd0378335eull},
        {"gcc.in2", 0xac9dbddbf1433d9eull},
        {"gcc.in3", 0x10ef76b3dabfc564ull},
        {"gcc.in4", 0x875f9515b5500236ull},
        {"compress.in0", 0x209b3741c1cb6380ull},
        {"compress.in1", 0xaa682fc88ddd14f0ull},
        {"compress.in2", 0x5f5958209b790310ull},
        {"compress.in3", 0x0df043bce7f26156ull},
        {"compress.in4", 0xbac11e26e47e0a03ull},
        {"li.in0", 0x9fc498065bfbf77bull},
        {"li.in1", 0x91f4595915ead023ull},
        {"li.in2", 0xcf7a49c87479dba6ull},
        {"li.in3", 0x09bd0d6deb330ee4ull},
        {"li.in4", 0xae38897528c3861aull},
        {"ijpeg.in0", 0x92df97beb7e4c7c9ull},
        {"ijpeg.in1", 0x2483050d265bbbb4ull},
        {"ijpeg.in2", 0x59760f9641befd84ull},
        {"ijpeg.in3", 0x017c3691c371af63ull},
        {"ijpeg.in4", 0x71b9fa66e6b9a258ull},
        {"perl.in0", 0xac309b24c27dc4e7ull},
        {"perl.in1", 0xbbeb7145e9d798ceull},
        {"perl.in2", 0xcd2eca4e2b78cc08ull},
        {"perl.in3", 0x76f52894f962796full},
        {"perl.in4", 0x75f0763ac3657d7cull},
        {"vortex.in0", 0x0bdb5d179769e393ull},
        {"vortex.in1", 0x7c65c0ea32466341ull},
        {"vortex.in2", 0xec5aa55e0eb39221ull},
        {"vortex.in3", 0x0bf7942b99bdda0full},
        {"vortex.in4", 0x2b6774523c00646full},
        {"mgrid.in0", 0x3de0c30b1808fa5bull},
        {"mgrid.in1", 0x34db481de1320441ull},
        {"mgrid.in2", 0x9e0e59a805259fd7ull},
        {"mgrid.in3", 0x8f45af5e58c70562ull},
        {"mgrid.in4", 0x490d4660f4d9c717ull},
    };
    return pinned.at(c.workload + ".in" + std::to_string(c.input));
}

class RecordStream : public ::testing::TestWithParam<StreamCase>
{
  protected:
    static const WorkloadSuite &
    suite()
    {
        static WorkloadSuite s;
        return s;
    }
};

TEST_P(RecordStream, DigestMatchesPinnedAndCollectorPathsAgree)
{
    const StreamCase &c = GetParam();
    const Workload *w = suite().find(c.workload);
    ASSERT_NE(w, nullptr);

    RecordDigestSink digest;
    ProfileCollector virtualCollector{std::string(w->name())};
    MultiTraceSink both;
    both.addSink(&digest);
    both.addSink(&virtualCollector);
    Machine m(w->program(), w->input(c.input));
    RunResult r = m.run(&both, w->maxInstructions());
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(digest.records(), r.instructionsExecuted);
    EXPECT_EQ(digest.digest(), pinnedDigest(c));

    Session session;
    const ProfileImage &concrete = session.collectProfile(*w, c.input);
    EXPECT_TRUE(concrete == virtualCollector.snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RecordStream, ::testing::ValuesIn(allStreamCases()),
    [](const ::testing::TestParamInfo<StreamCase> &info) {
        return info.param.workload + "_input" +
               std::to_string(info.param.input);
    });

} // namespace
} // namespace vpprof
