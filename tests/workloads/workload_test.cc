/**
 * @file
 * End-to-end semantic checks of every workload: each assembly program,
 * run on each input set, must halt and reproduce the checksum computed
 * by its native C++ reference implementation. This simultaneously
 * validates the workload programs and the VM.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "report/json.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace vpprof
{
namespace
{

struct RunCase
{
    std::string workload;
    size_t input;
};

void
PrintTo(const RunCase &c, std::ostream *os)
{
    *os << c.workload << "/input" << c.input;
}

class WorkloadChecksum : public ::testing::TestWithParam<RunCase>
{
  protected:
    static const WorkloadSuite &
    suite()
    {
        static WorkloadSuite s;
        return s;
    }
};

TEST_P(WorkloadChecksum, MatchesReferenceImplementation)
{
    const RunCase &c = GetParam();
    const Workload *w = suite().find(c.workload);
    ASSERT_NE(w, nullptr);
    Machine m(w->program(), w->input(c.input));
    RunResult r = m.run(nullptr, w->maxInstructions());
    ASSERT_TRUE(r.halted) << "hit the instruction limit";
    EXPECT_EQ(m.memory().load(kChecksumAddr),
              w->referenceChecksum(c.input));
}

/** Instructions each (workload, input) retires, pinned from a run on
 *  the hash-map Memory the paged one replaced. */
uint64_t
pinnedInstructions(const RunCase &c)
{
    static const std::map<std::string, uint64_t> pinned = {
        {"go.in0", 876537},
        {"go.in1", 728847},
        {"go.in2", 1009079},
        {"go.in3", 785716},
        {"go.in4", 910200},
        {"m88ksim.in0", 1232450},
        {"m88ksim.in1", 952450},
        {"m88ksim.in2", 1428450},
        {"m88ksim.in3", 1064450},
        {"m88ksim.in4", 1316450},
        {"gcc.in0", 909094},
        {"gcc.in1", 683932},
        {"gcc.in2", 1190231},
        {"gcc.in3", 787458},
        {"gcc.in4", 1053406},
        {"compress.in0", 1129465},
        {"compress.in1", 862743},
        {"compress.in2", 1399421},
        {"compress.in3", 992915},
        {"compress.in4", 1228198},
        {"li.in0", 1529691},
        {"li.in1", 1004825},
        {"li.in2", 1946465},
        {"li.in3", 945622},
        {"li.in4", 1787048},
        {"ijpeg.in0", 1211734},
        {"ijpeg.in1", 883548},
        {"ijpeg.in2", 1363219},
        {"ijpeg.in3", 1041249},
        {"ijpeg.in4", 1010021},
        {"perl.in0", 1074509},
        {"perl.in1", 869708},
        {"perl.in2", 1282132},
        {"perl.in3", 948041},
        {"perl.in4", 1216080},
        {"vortex.in0", 1350552},
        {"vortex.in1", 1055758},
        {"vortex.in2", 1654926},
        {"vortex.in3", 1203853},
        {"vortex.in4", 1504614},
        {"mgrid.in0", 815903},
        {"mgrid.in1", 659281},
        {"mgrid.in2", 972525},
        {"mgrid.in3", 737592},
        {"mgrid.in4", 894214},
    };
    return pinned.at(c.workload + ".in" + std::to_string(c.input));
}

TEST_P(WorkloadChecksum, VerifyJobReportsThePinnedTriple)
{
    // The daemon's `verify` answer (instructions, halted, checksum)
    // on every key: the instruction count a memory-layout change must
    // not move, and the reference implementation's checksum.
    const RunCase &c = GetParam();
    const Workload *w = suite().find(c.workload);
    ASSERT_NE(w, nullptr);
    Session session;
    daemon::Dispatcher dispatcher(session, suite());
    daemon::Request req;
    req.cmd = daemon::Command::Verify;
    req.workload = c.workload;
    req.input = c.input;
    daemon::JobOutcome outcome = dispatcher.execute(req);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    auto result = report::parseJson("{" + outcome.resultFields + "}");
    ASSERT_TRUE(result);
    EXPECT_EQ(result->numberOr("instructions", -1),
              static_cast<double>(pinnedInstructions(c)));
    const report::JsonValue *halted = result->get("halted");
    ASSERT_TRUE(halted && halted->isBool());
    EXPECT_TRUE(halted->asBool());
    EXPECT_EQ(result->numberOr("checksum", -1),
              static_cast<double>(w->referenceChecksum(c.input)));
    const report::JsonValue *matches = result->get("matches");
    ASSERT_TRUE(matches && matches->isBool());
    EXPECT_TRUE(matches->asBool());
}

std::vector<RunCase>
allRunCases()
{
    std::vector<RunCase> cases;
    WorkloadSuite suite;
    for (const auto &w : suite.all()) {
        for (size_t i = 0; i < w->numInputSets(); ++i)
            cases.push_back({std::string(w->name()), i});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadChecksum, ::testing::ValuesIn(allRunCases()),
    [](const ::testing::TestParamInfo<RunCase> &info) {
        return info.param.workload + "_input" +
               std::to_string(info.param.input);
    });

TEST(WorkloadSuite, HasTheNinePaperBenchmarks)
{
    WorkloadSuite suite;
    ASSERT_EQ(suite.all().size(), 9u);
    for (const char *name :
         {"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
          "vortex", "mgrid"}) {
        EXPECT_NE(suite.find(name), nullptr) << name;
    }
    EXPECT_EQ(suite.find("bogus"), nullptr);
}

TEST(WorkloadSuite, EveryWorkloadHasAtLeastFiveInputs)
{
    WorkloadSuite suite;
    for (const auto &w : suite.all())
        EXPECT_GE(w->numInputSets(), 5u) << w->name();
}

TEST(WorkloadSuite, ProgramsValidateAndHaveProducers)
{
    WorkloadSuite suite;
    for (const auto &w : suite.all()) {
        const Program &p = w->program();
        EXPECT_GT(p.size(), 10u) << w->name();
        EXPECT_GT(p.countValueProducers(), 5u) << w->name();
        EXPECT_EQ(p.countTagged(), 0u) << w->name()
            << ": phase-1 programs must carry no directives";
    }
}

TEST(WorkloadSuite, OnlyMgridIsFloatingPointAndPhased)
{
    WorkloadSuite suite;
    for (const auto &w : suite.all()) {
        if (w->name() == "mgrid") {
            EXPECT_TRUE(w->isFloatingPoint());
            ASSERT_TRUE(w->phaseSplitPc().has_value());
            EXPECT_LT(*w->phaseSplitPc(), w->program().size());
        } else {
            EXPECT_FALSE(w->isFloatingPoint()) << w->name();
            EXPECT_FALSE(w->phaseSplitPc().has_value()) << w->name();
        }
    }
}

TEST(WorkloadSuite, DifferentInputsGiveDifferentChecksums)
{
    // Input sets must actually differ, or the Section 4 cross-input
    // study is vacuous.
    WorkloadSuite suite;
    for (const auto &w : suite.all()) {
        EXPECT_NE(w->referenceChecksum(0), w->referenceChecksum(1))
            << w->name();
    }
}

TEST(WorkloadSuite, InputsAreDeterministic)
{
    WorkloadSuite suite;
    const Workload *go = suite.find("go");
    MemoryImage a = go->input(0);
    MemoryImage b = go->input(0);
    EXPECT_EQ(a.words().size(), b.words().size());
    for (const auto &[addr, value] : a.words())
        EXPECT_EQ(b.words().at(addr), value);
}

TEST(WorkloadSuite, ProgramIsSharedAcrossInputs)
{
    // The static program object must be the same for every input set
    // (stable instruction addresses across runs).
    WorkloadSuite suite;
    for (const auto &w : suite.all())
        EXPECT_EQ(&w->program(), &w->program());
}

} // namespace
} // namespace vpprof
