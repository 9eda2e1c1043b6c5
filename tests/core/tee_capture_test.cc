/**
 * @file
 * One-pass capture: when a call makes the repository capture a key,
 * the VM's record stream feeds that call's sink directly and nothing
 * is decoded. A profile collector fed by the capture must equal the
 * profile a later session replays from the committed file, on every
 * (workload, input), and whatever happens to the commit: a failed
 * commit (the capture buffer serves later replays) and a stale-version
 * file re-captured through the quarantine ladder. Session's own
 * collectProfile runs the VM with no capture at all; its twin test
 * pins it to the committed file's profile on every key.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/failpoint.hh"
#include "core/session.hh"
#include "profile/profile_collector.hh"

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

/** li input 0's profile from a session without a cache. */
const ProfileImage &
cleanLiProfile()
{
    static ProfileImage image = [] {
        Session clean;
        return clean.collectProfile(li(), 0);
    }();
    return image;
}

/** The profile of one key through the repository (captured when the
 *  key is cold, replayed when it is produced). */
ProfileImage
repositoryProfile(Session &session, const Workload &w, size_t input)
{
    ProfileCollector collector(std::string(w.name()));
    session.runTrace(w, input, &collector);
    return collector.takeImage();
}

class TeeCapture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        dir_ = ::testing::TempDir() + "/vpprof_tee_" +
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

TEST_F(TeeCapture, ColdProfileEqualsWarmProfileOnEveryKey)
{
    size_t keys = 0;
    for (const auto &w : suite().all()) {
        for (size_t input = 0; input < w->numInputSets(); ++input) {
            SCOPED_TRACE(std::string(w->name()) + ".in" +
                         std::to_string(input));
            ++keys;
            fs::remove_all(dir_);

            Session cold(cacheConfig());
            const ProfileImage teed = repositoryProfile(cold, *w, input);
            TraceRepoStats st = cold.traces().stats();
            EXPECT_EQ(st.vmRuns, 1u);
            EXPECT_EQ(st.replays, 1u);
            EXPECT_EQ(st.v3BlocksDecoded, 0u) << "one pass, no decode";

            Session warm(cacheConfig());
            const ProfileImage replayed =
                repositoryProfile(warm, *w, input);
            st = warm.traces().stats();
            EXPECT_EQ(st.vmRuns, 0u);
            EXPECT_EQ(st.diskLoads, 1u);
            EXPECT_GT(st.v3BlocksDecoded, 0u);

            EXPECT_FALSE(teed.empty());
            EXPECT_TRUE(teed == replayed);
        }
    }
    EXPECT_EQ(keys, 45u);
}

TEST_F(TeeCapture, VmProfileEqualsCommittedFileProfileOnEveryKey)
{
    size_t keys = 0;
    for (const auto &w : suite().all()) {
        for (size_t input = 0; input < w->numInputSets(); ++input) {
            SCOPED_TRACE(std::string(w->name()) + ".in" +
                         std::to_string(input));
            ++keys;
            fs::remove_all(dir_);

            Session direct(cacheConfig());
            const ProfileImage &vm = direct.collectProfile(*w, input);
            EXPECT_EQ(direct.traces().stats().uniqueTraces, 0u)
                << "a profile captures no trace";
            EXPECT_FALSE(fs::exists(dir_ + "/" + std::string(w->name()) +
                                    ".in" + std::to_string(input) +
                                    ".trace"));

            {
                Session writer(cacheConfig());
                writer.runTrace(*w, input, nullptr);
            }
            Session warm(cacheConfig());
            const ProfileImage replayed =
                repositoryProfile(warm, *w, input);
            TraceRepoStats st = warm.traces().stats();
            EXPECT_EQ(st.vmRuns, 0u);
            EXPECT_EQ(st.diskLoads, 1u);

            EXPECT_FALSE(vm.empty());
            EXPECT_TRUE(vm == replayed);
        }
    }
    EXPECT_EQ(keys, 45u);
}

TEST_F(TeeCapture, FailedCommitStillTeesAndTheBufferReplaysTheSame)
{
    FailpointRegistry::instance().arm("trace_io.commit",
                                      {FailpointAction::Fail, 1});
    Session session(cacheConfig());
    EXPECT_TRUE(repositoryProfile(session, li(), 0) == cleanLiProfile());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.spillFailures, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.v3BlocksDecoded, 0u);
    EXPECT_FALSE(fs::exists(dir_ + "/li.in0.trace"));

    // Later replays decode the capture buffer the commit left behind.
    ProfileCollector again("li");
    session.runTrace(li(), 0, &again);
    EXPECT_TRUE(again.takeImage() == cleanLiProfile());
    EXPECT_GT(session.traces().stats().v3BlocksDecoded, 0u);
}

TEST_F(TeeCapture, StaleVersionRecaptureTeesTheProfile)
{
    {
        Session warmup(cacheConfig());
        warmup.runTrace(li(), 0, nullptr);
    }
    const std::string path = dir_ + "/li.in0.trace";
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(7);
        f.put('2');  // the retired v2 version byte
    }

    Session session(cacheConfig());
    EXPECT_TRUE(repositoryProfile(session, li(), 0) == cleanLiProfile());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.v3BlocksDecoded, 0u);
    EXPECT_TRUE(fs::exists(path + ".bad"));
    EXPECT_TRUE(fs::exists(path)) << "the re-capture was committed";
}

} // namespace
} // namespace vpprof
