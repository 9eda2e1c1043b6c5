/**
 * @file
 * Tests of the diagnostic helpers: warnings count process-wide (they
 * all go to stderr, never stdout), the rate-limited form emits at
 * most `limit` messages plus one suppression notice per call site,
 * and the VPPROF_LOG level knob gates each severity while telemetry
 * keeps counting what was emitted vs suppressed.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/telemetry/metrics.hh"

namespace vpprof
{
namespace
{

/** RAII log-level override: tests never leak a level to each other. */
struct ScopedLogLevel
{
    explicit ScopedLogLevel(LogLevel level) : saved(logLevel())
    {
        setLogLevel(level);
    }
    ~ScopedLogLevel() { setLogLevel(saved); }
    LogLevel saved;
};

uint64_t
counterValue(const char *name)
{
    telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(Logging, WarnIncrementsProcessWideCount)
{
    uint64_t before = warningsEmitted();
    vpprof_warn("logging_test: plain warning");
    EXPECT_EQ(warningsEmitted(), before + 1);
}

TEST(Logging, WarnLimitedStopsAtLimitPlusNotice)
{
    uint64_t before = warningsEmitted();
    for (int i = 0; i < 10; ++i)
        vpprof_warn_limited(3, "logging_test: repeated warning ", i);
    // 3 messages + 1 suppression notice; occurrences 5..10 are silent.
    EXPECT_EQ(warningsEmitted(), before + 4);
}

TEST(Logging, WarnLimitedCountsPerCallSite)
{
    uint64_t before = warningsEmitted();
    vpprof_warn_limited(2, "logging_test: site A");
    vpprof_warn_limited(2, "logging_test: site B");
    // Distinct call sites have independent budgets.
    EXPECT_EQ(warningsEmitted(), before + 2);
}

TEST(LogLevel, ParseAcceptsTheFourLevelsOnly)
{
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("verbose"), std::nullopt);
    EXPECT_EQ(parseLogLevel("WARN"), std::nullopt);
    EXPECT_EQ(parseLogLevel(""), std::nullopt);
}

TEST(LogLevel, ErrorLevelSuppressesWarnings)
{
    ScopedLogLevel quiet(LogLevel::Error);
    uint64_t before = warningsEmitted();
    uint64_t suppressed_before =
        counterValue("log.warnings.suppressed");
    vpprof_warn("logging_test: must be suppressed");
    EXPECT_EQ(warningsEmitted(), before);
    EXPECT_EQ(counterValue("log.warnings.suppressed"),
              suppressed_before + 1);
}

TEST(LogLevel, EmittedWarningsCountIntoTelemetry)
{
    ScopedLogLevel loud(LogLevel::Warn);
    uint64_t emitted_before = counterValue("log.warnings.emitted");
    vpprof_warn("logging_test: counted warning");
    EXPECT_EQ(counterValue("log.warnings.emitted"), emitted_before + 1);
}

TEST(LogLevel, SuppressedWarnLimitedKeepsItsRateBudget)
{
    uint64_t before = warningsEmitted();
    for (int i = 0; i < 5; ++i) {
        ScopedLogLevel quiet(LogLevel::Error);
        vpprof_warn_limited(2, "logging_test: gated site");
    }
    EXPECT_EQ(warningsEmitted(), before);
    // Raising the level back re-opens the full budget: the suppressed
    // calls above consumed none of it.
    ScopedLogLevel loud(LogLevel::Warn);
    for (int i = 0; i < 5; ++i)
        vpprof_warn_limited(2, "logging_test: gated site");
    EXPECT_EQ(warningsEmitted(), before + 3);  // 2 + notice
}

TEST(LogLevel, DebugEmitsOnlyAtDebugLevel)
{
    {
        ScopedLogLevel info(LogLevel::Info);
        testing::internal::CaptureStderr();
        vpprof_debug("logging_test: hidden");
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    }
    {
        ScopedLogLevel debug(LogLevel::Debug);
        testing::internal::CaptureStderr();
        vpprof_debug("logging_test: visible");
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "logging_test: visible"),
                  std::string::npos);
    }
}

TEST(LogLevel, ErrorLevelSuppressesInfo)
{
    {
        ScopedLogLevel quiet(LogLevel::Error);
        testing::internal::CaptureStdout();
        vpprof_inform("logging_test: hidden info");
        EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    }
    {
        ScopedLogLevel normal(LogLevel::Info);
        testing::internal::CaptureStdout();
        vpprof_inform("logging_test: visible info");
        EXPECT_NE(testing::internal::GetCapturedStdout().find(
                      "visible info"),
                  std::string::npos);
    }
}

} // namespace
} // namespace vpprof
