#include "common/logging.hh"

#include <cstdio>

#include "common/telemetry/metrics.hh"

namespace vpprof
{

namespace
{

// Registered lazily so the registry exists whenever the first
// diagnostic fires, however early in static initialization. Each is
// the one count of its signal: warningsEmitted()/warningsSuppressed()
// read it, and the registry exports it.
telemetry::ScopedCounter &
warningsEmittedCounter()
{
    static telemetry::ScopedCounter counter("log.warnings.emitted");
    return counter;
}

telemetry::ScopedCounter &
warningsSuppressedCounter()
{
    static telemetry::ScopedCounter counter("log.warnings.suppressed");
    return counter;
}

/** Active level; kUnset until VPPROF_LOG is parsed or setLogLevel(). */
constexpr int kUnsetLevel = -1;
std::atomic<int> g_log_level{kUnsetLevel};

} // namespace

std::optional<LogLevel>
parseLogLevel(std::string_view text)
{
    if (text == "error")
        return LogLevel::Error;
    if (text == "warn")
        return LogLevel::Warn;
    if (text == "info")
        return LogLevel::Info;
    if (text == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

LogLevel
logLevel()
{
    int level = g_log_level.load(std::memory_order_relaxed);
    if (level != kUnsetLevel)
        return static_cast<LogLevel>(level);

    LogLevel parsed = LogLevel::Info;
    bool bad_env = false;
    std::string bad_value;
    if (const char *env = std::getenv("VPPROF_LOG")) {
        if (auto known = parseLogLevel(env)) {
            parsed = *known;
        } else {
            bad_env = true;
            bad_value = env;
        }
    }
    // A racing first call stores the same env-derived value: benign.
    g_log_level.store(static_cast<int>(parsed),
                      std::memory_order_relaxed);
    if (bad_env)
        vpprof_warn("VPPROF_LOG='", bad_value, "' is not a log level "
                    "(expected error|warn|info|debug); using info");
    return parsed;
}

void
setLogLevel(LogLevel level)
{
    g_log_level.store(static_cast<int>(level),
                      std::memory_order_relaxed);
}

namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() < LogLevel::Warn) {
        warningsSuppressedCounter().add();
        return;
    }
    warningsEmittedCounter().add();
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
warnLimitedImpl(std::atomic<uint64_t> &count, uint64_t limit,
                const std::string &msg)
{
    // A level below Warn suppresses without consuming the call site's
    // rate budget: raising the level later still shows `limit` lines.
    if (logLevel() < LogLevel::Warn) {
        warningsSuppressedCounter().add();
        return;
    }
    uint64_t n = count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n <= limit) {
        warnImpl(msg);
    } else if (n == limit + 1) {
        warnImpl(concat("(suppressing further occurrences of this "
                        "warning after ", limit, ")"));
    } else {
        warningsSuppressedCounter().add();
    }
}

void
informImpl(const std::string &msg)
{
    if (logLevel() < LogLevel::Info)
        return;
    std::fprintf(stdout, "info: %s\n", msg.c_str());
    std::fflush(stdout);
}

void
debugImpl(const std::string &msg)
{
    if (logLevel() < LogLevel::Debug)
        return;
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace detail

uint64_t
warningsEmitted()
{
    return warningsEmittedCounter().value();
}

uint64_t
warningsSuppressed()
{
    return warningsSuppressedCounter().value();
}

} // namespace vpprof
