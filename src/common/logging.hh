/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * panic()  -- an internal invariant was violated (a vpprof bug); aborts.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, malformed input file); exits with code 1.
 * warn()   -- something is suspicious but the run can continue.
 * inform() -- plain status output.
 */

#ifndef VPPROF_COMMON_LOGGING_HH
#define VPPROF_COMMON_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace vpprof
{

/**
 * Diagnostic verbosity, ordered: a message prints when its level is
 * <= the active level. Error (panic/fatal) always prints. The default
 * is Info (warnings and status lines print, debug does not),
 * overridable via VPPROF_LOG=error|warn|info|debug or setLogLevel().
 * Suppressed messages are counted in the telemetry registry
 * (`log.warnings.suppressed`), so --metrics-out shows what the level
 * knob and the rate limiter dropped.
 */
enum class LogLevel
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** The active level (VPPROF_LOG, parsed once, or setLogLevel()). */
LogLevel logLevel();

/** Override the active level at runtime (tests, embedding tools). */
void setLogLevel(LogLevel level);

/** Parse "error"/"warn"/"info"/"debug"; nullopt on anything else. */
std::optional<LogLevel> parseLogLevel(std::string_view text);

namespace detail
{

/** Format the variadic arguments into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/**
 * Rate-limited warning: prints the first `limit` occurrences of this
 * call site (counted by `count`), then one final suppression notice.
 * Thread-safe; diagnostics always go to stderr so machine-readable
 * stdout (bench JSON, CLI output) is never corrupted.
 */
void warnLimitedImpl(std::atomic<uint64_t> &count, uint64_t limit,
                     const std::string &msg);

void informImpl(const std::string &msg);

void debugImpl(const std::string &msg);

} // namespace detail

/**
 * Warnings emitted so far, process wide (tests and health checks): the
 * value of the `log.warnings.emitted` telemetry counter.
 */
uint64_t warningsEmitted();

/**
 * Warnings suppressed so far (by the level knob or a call site's rate
 * limit), process wide: the value of the `log.warnings.suppressed`
 * telemetry counter, for surfaces like the daemon `stats` response.
 */
uint64_t warningsSuppressed();

} // namespace vpprof

/** Abort on an internal invariant violation. */
#define vpprof_panic(...) \
    ::vpprof::detail::panicImpl(__FILE__, __LINE__, \
                                ::vpprof::detail::concat(__VA_ARGS__))

/** Exit(1) on an unrecoverable user/configuration error. */
#define vpprof_fatal(...) \
    ::vpprof::detail::fatalImpl(__FILE__, __LINE__, \
                                ::vpprof::detail::concat(__VA_ARGS__))

/** Print a warning and continue. */
#define vpprof_warn(...) \
    ::vpprof::detail::warnImpl(::vpprof::detail::concat(__VA_ARGS__))

/**
 * Print a warning, but at most `limit` times per call site (plus one
 * suppression notice). For diagnostics that can repeat per trace file
 * or per record — e.g. corrupt-cache re-captures in a sweep — where
 * each instance is worth one line but a flood would drown the run.
 */
#define vpprof_warn_limited(limit, ...) \
    do { \
        static ::std::atomic<uint64_t> vpprof_warn_count_{0}; \
        ::vpprof::detail::warnLimitedImpl( \
            vpprof_warn_count_, (limit), \
            ::vpprof::detail::concat(__VA_ARGS__)); \
    } while (0)

/** Print an informational status line. */
#define vpprof_inform(...) \
    ::vpprof::detail::informImpl(::vpprof::detail::concat(__VA_ARGS__))

/** Print a debug line (only at VPPROF_LOG=debug; goes to stderr). */
#define vpprof_debug(...) \
    ::vpprof::detail::debugImpl(::vpprof::detail::concat(__VA_ARGS__))

#endif // VPPROF_COMMON_LOGGING_HH
