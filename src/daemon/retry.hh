/**
 * @file
 * Client-side retry policy for the vpprofd protocol: bounded
 * attempts, exponential backoff with seeded jitter, the daemon's
 * `retry_after_ms` hints honored as a floor, and a hard deadline
 * budget no retry may cross.
 *
 * The decision logic lives in RetryState::next(), a PURE planner: it
 * takes the failed CallResult and the caller's clock reading and
 * returns "retry after N ms" or "give up (why)" without sleeping,
 * reconnecting or touching a socket. DaemonClient::callWithRetry
 * drives it against the real clock; the tests drive it against a fake
 * one, so every backoff sequence is assertable to the millisecond.
 *
 * The retry matrix (DESIGN.md §13):
 *
 *   overloaded / quota / draining  retry; the daemon REJECTED the
 *                                  request, nothing executed. The
 *                                  response's retry_after_ms floors
 *                                  the backoff delay.
 *   timeout / disconnected         the request MAY have executed
 *                                  (ambiguous), so retry only
 *                                  idempotent commands
 *                                  (commandIsIdempotent); reconnect
 *                                  first when the transport died.
 *   deadline_exceeded / cancelled  the caller asked for that outcome;
 *                                  never retried here.
 *   bad_request / unknown_workload Permanent: the same bytes will
 *   / bad_input / internal /       fail the same way. Give up
 *   protocol                       immediately.
 *
 * Jitter is a seeded xoshiro draw uniform in [delay/2, delay], so a
 * fleet of clients with distinct seeds decorrelates while any single
 * (seed, failure sequence) pair replays the exact same delays.
 */

#ifndef VPPROF_DAEMON_RETRY_HH
#define VPPROF_DAEMON_RETRY_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "daemon/client.hh"
#include "daemon/protocol.hh"

namespace vpprof
{
namespace daemon
{

/** Tunables for one retrying call. */
struct RetryPolicy
{
    /** Total attempts including the first; 1 disables retrying. */
    size_t maxAttempts = 4;

    /**
     * First retry delay before jitter; doubles each further retry
     * (delay = base * 2^(n-1)).
     */
    uint64_t backoffBaseMs = 50;

    /** Cap on the un-jittered delay. */
    uint64_t backoffMaxMs = 5'000;

    /** Seed for the jitter stream (uniform in [delay/2, delay]). */
    uint64_t jitterSeed = 1;

    /**
     * Hard wall-clock budget across ALL attempts and backoff sleeps;
     * a retry whose delay would land past it is not taken. 0 = none.
     */
    uint64_t deadlineBudgetMs = 0;
};

/** One planner verdict: retry after delayMs, or give up (why). */
struct RetryDecision
{
    bool retry = false;
    uint64_t delayMs = 0;
    std::string giveUpReason;  ///< set when !retry
};

/**
 * The backoff planner for one logical call. Construct at the first
 * attempt with the clock's now; feed each failed CallResult back with
 * the current now. Pure apart from its own RNG stream.
 */
class RetryState
{
  public:
    RetryState(const RetryPolicy &policy, uint64_t start_ms)
        : policy_(policy), rng_(policy.jitterSeed), startMs_(start_ms)
    {
    }

    /**
     * Decide what to do after attempt #attempts() failed with
     * `result` for command `cmd`, the clock now reading `now_ms`
     * (same epoch as start_ms). A retry verdict counts the next
     * attempt.
     */
    RetryDecision next(const CallResult &result, Command cmd,
                       uint64_t now_ms);

    /** Attempts taken so far (the first call() is attempt 1). */
    size_t attempts() const { return attempts_; }

  private:
    RetryPolicy policy_;
    Rng rng_;
    uint64_t startMs_;
    size_t attempts_ = 1;
};

} // namespace daemon
} // namespace vpprof

#endif // VPPROF_DAEMON_RETRY_HH
