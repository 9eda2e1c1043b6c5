#include "daemon/retry.hh"

#include <cmath>

namespace vpprof
{
namespace daemon
{

RetryDecision
RetryState::next(const CallResult &result, Command cmd, uint64_t now_ms)
{
    RetryDecision decision;
    if (result.ok) {
        decision.giveUpReason = "succeeded";
        return decision;
    }

    bool transport = result.reason == CallReason::Timeout ||
                     result.reason == CallReason::Eof ||
                     result.reason == CallReason::ReadError ||
                     result.reason == CallReason::SendError ||
                     result.reason == CallReason::PollError ||
                     result.reason == CallReason::NotConnected;
    bool shed = result.code == "overloaded" || result.code == "quota" ||
                result.code == "draining";
    if (!shed && !transport) {
        decision.giveUpReason =
            "permanent failure (" + result.code + ")";
        return decision;
    }
    if (transport && !commandIsIdempotent(cmd)) {
        // The daemon may have executed the request before the
        // transport died; re-sending would run it twice.
        decision.giveUpReason =
            std::string("ambiguous transport failure on "
                        "non-idempotent '") +
            commandName(cmd) + "'";
        return decision;
    }
    if (attempts_ >= policy_.maxAttempts) {
        decision.giveUpReason =
            "attempts exhausted (" +
            std::to_string(policy_.maxAttempts) + ")";
        return decision;
    }

    double raw = static_cast<double>(policy_.backoffBaseMs) *
                 std::pow(2.0, static_cast<double>(attempts_ - 1));
    uint64_t delay =
        raw >= static_cast<double>(policy_.backoffMaxMs)
            ? policy_.backoffMaxMs
            : static_cast<uint64_t>(raw);
    if (delay > 0) {
        // Decorrelating jitter, uniform in [delay/2, delay]: one
        // seeded draw per retry so the whole delay sequence is a pure
        // function of (jitterSeed, failure sequence).
        uint64_t half = delay / 2;
        delay = half + rng_.nextBelow(delay - half + 1);
    }
    if (result.retryAfterMs > delay)
        delay = result.retryAfterMs;
    if (policy_.deadlineBudgetMs > 0 &&
        (now_ms - startMs_) + delay >= policy_.deadlineBudgetMs) {
        decision.giveUpReason =
            "deadline budget exhausted (" +
            std::to_string(policy_.deadlineBudgetMs) + " ms)";
        return decision;
    }

    ++attempts_;
    decision.retry = true;
    decision.delayMs = delay;
    return decision;
}

} // namespace daemon
} // namespace vpprof
