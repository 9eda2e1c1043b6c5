/**
 * @file
 * Deterministic fault injection: named failpoints compiled into
 * I/O-sensitive sites (trace file writes, reads, commits)
 * that tests and operators can arm to simulate the failures a real
 * deployment sees — full disks, torn writes, files shrinking under a
 * reader — without needing a hostile filesystem.
 *
 * A site is a stable string like "trace_io.write". Arming attaches an
 * action (fail, short read, ENOSPC, corrupt, delay) and a trigger
 * rule. Sites are armed programmatically (tests) or through the
 * VPPROF_FAILPOINTS environment variable (CLI runs, CI):
 *
 *     VPPROF_FAILPOINTS="trace_io.write:fail@3,trace_io.commit:enospc"
 *
 * Spec grammar: `action[=MS][%PROB[@SEED]][@HIT]`
 *
 *  - `fail@3`          deterministic: exactly the 3rd hit fails
 *                      (1-based; no `@HIT` means every hit).
 *  - `fail%0.05`       probabilistic: each hit fails independently
 *                      with probability 0.05, drawn from a per-site
 *                      xoshiro256** stream (default seed 1).
 *  - `fail%0.05@7`     same, stream seeded with 7. With `%` present,
 *                      `@N` is the RNG SEED, not a hit index — the
 *                      fault schedule is a pure function of
 *                      (seed, hit sequence), so two runs arming the
 *                      same seed see the identical schedule. That is
 *                      what makes a chaos drill reproducible.
 *  - `delay=2`         latency injection: fire() itself sleeps 2 ms
 *                      (outside the registry lock) and reports None,
 *                      so the instrumented site proceeds normally but
 *                      late. `delay` alone means 1 ms.
 *  - `delay=2%0.25@9`  2 ms delay on ~25% of hits, seeded with 9.
 *
 * The hot-path cost when nothing is armed is one relaxed atomic load,
 * so shipping the hooks in release builds is free in practice.
 */

#ifndef VPPROF_COMMON_FAILPOINT_HH
#define VPPROF_COMMON_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/random.hh"

namespace vpprof
{

/** What an armed failpoint makes the instrumented site do. */
enum class FailpointAction
{
    None,    ///< not armed / not triggered this hit
    Fail,    ///< generic I/O failure (write error, failed rename)
    Short,   ///< short read: the data ends earlier than promised
    NoSpace, ///< ENOSPC: the device is full
    Corrupt, ///< the bytes arrive, but damaged
    Delay,   ///< latency: fire() sleeps delayMs, the site proceeds
};

/** Human-readable action name (messages and tests). */
const char *failpointActionName(FailpointAction action);

/** One armed site: the action and when it triggers. */
struct FailpointSpec
{
    FailpointAction action = FailpointAction::None;

    /**
     * 1-based hit index that triggers the action; 0 triggers on every
     * hit. "fail@3" arms {Fail, 3}: hits 1 and 2 succeed, hit 3 fails,
     * later hits succeed again (the transient-fault shape retries must
     * survive). Ignored when `probability` is set.
     */
    uint64_t triggerHit = 0;

    /**
     * When > 0, each hit triggers independently with this probability,
     * drawn from a per-site Rng seeded with `seed` at arm time
     * ("fail%0.05@7"). 0 means deterministic triggerHit mode.
     */
    double probability = 0.0;

    /** RNG seed for probabilistic mode (the `@N` after `%PROB`). */
    uint64_t seed = 1;

    /** Sleep length for FailpointAction::Delay ("delay=MS"). */
    uint64_t delayMs = 1;
};

/**
 * Process-wide registry of failpoint sites. Thread-safe; hit counting
 * only happens while at least one site is armed.
 */
class FailpointRegistry
{
  public:
    /** The singleton; arms VPPROF_FAILPOINTS on first use. */
    static FailpointRegistry &instance();

    /** Arm `site` with `spec` (replaces any previous arming). */
    void arm(const std::string &site, FailpointSpec spec);

    /** Disarm one site (its hit counters are kept). */
    void disarm(const std::string &site);

    /** Disarm every site and zero all counters (test isolation). */
    void reset();

    /**
     * Count one hit of `site` and return the action to simulate
     * (None when the site is unarmed or this hit is not the trigger).
     * This is the call instrumented sites make.
     */
    FailpointAction fire(const std::string &site);

    /**
     * Whether any site is armed: lets a site that fires per item
     * check once per batch and skip fire() entirely when unarmed.
     */
    bool
    anyArmed() const
    {
        return armedCount_.load(std::memory_order_relaxed) != 0;
    }

    /** Hits recorded while `site` was armed. */
    uint64_t hits(const std::string &site) const;

    /** Hits of `site` that actually triggered an action. */
    uint64_t triggered(const std::string &site) const;

    /**
     * Parse one `action[=MS][%PROB[@SEED]][@HIT]` spec ("fail@3",
     * "short", "enospc", "corrupt", "off", "fail%0.05@7", "delay=2");
     * nullopt on malformed input. `=MS` is only valid for `delay`;
     * with `%PROB` present the trailing `@N` is the RNG seed.
     */
    static std::optional<FailpointSpec>
    parseSpec(const std::string &text);

    /**
     * Arm a comma-separated "site:spec" list (the VPPROF_FAILPOINTS
     * syntax). Returns false and fills `error` on malformed input
     * without arming anything from the bad list.
     */
    bool armList(const std::string &list, std::string *error);

  private:
    FailpointRegistry();

    struct Site
    {
        FailpointSpec spec;
        bool armed = false;
        uint64_t hits = 0;
        uint64_t triggered = 0;
        /** Probabilistic-trigger stream; reseeded every arm() so the
         *  schedule is a pure function of (seed, hit sequence). */
        Rng rng{1};
    };

    mutable std::mutex mutex_;
    std::map<std::string, Site> sites_;
    std::atomic<size_t> armedCount_{0};
};

} // namespace vpprof

#endif // VPPROF_COMMON_FAILPOINT_HH
