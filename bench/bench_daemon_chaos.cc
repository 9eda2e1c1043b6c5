/**
 * @file
 * vpprofd chaos drill: a seeded, reproducible fault schedule against
 * the full serving stack, gating the resilience layer's contracts.
 *
 *  0. PROBE — the probabilistic failpoint schedule is replayed twice
 *     from the same seed and must match draw for draw; its trigger
 *     count is emitted as a 0%-margin perf-gate counter, so a changed
 *     RNG or grammar shows up as a regression, not silent drift.
 *
 *  1. BASELINE — a fault-free daemon serves a deterministic mixed
 *     workload (ping/profile/evaluate/verify over two workloads); the
 *     raw response line of every (client, slot) is recorded.
 *
 *  2. CHAOS — a fresh daemon with seeded faults armed on the accept
 *     path, the response-write path and the dispatch path (injected
 *     latency). Every client calls through callWithRetry (reconnect +
 *     seeded backoff). Gates: ZERO unanswered requests, every response
 *     line BIT-IDENTICAL to the baseline, at least one fault actually
 *     fired, and the recovery p99 rides the perf gate
 *     (BENCH_chaos.json vs golden/perf/BENCH_chaos.json).
 *
 *  3. SHED — a deliberately tiny daemon (queue 2, quota 1) with
 *     injected dispatch latency. A fixed, no-retry client pipelining
 *     its jobs MUST collect explicit rejections; retrying clients
 *     running the same mixed workload MUST complete 100%.
 *
 * --quick shrinks the request counts and raises the fault rates (the
 * CI smoke under sanitizers); it keeps every correctness gate but
 * skips the RESULTS/BENCH emission, which belongs to the full drill.
 */

#include "bench_util.hh"
#include "bench_daemon_util.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common/failpoint.hh"
#include "daemon/client.hh"
#include "daemon/retry.hh"
#include "daemon/server.hh"

using namespace vpprof;
using namespace vpprof::bench;
using namespace vpprof::daemon;

namespace
{

constexpr int kCallTimeoutMs = 120'000;

struct DrillScale
{
    size_t chaosClients = 6;
    size_t requestsPerClient = 24;
    size_t shedRetryClients = 4;
    size_t shedRequestsPerClient = 6;
    size_t shedFixedJobs = 6;
    const char *faults =
        "daemon.accept:fail%0.05@5,daemon.write:fail%0.05@7,"
        "daemon.dispatch:delay=2%0.25@9";
    bool emitFiles = true;
};

DrillScale
quickScale()
{
    DrillScale s;
    s.chaosClients = 4;
    s.requestsPerClient = 8;
    s.shedRetryClients = 2;
    s.shedRequestsPerClient = 4;
    s.shedFixedJobs = 4;
    // Fewer draws, so higher rates: the faults-injected floor must
    // hold even in the smoke.
    s.faults =
        "daemon.accept:fail%0.1@5,daemon.write:fail%0.1@7,"
        "daemon.dispatch:delay=2%0.5@9";
    s.emitFiles = false;
    return s;
}

constexpr const char *kSocketPrefix = "/tmp/vpd_chaos_";

/**
 * The deterministic mixed workload: request for (client, slot). Only
 * value-deterministic commands (no stats: its counters differ between
 * a clean and a faulted run by design), so the chaos run's responses
 * can be required bit-identical to the baseline's. The trace id is
 * pinned per (client, slot): a daemon-minted one follows arrival
 * order, which faults and retries legitimately reshuffle.
 */
Request
mixedRequest(size_t client, size_t slot)
{
    Request req;
    req.id = slot + 1;
    req.traceId = 1 + client * 1000 + slot;
    const char *workload = ((client + slot) % 2 == 0) ? "compress"
                                                      : "li";
    switch ((client + slot) % 4) {
      case 0:
        req.cmd = Command::Ping;
        break;
      case 1:
        req.cmd = Command::Profile;
        req.workload = workload;
        break;
      case 2:
        req.cmd = Command::Evaluate;
        req.workload = workload;
        req.threshold = 70.0;
        break;
      default:
        req.cmd = Command::Verify;
        req.workload = workload;
        break;
    }
    return req;
}

/** Phase 0: the fault schedule is a pure function of the seed. */
uint64_t
runDeterminismProbe()
{
    auto &reg = FailpointRegistry::instance();
    auto spec = FailpointRegistry::parseSpec("fail%0.2@42");
    if (!spec)
        vpprof_panic("probe spec did not parse");
    auto draw = [&] {
        reg.arm("chaos.probe", *spec);
        std::vector<bool> fired;
        for (int i = 0; i < 256; ++i)
            fired.push_back(reg.fire("chaos.probe") ==
                            FailpointAction::Fail);
        return fired;
    };
    std::vector<bool> first = draw();
    std::vector<bool> second = draw();
    if (first != second)
        vpprof_panic("probe: the same seed replayed a DIFFERENT fault "
                     "schedule — the drill is not reproducible");
    uint64_t triggered = reg.triggered("chaos.probe");
    reg.reset();
    std::printf("probe: 256 draws at fail%%0.2@42 -> %llu triggers, "
                "schedule replays identically\n\n",
                static_cast<unsigned long long>(triggered));
    return triggered;
}

struct PhaseOutcome
{
    std::vector<double> latenciesMs;
    uint64_t unanswered = 0;
    uint64_t errors = 0;
    uint64_t mismatched = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    DrillScale scale;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            scale = quickScale();
        else
            vpprof_panic("unknown flag '", argv[i],
                         "' (only --quick)");
    }

    banner("vpprofd chaos drill: seeded faults, retrying clients, "
           "bit-identical recovery",
           "beyond the paper -- the resilience layer's acceptance "
           "gates");

    FailpointRegistry::instance().reset();
    uint64_t probe_triggered = runDeterminismProbe();

    // ---- Baseline phase (fault-free) -----------------------------
    DaemonConfig cfg;
    cfg.session.jobs = 4;

    std::printf("baseline: %zu clients x %zu mixed requests, no "
                "faults\n",
                scale.chaosClients, scale.requestsPerClient);
    // expected[client][slot] = the raw response line to reproduce.
    std::vector<std::vector<std::string>> expected(
        scale.chaosClients,
        std::vector<std::string>(scale.requestsPerClient));
    auto wall_t0 = std::chrono::steady_clock::now();
    {
        RunningDaemon baseline(cfg, kSocketPrefix);
        std::vector<std::thread> threads;
        for (size_t c = 0; c < scale.chaosClients; ++c)
            threads.emplace_back([&, c] {
                DaemonClient client = baseline.client();
                for (size_t i = 0; i < scale.requestsPerClient; ++i) {
                    Request req = mixedRequest(c, i);
                    CallResult r = client.call(requestLine(req),
                                               req.id, kCallTimeoutMs);
                    if (!r.ok)
                        vpprof_panic("baseline request failed: ",
                                     r.code, ": ", r.error);
                    expected[c][i] = r.raw;
                }
            });
        for (std::thread &t : threads)
            t.join();
        if (baseline.stop() != 0)
            vpprof_panic("baseline daemon did not drain cleanly");
    }

    // ---- Chaos phase ---------------------------------------------
    std::printf("chaos: same workload, faults %s\n", scale.faults);
    std::vector<PhaseOutcome> per_client(scale.chaosClients);
    uint64_t chaos_faults = 0;
    {
        RunningDaemon chaos(cfg, kSocketPrefix);
        {
            std::string error;
            if (!FailpointRegistry::instance().armList(scale.faults,
                                                       &error))
                vpprof_panic("cannot arm chaos faults: ", error);
        }
        std::vector<std::thread> threads;
        for (size_t c = 0; c < scale.chaosClients; ++c)
            threads.emplace_back([&, c] {
                DaemonClient client = chaos.client();
                PhaseOutcome &out = per_client[c];
                RetryPolicy policy;
                policy.maxAttempts = 10;
                policy.backoffBaseMs = 10;
                policy.backoffMaxMs = 500;
                policy.jitterSeed = 1000 + c;  // per-client, seeded
                for (size_t i = 0; i < scale.requestsPerClient; ++i) {
                    Request req = mixedRequest(c, i);
                    auto t0 = std::chrono::steady_clock::now();
                    CallResult r = client.callWithRetry(
                        req, policy, kCallTimeoutMs);
                    out.latenciesMs.push_back(wallMsSince(t0));
                    if (!r.ok) {
                        if (r.reason == CallReason::DaemonError)
                            ++out.errors;
                        else
                            ++out.unanswered;
                        continue;
                    }
                    if (r.raw != expected[c][i]) {
                        ++out.mismatched;
                        std::printf("MISMATCH client %zu slot %zu:\n"
                                    "  baseline: %s\n"
                                    "  chaos:    %s\n",
                                    c, i, expected[c][i].c_str(),
                                    r.raw.c_str());
                    }
                }
            });
        for (std::thread &t : threads)
            t.join();
        // The armed write/accept faults also hit the drain path;
        // disarm before stopping so the drain's flushes are clean.
        for (const char *site :
             {"daemon.accept", "daemon.write", "daemon.dispatch"})
            chaos_faults += FailpointRegistry::instance().triggered(site);
        FailpointRegistry::instance().reset();
        if (chaos.stop() != 0)
            vpprof_panic("chaos daemon did not drain cleanly");
    }

    std::vector<double> chaos_latencies;
    uint64_t chaos_unanswered = 0, chaos_errors = 0,
             chaos_mismatched = 0;
    for (const PhaseOutcome &out : per_client) {
        chaos_latencies.insert(chaos_latencies.end(),
                               out.latenciesMs.begin(),
                               out.latenciesMs.end());
        chaos_unanswered += out.unanswered;
        chaos_errors += out.errors;
        chaos_mismatched += out.mismatched;
    }
    std::sort(chaos_latencies.begin(), chaos_latencies.end());
    double chaos_p99 = percentile(chaos_latencies, 0.99);
    const uint64_t chaos_requests =
        scale.chaosClients * scale.requestsPerClient;
    std::printf("chaos: %llu requests, %llu faults injected, p99 "
                "%.2f ms, unanswered %llu, errors %llu, mismatched "
                "%llu\n\n",
                static_cast<unsigned long long>(chaos_requests),
                static_cast<unsigned long long>(chaos_faults),
                chaos_p99,
                static_cast<unsigned long long>(chaos_unanswered),
                static_cast<unsigned long long>(chaos_errors),
                static_cast<unsigned long long>(chaos_mismatched));

    // ---- Shed phase ----------------------------------------------
    // queue 2 / quota 1 under injected dispatch latency: the fixed
    // client MUST be rejected; the retrying clients MUST complete.
    std::printf("shed: queue=2 quota=1, 1 fixed client x %zu pipelined "
                "jobs vs %zu retrying clients x %zu requests\n",
                scale.shedFixedJobs, scale.shedRetryClients,
                scale.shedRequestsPerClient);
    uint64_t shed_fixed_rejected = 0, shed_fixed_unanswered = 0;
    uint64_t shed_retry_completed = 0, shed_retry_unanswered = 0;
    {
        DaemonConfig shed_cfg;
        shed_cfg.session.jobs = 1;
        shed_cfg.maxQueue = 2;
        shed_cfg.maxInflightPerClient = 1;
        RunningDaemon shed(shed_cfg, kSocketPrefix);
        {
            std::string error;
            if (!FailpointRegistry::instance().armList(
                    "daemon.dispatch:delay=25", &error))
                vpprof_panic("cannot arm shed delay: ", error);
        }

        std::thread fixed_thread([&] {
            DaemonClient fixed = shed.client();
            std::string batch;
            for (size_t i = 0; i < scale.shedFixedJobs; ++i) {
                Request req;
                req.id = i + 1;
                req.cmd = Command::Profile;
                req.workload = (i % 2 == 0) ? "compress" : "li";
                if (i > 0)
                    batch += "\n";
                batch += requestLine(req);
            }
            if (!fixed.sendLine(batch)) {
                shed_fixed_unanswered = scale.shedFixedJobs;
                return;
            }
            std::set<uint64_t> pending;
            for (size_t i = 0; i < scale.shedFixedJobs; ++i)
                pending.insert(i + 1);
            while (!pending.empty()) {
                std::optional<std::string> line =
                    fixed.readLine(kCallTimeoutMs);
                if (!line)
                    break;
                std::optional<report::JsonValue> doc =
                    report::parseJson(*line);
                if (!doc || doc->get("event"))
                    continue;
                uint64_t id =
                    static_cast<uint64_t>(doc->numberOr("id", 0));
                if (!pending.erase(id))
                    continue;
                std::string code = doc->stringOr("code", "");
                if (code == "overloaded" || code == "quota")
                    ++shed_fixed_rejected;
            }
            shed_fixed_unanswered = pending.size();
        });

        std::vector<uint64_t> completed(scale.shedRetryClients, 0);
        std::vector<uint64_t> unanswered(scale.shedRetryClients, 0);
        std::vector<std::thread> threads;
        for (size_t c = 0; c < scale.shedRetryClients; ++c)
            threads.emplace_back([&, c] {
                DaemonClient client = shed.client();
                RetryPolicy policy;
                policy.maxAttempts = 50;
                policy.backoffBaseMs = 5;
                policy.backoffMaxMs = 200;
                policy.jitterSeed = 2000 + c;
                for (size_t i = 0; i < scale.shedRequestsPerClient;
                     ++i) {
                    Request req = mixedRequest(c, i);
                    CallResult r = client.callWithRetry(
                        req, policy, kCallTimeoutMs);
                    if (r.ok)
                        ++completed[c];
                    else
                        ++unanswered[c];
                }
            });
        fixed_thread.join();
        for (std::thread &t : threads)
            t.join();
        FailpointRegistry::instance().reset();
        if (shed.stop() != 0)
            vpprof_panic("shed daemon did not drain cleanly");
        for (size_t c = 0; c < scale.shedRetryClients; ++c) {
            shed_retry_completed += completed[c];
            shed_retry_unanswered += unanswered[c];
        }
    }
    const uint64_t shed_retry_requests =
        scale.shedRetryClients * scale.shedRequestsPerClient;
    double shed_completed_pct =
        shed_retry_requests == 0
            ? 0.0
            : 100.0 * static_cast<double>(shed_retry_completed) /
                  static_cast<double>(shed_retry_requests);
    std::printf("shed: fixed client rejected %llu/%zu, retrying "
                "clients completed %llu/%llu (%.0f%%)\n\n",
                static_cast<unsigned long long>(shed_fixed_rejected),
                scale.shedFixedJobs,
                static_cast<unsigned long long>(shed_retry_completed),
                static_cast<unsigned long long>(shed_retry_requests),
                shed_completed_pct);

    double wall_ms = wallMsSince(wall_t0);

    // ---- Report + gates ------------------------------------------
    if (scale.emitFiles) {
        emitResult("chaos", "probe/triggered",
                   static_cast<double>(probe_triggered));
        emitResult("chaos", "chaos/p99_ms", chaos_p99, std::nullopt,
                   "ms");
        emitResult("chaos", "chaos/faults_injected",
                   static_cast<double>(chaos_faults));
        emitResult("chaos", "chaos/unanswered",
                   static_cast<double>(chaos_unanswered));
        emitResult("chaos", "chaos/errors",
                   static_cast<double>(chaos_errors));
        emitResult("chaos", "chaos/mismatched",
                   static_cast<double>(chaos_mismatched));
        emitResult("chaos", "shed/fixed_rejected",
                   static_cast<double>(shed_fixed_rejected));
        emitResult("chaos", "shed/retry_completed_pct",
                   shed_completed_pct, std::nullopt, "%");
        emitResult("chaos", "shed/unanswered",
                   static_cast<double>(shed_retry_unanswered +
                                       shed_fixed_unanswered));
        flushResults("bench_daemon_chaos");

        // Timing keys (wall_ms/p99) ride the perf gate's noise
        // margin; every other key is a deterministic count gated at
        // 0%. The nondeterministic fault/rejection tallies stay in
        // RESULTS (bounded by golden/shape/chaos.json), not here.
        std::ofstream json("BENCH_chaos.json", std::ios::trunc);
        json << "{\n"
             << "  \"bench_daemon_chaos\": {\n"
             << "    \"wall_ms\": " << wall_ms << ",\n"
             << "    \"p99\": " << chaos_p99 << ",\n"
             << "    \"probe_triggered\": " << probe_triggered
             << ",\n"
             << "    \"chaos_requests\": " << chaos_requests << ",\n"
             << "    \"chaos_unanswered\": " << chaos_unanswered
             << ",\n"
             << "    \"chaos_mismatched\": " << chaos_mismatched
             << ",\n"
             << "    \"shed_requests\": " << shed_retry_requests
             << ",\n"
             << "    \"shed_unanswered\": "
             << shed_retry_unanswered + shed_fixed_unanswered << "\n"
             << "  }\n"
             << "}\n";
        json.close();
        std::printf("-> BENCH_chaos.json\n");
    }

    bool ok = true;
    if (chaos_unanswered > 0 || chaos_errors > 0) {
        std::printf("FAIL: chaos run left %llu unanswered, %llu "
                    "errors (gate: 0/0)\n",
                    static_cast<unsigned long long>(chaos_unanswered),
                    static_cast<unsigned long long>(chaos_errors));
        ok = false;
    }
    if (chaos_mismatched > 0) {
        std::printf("FAIL: %llu chaos responses differ from the "
                    "fault-free baseline (gate: bit-identical)\n",
                    static_cast<unsigned long long>(chaos_mismatched));
        ok = false;
    }
    if (chaos_faults == 0) {
        std::printf("FAIL: the chaos run injected no faults — the "
                    "drill proved nothing\n");
        ok = false;
    }
    if (shed_fixed_rejected == 0) {
        std::printf("FAIL: the fixed client was never rejected — the "
                    "shed phase exercised nothing\n");
        ok = false;
    }
    if (shed_retry_completed != shed_retry_requests ||
        shed_fixed_unanswered > 0) {
        std::printf("FAIL: retrying clients completed %llu/%llu, "
                    "fixed client unanswered %llu (gate: 100%% / 0)\n",
                    static_cast<unsigned long long>(
                        shed_retry_completed),
                    static_cast<unsigned long long>(
                        shed_retry_requests),
                    static_cast<unsigned long long>(
                        shed_fixed_unanswered));
        ok = false;
    }
    std::printf("%s: %llu faults, recovery p99 %.2f ms, 0 unanswered, "
                "bit-identical under chaos\n",
                ok ? "PASS" : "FAIL",
                static_cast<unsigned long long>(chaos_faults),
                chaos_p99);
    return ok ? 0 : 1;
}
