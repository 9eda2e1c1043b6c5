/**
 * @file
 * vpprofd load bench: drives an in-process daemon over real
 * Unix-domain sockets and gates the serving layer's two contracts.
 *
 *  1. STEADY phase — 8 clients, each issuing a sequential mix of
 *     ping/stats/profile/evaluate/verify over warm profiles. With
 *     one outstanding request per client the default admission bounds
 *     (queue 64, quota 8) are never hit, so every request must be
 *     answered `ok`: errors and unanswered requests are hard gates at
 *     zero. Per-request latency is aggregated into p50/p99 and
 *     requests/second.
 *
 *  2. BURST phase — a deliberately tiny daemon (queue 2, quota 1)
 *     under 6 clients that each pipeline 4 profile jobs in a single
 *     write. Admission control must shed the excess EXPLICITLY:
 *     at least one `overloaded`/`quota` rejection (in practice most
 *     of the burst), and — the real contract — zero unanswered
 *     requests. Overload means rejection lines, never silence.
 *
 * Latency/throughput regimes are gated two ways: the timing-class
 * keys (wall_ms/p50/p99) of BENCH_daemon.json ride the perf gate's
 * noise margin against golden/perf/BENCH_daemon.json, and the
 * emitted rows are bounded by golden/shape/daemon.json. The
 * correctness gates (answered/errors/rejections) fail the bench
 * itself with a non-zero exit.
 */

#include "bench_util.hh"
#include "bench_daemon_util.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "daemon/client.hh"
#include "daemon/server.hh"

using namespace vpprof;
using namespace vpprof::bench;
using namespace vpprof::daemon;

namespace
{

constexpr size_t kSteadyClients = 8;
constexpr size_t kSteadyRequestsPerClient = 32;
constexpr size_t kBurstClients = 6;
constexpr size_t kBurstJobsPerClient = 4;
constexpr int kCallTimeoutMs = 120'000;

constexpr const char *kSocketPrefix = "/tmp/vpd_bench_";

/** The deterministic steady-phase request mix for (client, i). */
CallResult
steadyCall(DaemonClient &client, uint64_t id, size_t slot)
{
    const char *even = "compress";
    const char *odd = "li";
    switch (slot % 8) {
      case 0:
        return client.call(id, Command::Ping, "", 0, 0, kCallTimeoutMs);
      case 1:
        return client.call(id, Command::Stats, "", 0, 0, kCallTimeoutMs);
      case 2:
        return client.call(id, Command::Profile, even, 0, 0, kCallTimeoutMs);
      case 3:
        return client.call(id, Command::Profile, odd, 0, 0, kCallTimeoutMs);
      case 4:
        return client.call(id, Command::Evaluate, even, 0, 70.0,
                           kCallTimeoutMs);
      case 5:
        return client.call(id, Command::Evaluate, odd, 0, 70.0,
                           kCallTimeoutMs);
      case 6:
        return client.call(id, Command::Verify, even, 0, 0, kCallTimeoutMs);
      default:
        return client.call(id, Command::Verify, odd, 0, 0, kCallTimeoutMs);
    }
}

struct SteadyStats
{
    std::vector<double> latenciesMs;
    uint64_t errors = 0;
    uint64_t unanswered = 0;
};

} // namespace

int
main()
{
    banner("vpprofd load bench: steady-state latency and explicit "
           "overload shedding",
           "beyond the paper -- the serving layer's acceptance gates");

    // ---- Steady phase --------------------------------------------
    DaemonConfig steady_cfg;
    steady_cfg.session.jobs = 4;
    RunningDaemon steady(steady_cfg, kSocketPrefix);

    // Warm pass (unmeasured): populate the memoized profiles so the
    // measured phase times the serving path, not first-touch
    // profiling.
    {
        DaemonClient warm = steady.client();
        uint64_t id = 1;
        for (const char *w : {"compress", "li"}) {
            for (Command cmd : {Command::Profile, Command::Evaluate,
                                Command::Verify}) {
                CallResult r = warm.call(id++, cmd, w, 0, 70.0,
                                         kCallTimeoutMs);
                if (!r.ok)
                    vpprof_panic("warm-up ", commandName(cmd), " ", w,
                                 " failed: ", r.error);
            }
        }
    }

    std::printf("steady: %zu clients x %zu requests "
                "(ping/stats/profile/evaluate/verify mix, warm "
                "profiles)\n",
                kSteadyClients, kSteadyRequestsPerClient);
    std::vector<SteadyStats> per_client(kSteadyClients);
    auto steady_t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < kSteadyClients; ++c) {
            threads.emplace_back([&, c] {
                DaemonClient client = steady.client();
                SteadyStats &stats = per_client[c];
                for (size_t i = 0; i < kSteadyRequestsPerClient; ++i) {
                    auto t0 = std::chrono::steady_clock::now();
                    CallResult r =
                        steadyCall(client, i + 1, c + i);
                    stats.latenciesMs.push_back(wallMsSince(t0));
                    if (r.code == "timeout" ||
                        r.code == "disconnected")
                        ++stats.unanswered;
                    else if (!r.ok)
                        ++stats.errors;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    double steady_wall_ms = wallMsSince(steady_t0);
    if (steady.stop() != 0)
        vpprof_panic("steady daemon did not drain cleanly");

    std::vector<double> latencies;
    uint64_t steady_errors = 0, steady_unanswered = 0;
    for (const SteadyStats &stats : per_client) {
        latencies.insert(latencies.end(), stats.latenciesMs.begin(),
                         stats.latenciesMs.end());
        steady_errors += stats.errors;
        steady_unanswered += stats.unanswered;
    }
    std::sort(latencies.begin(), latencies.end());
    double p50_ms = percentile(latencies, 0.50);
    double p99_ms = percentile(latencies, 0.99);
    const uint64_t steady_requests =
        kSteadyClients * kSteadyRequestsPerClient;
    double rps = steady_wall_ms <= 0.0
                     ? 0.0
                     : 1000.0 * static_cast<double>(steady_requests) /
                           steady_wall_ms;
    std::printf("steady: %llu requests in %.1f ms = %.1f req/s, "
                "p50 %.2f ms, p99 %.2f ms, errors %llu, "
                "unanswered %llu\n\n",
                static_cast<unsigned long long>(steady_requests),
                steady_wall_ms, rps, p50_ms, p99_ms,
                static_cast<unsigned long long>(steady_errors),
                static_cast<unsigned long long>(steady_unanswered));

    // ---- Burst phase ---------------------------------------------
    // A tiny daemon (queue 2, quota 1) under a pipelined burst. Each
    // client writes its whole batch in ONE send, so the event loop
    // admits at most one job per client per buffer pass and must
    // reject the rest explicitly — `quota`/`overloaded` lines, never
    // dropped requests.
    DaemonConfig burst_cfg;
    burst_cfg.session.jobs = 1;
    burst_cfg.maxQueue = 2;
    burst_cfg.maxInflightPerClient = 1;
    RunningDaemon burst(burst_cfg, kSocketPrefix);

    std::printf("burst: %zu clients x %zu pipelined profile jobs "
                "against queue=2, quota=1\n",
                kBurstClients, kBurstJobsPerClient);
    std::vector<uint64_t> rejected(kBurstClients, 0);
    std::vector<uint64_t> errors(kBurstClients, 0);
    std::vector<uint64_t> answered(kBurstClients, 0);
    auto burst_t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < kBurstClients; ++c) {
            threads.emplace_back([&, c] {
                DaemonClient client = burst.client();
                std::string batch;
                for (size_t i = 0; i < kBurstJobsPerClient; ++i) {
                    Request req;
                    req.id = i + 1;
                    req.cmd = Command::Profile;
                    req.workload = (c % 2 == 0) ? "compress" : "li";
                    if (i > 0)
                        batch += "\n";
                    batch += requestLine(req);
                }
                if (!client.sendLine(batch))
                    return;  // answered stays short: counted below
                std::set<uint64_t> pending;
                for (size_t i = 0; i < kBurstJobsPerClient; ++i)
                    pending.insert(i + 1);
                while (!pending.empty()) {
                    std::optional<std::string> line =
                        client.readLine(kCallTimeoutMs);
                    if (!line)
                        return;
                    std::string perr;
                    std::optional<report::JsonValue> doc =
                        report::parseJson(*line, &perr);
                    if (!doc)
                        vpprof_panic("burst: bad response line: ",
                                     *line);
                    uint64_t id = static_cast<uint64_t>(
                        doc->numberOr("id", 0));
                    if (!pending.erase(id))
                        continue;
                    ++answered[c];
                    const report::JsonValue *ok_field =
                        doc->get("ok");
                    if (ok_field && ok_field->isBool() &&
                        ok_field->asBool())
                        continue;
                    std::string code = doc->stringOr("code", "");
                    if (code == "overloaded" || code == "quota" ||
                        code == "draining")
                        ++rejected[c];
                    else
                        ++errors[c];
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    double burst_wall_ms = wallMsSince(burst_t0);
    if (burst.stop() != 0)
        vpprof_panic("burst daemon did not drain cleanly");

    uint64_t burst_rejected = 0, burst_errors = 0, burst_answered = 0;
    for (size_t c = 0; c < kBurstClients; ++c) {
        burst_rejected += rejected[c];
        burst_errors += errors[c];
        burst_answered += answered[c];
    }
    const uint64_t burst_requests = kBurstClients * kBurstJobsPerClient;
    uint64_t burst_unanswered = burst_requests - burst_answered;
    std::printf("burst: %llu requests in %.1f ms: %llu completed, "
                "%llu rejected, %llu errors, %llu unanswered\n\n",
                static_cast<unsigned long long>(burst_requests),
                burst_wall_ms,
                static_cast<unsigned long long>(
                    burst_answered - burst_rejected - burst_errors),
                static_cast<unsigned long long>(burst_rejected),
                static_cast<unsigned long long>(burst_errors),
                static_cast<unsigned long long>(burst_unanswered));

    // ---- Report + gates ------------------------------------------
    emitResult("daemon", "steady/p50_ms", p50_ms, std::nullopt, "ms");
    emitResult("daemon", "steady/p99_ms", p99_ms, std::nullopt, "ms");
    emitResult("daemon", "steady/rps", rps, std::nullopt, "req/s");
    emitResult("daemon", "steady/errors",
               static_cast<double>(steady_errors));
    emitResult("daemon", "steady/unanswered",
               static_cast<double>(steady_unanswered));
    emitResult("daemon", "burst/rejected",
               static_cast<double>(burst_rejected));
    emitResult("daemon", "burst/unanswered",
               static_cast<double>(burst_unanswered));
    flushResults("bench_daemon_throughput");

    // Timing-class keys (wall_ms/p50/p99) get the perf gate's noise
    // margin; the counters are deterministic by construction, so the
    // nondeterministic burst_rejected split stays out of this file
    // (it is bounded by golden/shape/daemon.json instead).
    std::ofstream json("BENCH_daemon.json", std::ios::trunc);
    json << "{\n"
         << "  \"bench_daemon_throughput\": {\n"
         << "    \"wall_ms\": " << (steady_wall_ms + burst_wall_ms)
         << ",\n"
         << "    \"p50\": " << p50_ms << ",\n"
         << "    \"p99\": " << p99_ms << ",\n"
         << "    \"steady_requests\": " << steady_requests << ",\n"
         << "    \"steady_errors\": " << steady_errors << ",\n"
         << "    \"steady_unanswered\": " << steady_unanswered
         << ",\n"
         << "    \"burst_requests\": " << burst_requests << ",\n"
         << "    \"burst_errors\": " << burst_errors << ",\n"
         << "    \"burst_unanswered\": " << burst_unanswered << "\n"
         << "  }\n"
         << "}\n";
    json.close();
    std::printf("-> BENCH_daemon.json\n");

    bool ok = true;
    if (steady_errors > 0 || steady_unanswered > 0) {
        std::printf("FAIL: steady phase had %llu errors, %llu "
                    "unanswered (gate: 0/0)\n",
                    static_cast<unsigned long long>(steady_errors),
                    static_cast<unsigned long long>(steady_unanswered));
        ok = false;
    }
    if (burst_unanswered > 0 || burst_errors > 0) {
        std::printf("FAIL: burst phase had %llu unanswered, %llu "
                    "errors (gate: 0/0)\n",
                    static_cast<unsigned long long>(burst_unanswered),
                    static_cast<unsigned long long>(burst_errors));
        ok = false;
    }
    if (burst_rejected == 0) {
        std::printf("FAIL: burst shed no load — admission control "
                    "must reject explicitly\n");
        ok = false;
    }
    std::printf("%s: p50 %.2f ms, p99 %.2f ms, %.1f req/s, burst "
                "rejected %llu/%llu\n",
                ok ? "PASS" : "FAIL", p50_ms, p99_ms, rps,
                static_cast<unsigned long long>(burst_rejected),
                static_cast<unsigned long long>(burst_requests));
    return ok ? 0 : 1;
}
