/**
 * @file
 * vpprofd — profiling-as-a-service daemon (DESIGN.md §13).
 *
 *   vpprofd --socket PATH [flags]
 *
 * Serves the vpprof wire protocol (newline-delimited JSON over a Unix
 * domain socket) until a graceful drain completes: SIGTERM/SIGINT or a
 * protocol `shutdown` command stops accepting work, finishes every
 * admitted job, flushes every client, writes the telemetry outputs and
 * exits 0. All long-lived state — memoized profiles and the runner
 * pool — is one shared Session, so N clients asking for one profile
 * cost one VM interpretation, not N. Every job is VM passes: the
 * daemon reads and writes no trace file.
 */

#include <atomic>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/telemetry/telemetry.hh"
#include "core/session.hh"
#include "daemon/server.hh"

using namespace vpprof;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: vpprofd --socket PATH [flags]\n"
        "  --socket PATH        Unix-domain socket to serve (required)\n"
        "  --listen HOST:PORT   additionally serve the protocol over "
        "TCP\n"
        "                       (port 0 picks a free one)\n"
        "  --port-file FILE     write the bound TCP port to FILE "
        "(atomic);\n"
        "                       pairs with --listen 127.0.0.1:0\n"
        "  --jobs N             runner lanes (0 = all cores; default 2)\n"
        "  --max-queue N        admitted-job bound; beyond it requests "
        "are\n"
        "                       rejected `overloaded` (default 64)\n"
        "  --max-inflight N     per-client in-flight job quota "
        "(default 8)\n"
        "  --idle-timeout-ms N  close idle connections after N ms "
        "(0 = never;\n"
        "                       default 30000)\n"
        "  --max-outbuf-bytes N per-client output backlog bound; a "
        "reader\n"
        "                       stalled past it is disconnected "
        "(default 4 MiB)\n"
        "  --watchdog-ms N      flag a job running longer than\n"
        "                       N ms (0 = off; default 10000)\n"
        "  --event-ring N       job lifecycle events retained (N >= 1;\n"
        "                       default 256): the `journal` tail, and how\n"
        "                       far a slow subscriber may lag before it\n"
        "                       sheds the oldest\n"
        "  --slo SPEC           objectives, e.g. "
        "p99_ms=50,error_rate=0.01;\n"
        "                       burn counters surface in `stats`\n"
        "  --slo-window N       answered jobs in the SLO window "
        "(default 256)\n"
        "  --trace-json FILE    Chrome trace_event span timeline (each\n"
        "                       thread keeps its latest 16384 events)\n"
        "  --metrics-out FILE   metrics snapshot JSON (written on "
        "drain)\n"
        "  --stats              print the `stats` result object on exit\n"
        "                       (stderr)\n"
        "The live registry is the `metrics` command (JSON or Prometheus\n"
        "text; scrape it with `vpprof_cli daemon-client metrics\n"
        "--prometheus`). A request gets one answer line; a job's\n"
        "lifecycle events are told only through `subscribe` and `journal`.\n");
    return 2;
}

uint64_t
parseUintFlag(const char *flag, const char *value)
{
    if (!value || !*value)
        vpprof_fatal(flag, " requires an unsigned integer value");
    // strtoull skips leading whitespace and accepts a sign (" -1"
    // wraps to 2^64-1), and saturates out-of-range values: demand a
    // leading digit and reject ERANGE.
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE)
        vpprof_fatal(flag, ": '", value,
                     "' is not an unsigned integer");
    return static_cast<uint64_t>(parsed);
}

/**
 * The one live server, for the signal handlers. A plain pointer set
 * before the handlers are installed and never cleared while they can
 * fire; requestShutdown() is async-signal-safe (one write()).
 */
std::atomic<daemon::DaemonServer *> g_server{nullptr};

void
onTerminate(int)
{
    if (daemon::DaemonServer *server =
            g_server.load(std::memory_order_relaxed))
        server->requestShutdown();
}

} // namespace

int
main(int argc, char **argv)
{
    daemon::DaemonConfig cfg;
    cfg.session.jobs = 2;
    std::string trace_json_path, metrics_out_path, port_file_path;
    bool show_stats = false;

    for (int arg = 1; arg < argc; ++arg) {
        std::string flag = argv[arg];
        const char *value = arg + 1 < argc ? argv[arg + 1] : nullptr;
        if (flag == "--socket") {
            if (!value)
                vpprof_fatal("--socket requires a path");
            cfg.socketPath = value;
        } else if (flag == "--listen") {
            if (!value)
                vpprof_fatal("--listen requires host:port");
            cfg.listenAddress = value;
        } else if (flag == "--port-file") {
            if (!value)
                vpprof_fatal("--port-file requires a file path");
            port_file_path = value;
        } else if (flag == "--jobs") {
            cfg.session.jobs = static_cast<unsigned>(
                parseUintFlag("--jobs", value));
        } else if (flag == "--max-queue") {
            cfg.maxQueue = static_cast<size_t>(
                parseUintFlag("--max-queue", value));
            if (cfg.maxQueue == 0)
                vpprof_fatal("--max-queue must be >= 1 (got 0)");
        } else if (flag == "--max-inflight") {
            cfg.maxInflightPerClient = static_cast<size_t>(
                parseUintFlag("--max-inflight", value));
            if (cfg.maxInflightPerClient == 0)
                vpprof_fatal("--max-inflight must be >= 1 (got 0)");
        } else if (flag == "--idle-timeout-ms") {
            cfg.idleTimeoutMs =
                parseUintFlag("--idle-timeout-ms", value);
        } else if (flag == "--max-outbuf-bytes") {
            cfg.maxClientOutBufBytes = static_cast<size_t>(
                parseUintFlag("--max-outbuf-bytes", value));
            if (cfg.maxClientOutBufBytes == 0)
                vpprof_fatal("--max-outbuf-bytes must be >= 1 (got 0)");
        } else if (flag == "--watchdog-ms") {
            cfg.watchdogMs = parseUintFlag("--watchdog-ms", value);
        } else if (flag == "--event-ring") {
            cfg.eventRingCap = static_cast<size_t>(
                parseUintFlag("--event-ring", value));
            if (cfg.eventRingCap == 0)
                vpprof_fatal("--event-ring must be >= 1 (got 0)");
        } else if (flag == "--slo") {
            if (!value)
                vpprof_fatal("--slo requires a spec "
                             "(p99_ms=...,error_rate=...)");
            std::string slo_error;
            auto slo = daemon::parseSloSpec(value, &slo_error);
            if (!slo)
                vpprof_fatal("--slo: ", slo_error);
            cfg.slo = *slo;
        } else if (flag == "--slo-window") {
            cfg.sloWindow = static_cast<size_t>(
                parseUintFlag("--slo-window", value));
            if (cfg.sloWindow == 0)
                vpprof_fatal("--slo-window must be >= 1 (got 0)");
        } else if (flag == "--trace-json") {
            if (!value)
                vpprof_fatal("--trace-json requires a file path");
            trace_json_path = value;
        } else if (flag == "--metrics-out") {
            if (!value)
                vpprof_fatal("--metrics-out requires a file path");
            metrics_out_path = value;
        } else if (flag == "--stats") {
            show_stats = true;
            continue;  // boolean flag: no value to consume
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            return usage();
        }
        ++arg;  // skip the consumed value
    }
    if (cfg.socketPath.empty())
        return usage();

    telemetry::autoConfigureFromEnv();
    telemetry::configureOutputs(trace_json_path, metrics_out_path);

    daemon::DaemonServer server(cfg);
    std::string error;
    if (!server.start(&error))
        vpprof_fatal("vpprofd: ", error);

    g_server.store(&server);
    struct sigaction sa{};
    sa.sa_handler = onTerminate;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    // The TCP port is only known after bind (--listen host:0): the
    // port file is how a harness discovers it race-free.
    if (!port_file_path.empty()) {
        if (!writeFileAtomically(port_file_path,
                                 std::to_string(server.tcpPort()) +
                                     "\n"))
            vpprof_fatal("vpprofd: cannot write --port-file ",
                         port_file_path);
    }

    vpprof_inform("vpprofd: serving on ", cfg.socketPath,
                  cfg.listenAddress.empty()
                      ? std::string()
                      : " + tcp port " + std::to_string(
                            server.tcpPort()),
                  " (",
                  cfg.session.jobs == 0 ? std::string("all-core")
                                        : std::to_string(
                                              cfg.session.jobs),
                  " lanes, queue ", cfg.maxQueue, ", quota ",
                  cfg.maxInflightPerClient, ")");
    int rc = server.run();

    if (show_stats)
        std::fprintf(stderr, "{%s}\n", server.statsFields().c_str());
    vpprof_inform("vpprofd: drained, exiting ", rc);
    return rc;
}
