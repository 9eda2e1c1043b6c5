/**
 * @file
 * Helpers shared by the vpprofd benches (throughput, chaos,
 * observability): an in-process daemon with its event loop on a
 * background thread, unique socket paths, and the wall-clock and
 * percentile arithmetic their gates use. A separate header from
 * bench_util.hh so only the daemon benches link vpprof_daemon.
 */

#ifndef VPPROF_BENCH_BENCH_DAEMON_UTIL_HH
#define VPPROF_BENCH_BENCH_DAEMON_UTIL_HH

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "daemon/client.hh"
#include "daemon/server.hh"

namespace vpprof
{
namespace bench
{

/** A short unique socket path (sun_path is ~108 bytes):
 *  `<prefix><pid>_<n>.sock`. */
inline std::string
freshSocketPath(const char *prefix)
{
    static int counter = 0;
    std::ostringstream os;
    os << prefix << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

/** One daemon instance with its event loop on a background thread. */
struct RunningDaemon
{
    std::unique_ptr<daemon::DaemonServer> server;
    std::thread loop;
    int rc = -1;

    /** Serve `cfg` on a fresh socket path under `socket_prefix`. */
    RunningDaemon(daemon::DaemonConfig cfg, const char *socket_prefix)
    {
        cfg.socketPath = freshSocketPath(socket_prefix);
        server = std::make_unique<daemon::DaemonServer>(std::move(cfg));
        std::string error;
        if (!server->start(&error))
            vpprof_panic("daemon start failed: ", error);
        loop = std::thread([this] { rc = server->run(); });
    }

    daemon::DaemonClient
    client()
    {
        daemon::DaemonClient c;
        std::string error;
        if (!c.connect(server->config().socketPath, &error))
            vpprof_panic("daemon connect failed: ", error);
        return c;
    }

    /** Graceful drain; the event loop must exit 0. */
    int
    stop()
    {
        server->requestShutdown();
        loop.join();
        return rc;
    }
};

inline double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Nearest-rank quantile `q` of an already sorted sample (0 if empty). */
inline double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace bench
} // namespace vpprof

#endif // VPPROF_BENCH_BENCH_DAEMON_UTIL_HH
