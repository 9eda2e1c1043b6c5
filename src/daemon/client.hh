/**
 * @file
 * Blocking client for the vpprofd protocol: connect to the daemon's
 * Unix-domain socket, send request lines, read response/event lines
 * with a poll()-based timeout. Backs `vpprof_cli daemon-client`, the
 * daemon tests and the load bench.
 *
 * call() is the high-level entry: it sends one request and reads until
 * the line answering that id arrives (responses carry `ok`; `event`
 * lines for the id are collected aside, events for other ids are
 * impossible on a connection driven synchronously). Timeouts and
 * disconnects are reported as CallResult errors, never exceptions —
 * a load generator must count them, not die.
 *
 * Every failure carries a typed CallReason alongside the legacy
 * string code, so the retry policy and the tests branch on an enum,
 * never on error prose. callWithRetry() layers a RetryPolicy over
 * call(): backoff with seeded jitter, retry_after_ms hints honored,
 * automatic reconnect (connect() remembers the socket path) — the
 * client a load generator should use against a shedding daemon.
 */

#ifndef VPPROF_DAEMON_CLIENT_HH
#define VPPROF_DAEMON_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "daemon/protocol.hh"
#include "report/json.hh"

namespace vpprof
{
namespace daemon
{

/**
 * Typed classification of how a call() ended. The string `code`
 * stays for wire/display compatibility (`timeout`, `disconnected`,
 * `protocol`, or the daemon's code), but policy decisions branch on
 * this enum — EOF, a read errno and a send failure are different
 * facts even though all three print as "disconnected".
 */
enum class CallReason
{
    Ok,           ///< transport worked, daemon answered ok:true
    DaemonError,  ///< transport worked, daemon answered ok:false
    Timeout,      ///< no complete response line within the deadline
    Eof,          ///< peer closed the connection (clean EOF)
    ReadError,    ///< read() failed with an errno
    SendError,    ///< send() failed (peer gone mid-request)
    PollError,    ///< poll() itself failed
    NotConnected, ///< no live connection to send on
    Oversize,     ///< response line exceeded maxLineBytes
    Protocol,     ///< unparseable or id-mismatched response line
};

const char *callReasonName(CallReason reason);

struct RetryPolicy;  // daemon/retry.hh

/** Outcome of one call() round trip. */
struct CallResult
{
    /** Transport worked and the daemon answered `ok: true`. */
    bool ok = false;
    /** Why the call ended (typed; what RetryPolicy branches on). */
    CallReason reason = CallReason::Ok;
    /** Daemon error code (errorCodeName) or a transport pseudo-code:
     *  `timeout`, `disconnected`, `protocol`. */
    std::string code;
    /** Human-readable failure detail (daemon `error` or transport). */
    std::string error;
    /** Backoff hint from a shedding rejection (0 when absent). */
    uint64_t retryAfterMs = 0;
    /** Attempts callWithRetry spent (plain call() leaves it at 1). */
    size_t attempts = 1;
    /** The parsed response document (null kind when transport failed). */
    report::JsonValue response;
    /** The raw response line (empty when transport failed). */
    std::string raw;
};

class DaemonClient
{
  public:
    DaemonClient() = default;
    ~DaemonClient();

    DaemonClient(const DaemonClient &) = delete;
    DaemonClient &operator=(const DaemonClient &) = delete;

    DaemonClient(DaemonClient &&other) noexcept
        : fd_(other.fd_),
          inBuf_(std::move(other.inBuf_)),
          lastError_(std::move(other.lastError_)),
          lastReason_(other.lastReason_),
          socketPath_(std::move(other.socketPath_)),
          maxLineBytes_(other.maxLineBytes_)
    {
        other.fd_ = -1;
    }

    /** Connect to the daemon (remembered for reconnect()): a
     *  filesystem path selects the Unix socket, "host:port" the TCP
     *  front-end (vpprofd --listen). False (with diagnostic) on
     *  failure. */
    bool connect(const std::string &socket_path, std::string *error);

    /** Re-connect to the last connect()ed socket path. */
    bool reconnect(std::string *error);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** Bound on one response line; longer is a Protocol failure. */
    void setMaxLineBytes(size_t bytes) { maxLineBytes_ = bytes; }

    /**
     * Send one raw line (newline appended). False on a transport
     * failure (the connection is closed).
     */
    bool sendLine(const std::string &line);

    /**
     * Read the next complete line, waiting up to timeout_ms. nullopt
     * on timeout, EOF or error (distinguish via lastError()).
     */
    std::optional<std::string> readLine(int timeout_ms);

    /**
     * Send `request_line` (which must carry `id`) and read until the
     * response for that id arrives, skipping `event` lines (a
     * subscribed connection's lifecycle stream). timeout_ms bounds
     * the WHOLE call.
     */
    CallResult call(const std::string &request_line, uint64_t id,
                    int timeout_ms);

    /** Convenience: build + send a command request. */
    CallResult call(uint64_t id, Command cmd,
                    const std::string &workload, size_t input,
                    double threshold, int timeout_ms);

    /**
     * call() under a RetryPolicy: on a retryable failure (see
     * daemon/retry.hh for the matrix) sleep the planned backoff,
     * reconnect when the transport died, and re-send; CallResult
     * carries the final outcome with `attempts` filled in.
     * `timeout_ms` bounds EACH attempt.
     */
    CallResult callWithRetry(const Request &req,
                             const RetryPolicy &policy, int timeout_ms);

    const std::string &lastError() const { return lastError_; }

    /** Typed classification of the last transport failure. */
    CallReason lastReason() const { return lastReason_; }

  private:
    int fd_ = -1;
    std::string inBuf_;
    std::string lastError_;
    CallReason lastReason_ = CallReason::Ok;
    std::string socketPath_;
    size_t maxLineBytes_ = 1 << 20;
};

} // namespace daemon
} // namespace vpprof

#endif // VPPROF_DAEMON_CLIENT_HH
