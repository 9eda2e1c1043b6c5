/**
 * @file
 * The vpprofd wire protocol: newline-delimited JSON over a Unix
 * domain stream socket (DESIGN.md §13).
 *
 * Every line the client sends is one complete request object; every
 * line the daemon sends is one complete response or event object. A
 * request names a command and carries an `id` the daemon echoes on
 * its one answer line, so a client may pipeline requests freely and
 * match answers by id (answers arrive in completion order, not
 * request order):
 *
 *   -> {"id": 1, "cmd": "evaluate", "workload": "li", "input": 0,
 *       "threshold": 70}
 *   <- {"id": 1, "ok": true, "cmd": "evaluate", "result": {...}}
 *
 * Event lines reach only a connection that issued `subscribe`; a
 * job's lifecycle (admitted, started, completed, ...) is told there
 * and in `journal`, never on the requesting connection.
 *
 * Failures are structured, never silent: a request the daemon will
 * not run gets `{"id": N, "ok": false, "code": "...", "error": ...}`
 * with a stable machine-readable code — `overloaded` and `quota` are
 * the admission-control rejections clients are expected to back off
 * on; `draining` means the daemon is shutting down gracefully. Those
 * three load-shedding rejections additionally carry a
 * `retry_after_ms` backoff hint and the current `queued` depth
 * (rejectionResponseLine), so a RetryPolicy can pace itself off the
 * daemon's own view of the backlog instead of guessing.
 *
 * Resilience extensions: a request may carry `deadline_ms` (relative;
 * a job still queued or unanswered past it is rejected
 * `deadline_exceeded` rather than served late), and `cancel` is an
 * inline command whose `target` names a previously pipelined request
 * id on the same connection — a queued target is removed and answered
 * `cancelled`; a running or finished target is left alone.
 *
 * Observability extensions: every request is assigned a trace id —
 * client-supplied (`trace_id`) or daemon-minted — and the daemon
 * echoes it as `"trace_id"` on every response and event it emits for
 * that request, so a request's wire lines, its lifecycle events, and
 * its executor spans in the Perfetto trace all join on one key.
 * `subscribe` turns the issuing connection into a stream of job
 * lifecycle events (`events` may only name `lifecycle`; optionally
 * downsampled by `sample_rate`);
 * `metrics` returns a merged registry snapshot without resetting it
 * (`format: "prometheus"` selects text exposition); `journal` returns
 * the daemon's bounded ring of recent job lifecycle events (`limit`
 * caps the returned tail).
 *
 * The documents are strict RFC 8259 JSON (the report/json parser and
 * writers are reused verbatim), and every number is emitted through
 * formatJsonNumber, so a daemon result parsed back yields doubles
 * bit-identical to what the CLI-batch path computes in process.
 */

#ifndef VPPROF_DAEMON_PROTOCOL_HH
#define VPPROF_DAEMON_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "report/json.hh"

namespace vpprof
{
namespace daemon
{

/** The daemon's command set. */
enum class Command
{
    Ping,     ///< liveness probe; answered inline by the event loop
    Profile,  ///< phase-2 profile of (workload, input); a job
    Evaluate, ///< FSM-vs-profile classification accuracy; a job
    Verify,   ///< execute (workload, input), check the checksum; a job
    Stats,    ///< daemon + trace-repository counters; answered inline
    Shutdown, ///< begin graceful drain; answered inline
    Cancel,   ///< remove a queued job by request id; answered inline
    Subscribe,///< stream telemetry events on this connection; inline
    Metrics,  ///< live metrics snapshot (json/prometheus); inline
    Journal,  ///< recent job lifecycle events; answered inline
};

const char *commandName(Command cmd);
std::optional<Command> parseCommand(std::string_view name);

/** True for commands that run as queued jobs (admission-controlled). */
bool commandIsJob(Command cmd);

/**
 * True for commands a client may safely re-send after an ambiguous
 * transport failure (timeout / disconnect mid-call). Jobs are pure
 * reads of the memoized Session, ping/stats/cancel observe state —
 * only `shutdown` mutates it, so only `shutdown` is excluded. The
 * RetryPolicy consults this before retrying a transport error (a
 * daemon-level rejection was never executed, so those retry freely).
 */
bool commandIsIdempotent(Command cmd);

/** Stable machine-readable rejection/failure codes. */
enum class ErrorCode
{
    BadRequest,      ///< malformed JSON / missing or invalid fields
    UnknownWorkload, ///< workload name not in the suite
    BadInput,        ///< input index out of range
    Overloaded,      ///< admission queue full; retry with backoff
    Quota,           ///< per-client in-flight quota exceeded
    Draining,        ///< daemon is shutting down; no new jobs
    Internal,        ///< job failed inside the daemon (a vpprof bug)
    DeadlineExceeded,///< the request's deadline_ms elapsed unserved
    Cancelled,       ///< removed from the queue by `cancel`/disconnect
};

const char *errorCodeName(ErrorCode code);

/** One parsed request line. */
struct Request
{
    uint64_t id = 0;
    Command cmd = Command::Ping;
    std::string workload;     ///< profile / evaluate / verify
    size_t input = 0;         ///< input-set index (default 0)
    double threshold = 70.0;  ///< evaluate: annotation threshold (%)
    uint64_t deadlineMs = 0;  ///< relative deadline; 0 = none
    uint64_t cancelTarget = 0;///< cancel: the request id to remove
    uint64_t traceId = 0;     ///< client-chosen trace id; 0 = mint one
    std::string subEvents;    ///< subscribe: event classes; empty
                              ///< or "lifecycle" (the only class)
    double sampleRate = 1.0;  ///< subscribe: deliver this fraction of
                              ///< matching events, in (0, 1]
    std::string format;       ///< metrics: "json" (default) or
                              ///< "prometheus"
    uint64_t limit = 0;       ///< journal: cap returned events; 0 = all
};

/**
 * Parse one request line. On failure returns nullopt and a one-line
 * diagnostic in `error`; when the malformed document still carried a
 * numeric `id`, it is reported through `id_out` so the error response
 * can echo it (otherwise `id_out` is left untouched).
 */
std::optional<Request> parseRequest(std::string_view line,
                                    std::string *error,
                                    uint64_t *id_out = nullptr);

/**
 * Serialize a request as one wire line (no trailing newline). The
 * inverse of parseRequest: round-tripping through it is lossless for
 * every representable request. DaemonClient and the load bench build
 * their requests through it.
 */
std::string requestLine(const Request &req);

/**
 * Response lines (no trailing newline; the channel appends it).
 * `result_fields` are pre-rendered JSON object members
 * ("\"a\": 1, \"b\": 2"), empty for an empty object. A non-zero
 * `trace_id` is echoed as `"trace_id"` so clients can correlate the
 * answer with lifecycle events and the Perfetto trace.
 */
std::string okResponseLine(uint64_t id, Command cmd,
                           const std::string &result_fields,
                           uint64_t trace_id = 0);
std::string errorResponseLine(uint64_t id, ErrorCode code,
                              std::string_view message,
                              uint64_t trace_id = 0);

/**
 * A load-shedding rejection (`overloaded`/`quota`/`draining`): an
 * error response that additionally carries the daemon's backoff hint
 * (`retry_after_ms`) and the admission backlog at rejection time
 * (`queued`). ONE serializer so every shedding site answers uniformly.
 */
std::string rejectionResponseLine(uint64_t id, ErrorCode code,
                                  std::string_view message,
                                  uint64_t retry_after_ms,
                                  uint64_t queued,
                                  uint64_t trace_id = 0);

} // namespace daemon
} // namespace vpprof

#endif // VPPROF_DAEMON_PROTOCOL_HH
