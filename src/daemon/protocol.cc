#include "daemon/protocol.hh"

#include <cmath>
#include <sstream>

namespace vpprof
{
namespace daemon
{

const char *
commandName(Command cmd)
{
    switch (cmd) {
      case Command::Ping: return "ping";
      case Command::Profile: return "profile";
      case Command::Evaluate: return "evaluate";
      case Command::Verify: return "verify";
      case Command::Stats: return "stats";
      case Command::Shutdown: return "shutdown";
      case Command::Cancel: return "cancel";
      case Command::Subscribe: return "subscribe";
      case Command::Metrics: return "metrics";
      case Command::Journal: return "journal";
    }
    return "?";
}

std::optional<Command>
parseCommand(std::string_view name)
{
    if (name == "ping") return Command::Ping;
    if (name == "profile") return Command::Profile;
    if (name == "evaluate") return Command::Evaluate;
    if (name == "verify") return Command::Verify;
    if (name == "stats") return Command::Stats;
    if (name == "shutdown") return Command::Shutdown;
    if (name == "cancel") return Command::Cancel;
    if (name == "subscribe") return Command::Subscribe;
    if (name == "metrics") return Command::Metrics;
    if (name == "journal") return Command::Journal;
    return std::nullopt;
}

bool
commandIsJob(Command cmd)
{
    return cmd == Command::Profile || cmd == Command::Evaluate ||
           cmd == Command::Verify;
}

bool
commandIsIdempotent(Command cmd)
{
    return cmd != Command::Shutdown;
}

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadRequest: return "bad_request";
      case ErrorCode::UnknownWorkload: return "unknown_workload";
      case ErrorCode::BadInput: return "bad_input";
      case ErrorCode::Overloaded: return "overloaded";
      case ErrorCode::Quota: return "quota";
      case ErrorCode::Draining: return "draining";
      case ErrorCode::Internal: return "internal";
      case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
      case ErrorCode::Cancelled: return "cancelled";
    }
    return "?";
}

namespace
{

/**
 * Read the optional integer member `name` of `doc` into `*out`. JSON
 * numbers arrive as doubles, so the value must be integral, at least
 * `min` and at most 2^53 (the largest range a double holds exactly)
 * before the cast: a fraction or an out-of-range value is a bad
 * request, never a silent truncation or an undefined conversion.
 * True when absent (`*out` untouched) or valid.
 */
template <typename T>
bool
readInteger(const report::JsonValue &doc, const char *name, T min,
            T *out, std::string *error)
{
    const report::JsonValue *v = doc.get(name);
    if (!v)
        return true;
    double d = v->isNumber() ? v->asNumber() : -1;
    if (!(d >= static_cast<double>(min) && d <= 0x1p53 &&
          d == std::floor(d))) {
        if (error)
            *error = std::string("'") + name + "' must be " +
                     (min > 0 ? "a positive" : "a non-negative") +
                     " integer (at most 2^53)";
        return false;
    }
    *out = static_cast<T>(d);
    return true;
}

} // namespace

std::optional<Request>
parseRequest(std::string_view line, std::string *error,
             uint64_t *id_out)
{
    std::string parse_error;
    std::optional<report::JsonValue> doc =
        report::parseJson(line, &parse_error);
    if (!doc) {
        if (error)
            *error = "malformed JSON: " + parse_error;
        return std::nullopt;
    }
    if (!doc->isObject()) {
        if (error)
            *error = "request must be a JSON object";
        return std::nullopt;
    }

    Request req;
    if (!doc->get("id")) {
        if (error)
            *error = "request needs a non-negative integer 'id'";
        return std::nullopt;
    }
    if (!readInteger<uint64_t>(*doc, "id", 0, &req.id, error))
        return std::nullopt;
    if (id_out)
        *id_out = req.id;

    const report::JsonValue *cmd = doc->get("cmd");
    if (!cmd || !cmd->isString()) {
        if (error)
            *error = "request needs a string 'cmd'";
        return std::nullopt;
    }
    std::optional<Command> parsed = parseCommand(cmd->asString());
    if (!parsed) {
        if (error)
            *error = "unknown command '" + cmd->asString() + "'";
        return std::nullopt;
    }
    req.cmd = *parsed;

    if (const report::JsonValue *w = doc->get("workload")) {
        if (!w->isString()) {
            if (error)
                *error = "'workload' must be a string";
            return std::nullopt;
        }
        req.workload = w->asString();
    }
    if (!readInteger<size_t>(*doc, "input", 0, &req.input, error))
        return std::nullopt;
    if (const report::JsonValue *t = doc->get("threshold")) {
        if (!t->isNumber()) {
            if (error)
                *error = "'threshold' must be a number";
            return std::nullopt;
        }
        req.threshold = t->asNumber();
    }
    if (!readInteger<uint64_t>(*doc, "deadline_ms", 0, &req.deadlineMs,
                               error) ||
        !readInteger<uint64_t>(*doc, "target", 1, &req.cancelTarget,
                               error) ||
        !readInteger<uint64_t>(*doc, "trace_id", 0, &req.traceId, error))
        return std::nullopt;
    if (const report::JsonValue *e = doc->get("events")) {
        if (!e->isString()) {
            if (error)
                *error = "'events' must be a string";
            return std::nullopt;
        }
        req.subEvents = e->asString();
    }
    if (const report::JsonValue *r = doc->get("sample_rate")) {
        if (!r->isNumber() || r->asNumber() <= 0 ||
            r->asNumber() > 1) {
            if (error)
                *error = "'sample_rate' must be a number in (0, 1]";
            return std::nullopt;
        }
        req.sampleRate = r->asNumber();
    }
    if (const report::JsonValue *f = doc->get("format")) {
        if (!f->isString()) {
            if (error)
                *error = "'format' must be a string";
            return std::nullopt;
        }
        req.format = f->asString();
    }
    if (!readInteger<uint64_t>(*doc, "limit", 0, &req.limit, error))
        return std::nullopt;

    if (commandIsJob(req.cmd) && req.workload.empty()) {
        if (error)
            *error = std::string("'") + commandName(req.cmd) +
                     "' needs a 'workload'";
        return std::nullopt;
    }
    if (req.cmd == Command::Cancel && req.cancelTarget == 0) {
        if (error)
            *error = "'cancel' needs a positive numeric 'target'";
        return std::nullopt;
    }
    if (!req.format.empty() && req.format != "json" &&
        req.format != "prometheus") {
        if (error)
            *error = "'format' must be \"json\" or \"prometheus\"";
        return std::nullopt;
    }
    return req;
}

std::string
requestLine(const Request &req)
{
    std::ostringstream os;
    os << "{\"id\": "
       << report::formatJsonNumber(static_cast<double>(req.id))
       << ", \"cmd\": \"" << commandName(req.cmd) << "\"";
    if (!req.workload.empty())
        os << ", \"workload\": "
           << report::quoteJsonString(req.workload) << ", \"input\": "
           << report::formatJsonNumber(
                  static_cast<double>(req.input));
    if (req.cmd == Command::Evaluate)
        os << ", \"threshold\": "
           << report::formatJsonNumber(req.threshold);
    if (req.deadlineMs > 0)
        os << ", \"deadline_ms\": "
           << report::formatJsonNumber(
                  static_cast<double>(req.deadlineMs));
    if (req.cancelTarget > 0)
        os << ", \"target\": "
           << report::formatJsonNumber(
                  static_cast<double>(req.cancelTarget));
    if (req.traceId > 0)
        os << ", \"trace_id\": "
           << report::formatJsonNumber(
                  static_cast<double>(req.traceId));
    if (!req.subEvents.empty())
        os << ", \"events\": " << report::quoteJsonString(req.subEvents);
    if (req.sampleRate != 1.0)
        os << ", \"sample_rate\": "
           << report::formatJsonNumber(req.sampleRate);
    if (!req.format.empty())
        os << ", \"format\": " << report::quoteJsonString(req.format);
    if (req.limit > 0)
        os << ", \"limit\": "
           << report::formatJsonNumber(static_cast<double>(req.limit));
    os << "}";
    return os.str();
}

namespace
{

/** The optional `, "trace_id": N` member (empty when N == 0). */
void
writeTraceId(std::ostream &os, uint64_t trace_id)
{
    if (trace_id > 0)
        os << ", \"trace_id\": "
           << report::formatJsonNumber(static_cast<double>(trace_id));
}

} // namespace

std::string
okResponseLine(uint64_t id, Command cmd,
               const std::string &result_fields, uint64_t trace_id)
{
    std::ostringstream os;
    os << "{\"id\": "
       << report::formatJsonNumber(static_cast<double>(id))
       << ", \"ok\": true, \"cmd\": \"" << commandName(cmd) << "\"";
    writeTraceId(os, trace_id);
    os << ", \"result\": {" << result_fields << "}}";
    return os.str();
}

std::string
errorResponseLine(uint64_t id, ErrorCode code, std::string_view message,
                  uint64_t trace_id)
{
    std::ostringstream os;
    os << "{\"id\": "
       << report::formatJsonNumber(static_cast<double>(id))
       << ", \"ok\": false, \"code\": \"" << errorCodeName(code)
       << "\", \"error\": " << report::quoteJsonString(message);
    writeTraceId(os, trace_id);
    os << "}";
    return os.str();
}

std::string
rejectionResponseLine(uint64_t id, ErrorCode code,
                      std::string_view message, uint64_t retry_after_ms,
                      uint64_t queued, uint64_t trace_id)
{
    std::ostringstream os;
    os << "{\"id\": "
       << report::formatJsonNumber(static_cast<double>(id))
       << ", \"ok\": false, \"code\": \"" << errorCodeName(code)
       << "\", \"error\": " << report::quoteJsonString(message)
       << ", \"retry_after_ms\": "
       << report::formatJsonNumber(static_cast<double>(retry_after_ms))
       << ", \"queued\": "
       << report::formatJsonNumber(static_cast<double>(queued));
    writeTraceId(os, trace_id);
    os << "}";
    return os.str();
}

} // namespace daemon
} // namespace vpprof
