#include "daemon/client.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/retry.hh"

namespace vpprof
{
namespace daemon
{

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
callReasonName(CallReason reason)
{
    switch (reason) {
      case CallReason::Ok: return "ok";
      case CallReason::DaemonError: return "daemon_error";
      case CallReason::Timeout: return "timeout";
      case CallReason::Eof: return "eof";
      case CallReason::ReadError: return "read_error";
      case CallReason::SendError: return "send_error";
      case CallReason::PollError: return "poll_error";
      case CallReason::NotConnected: return "not_connected";
      case CallReason::Oversize: return "oversize";
      case CallReason::Protocol: return "protocol";
    }
    return "?";
}

DaemonClient::~DaemonClient()
{
    close();
}

void
DaemonClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    inBuf_.clear();
}

bool
DaemonClient::connect(const std::string &socket_path, std::string *error)
{
    close();
    socketPath_ = socket_path;

    // A target carrying ':' that is not a filesystem path is the TCP
    // front-end ("host:port", vpprofd --listen); everything else is
    // the classic Unix-domain socket. The wire protocol above the
    // transport is byte-identical on both.
    size_t colon = socket_path.rfind(':');
    if (colon != std::string::npos && !socket_path.empty() &&
        socket_path[0] != '/' && socket_path[0] != '.') {
        std::string host = socket_path.substr(0, colon);
        if (host == "localhost")
            host = "127.0.0.1";
        char *end = nullptr;
        unsigned long port =
            std::strtoul(socket_path.c_str() + colon + 1, &end, 10);
        sockaddr_in inet_addr{};
        inet_addr.sin_family = AF_INET;
        inet_addr.sin_port = htons(static_cast<uint16_t>(port));
        if (colon == 0 || *end != '\0' || port == 0 || port > 65535 ||
            ::inet_pton(AF_INET, host.c_str(),
                        &inet_addr.sin_addr) != 1) {
            if (error)
                *error = "bad daemon address '" + socket_path +
                         "' (want host:port or a socket path)";
            return false;
        }
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
            if (error)
                *error = std::string("cannot create socket (") +
                         std::strerror(errno) + ")";
            return false;
        }
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&inet_addr),
                      sizeof(inet_addr)) != 0) {
            if (error)
                *error = "cannot connect to " + socket_path + " (" +
                         std::strerror(errno) + ")";
            close();
            return false;
        }
        return true;
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + socket_path;
        return false;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (error)
            *error = std::string("cannot create socket (") +
                     std::strerror(errno) + ")";
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = "cannot connect to " + socket_path + " (" +
                     std::strerror(errno) + ")";
        close();
        return false;
    }
    return true;
}

bool
DaemonClient::reconnect(std::string *error)
{
    if (socketPath_.empty()) {
        if (error)
            *error = "no socket path to reconnect to";
        return false;
    }
    return connect(socketPath_, error);
}

bool
DaemonClient::sendLine(const std::string &line)
{
    if (fd_ < 0) {
        lastError_ = "not connected";
        lastReason_ = CallReason::NotConnected;
        return false;
    }
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
        // MSG_NOSIGNAL: a dead daemon is an error return, not SIGPIPE.
        ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        lastError_ = std::string("send failed (") +
                     std::strerror(errno) + ")";
        lastReason_ = CallReason::SendError;
        close();
        return false;
    }
    return true;
}

std::optional<std::string>
DaemonClient::readLine(int timeout_ms)
{
    if (fd_ < 0) {
        lastError_ = "not connected";
        lastReason_ = CallReason::NotConnected;
        return std::nullopt;
    }
    int64_t deadline = nowMs() + timeout_ms;
    for (;;) {
        size_t nl = inBuf_.find('\n');
        if (nl != std::string::npos) {
            std::string line = inBuf_.substr(0, nl);
            inBuf_.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return line;
        }
        // A line that cannot complete within the bound is a protocol
        // fault, not something to buffer without limit.
        if (inBuf_.size() > maxLineBytes_) {
            lastError_ = "response line exceeds " +
                         std::to_string(maxLineBytes_) + " bytes";
            lastReason_ = CallReason::Oversize;
            close();
            return std::nullopt;
        }

        int64_t remaining = deadline - nowMs();
        if (remaining <= 0) {
            lastError_ = "timeout";
            lastReason_ = CallReason::Timeout;
            return std::nullopt;
        }
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            lastError_ = std::string("poll failed (") +
                         std::strerror(errno) + ")";
            lastReason_ = CallReason::PollError;
            close();
            return std::nullopt;
        }
        if (rc == 0) {
            lastError_ = "timeout";
            lastReason_ = CallReason::Timeout;
            return std::nullopt;
        }

        char buf[4096];
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            inBuf_.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) {
            lastError_ = "disconnected";
            lastReason_ = CallReason::Eof;
            close();
            return std::nullopt;
        }
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        lastError_ = std::string("read failed (") +
                     std::strerror(errno) + ")";
        lastReason_ = CallReason::ReadError;
        close();
        return std::nullopt;
    }
}

CallResult
DaemonClient::call(const std::string &request_line, uint64_t id,
                   int timeout_ms)
{
    CallResult result;
    int64_t deadline = nowMs() + timeout_ms;
    if (!sendLine(request_line)) {
        result.reason = lastReason_;
        result.code = "disconnected";
        result.error = lastError_;
        return result;
    }
    for (;;) {
        int64_t remaining = deadline - nowMs();
        if (remaining <= 0) {
            result.reason = CallReason::Timeout;
            result.code = "timeout";
            result.error = "no response for id " + std::to_string(id) +
                           " within " + std::to_string(timeout_ms) +
                           " ms";
            return result;
        }
        std::optional<std::string> line =
            readLine(static_cast<int>(remaining));
        if (!line) {
            // The typed reason distinguishes EOF / read errno / poll
            // failure; the string code keeps the coarse wire-compat
            // buckets callers already display.
            result.reason = lastReason_;
            switch (lastReason_) {
              case CallReason::Timeout:
                result.code = "timeout";
                break;
              case CallReason::Oversize:
                result.code = "protocol";
                break;
              default:
                result.code = "disconnected";
                break;
            }
            result.error = lastError_;
            return result;
        }

        std::string parse_error;
        std::optional<report::JsonValue> doc =
            report::parseJson(*line, &parse_error);
        if (!doc || !doc->isObject()) {
            result.reason = CallReason::Protocol;
            result.code = "protocol";
            result.error = "unparseable line from daemon: " + *line;
            return result;
        }
        const report::JsonValue *line_id = doc->get("id");
        uint64_t got_id =
            line_id && line_id->isNumber()
                ? static_cast<uint64_t>(line_id->asNumber())
                : 0;
        if (doc->get("event"))
            continue;
        if (got_id != id) {
            // A pipelined answer for another id on a synchronous
            // connection is a protocol violation worth surfacing.
            result.reason = CallReason::Protocol;
            result.code = "protocol";
            result.error = "response id mismatch: expected " +
                           std::to_string(id) + ", got " + *line;
            return result;
        }

        const report::JsonValue *ok = doc->get("ok");
        result.ok = ok && ok->isBool() && ok->asBool();
        result.reason =
            result.ok ? CallReason::Ok : CallReason::DaemonError;
        if (!result.ok) {
            const report::JsonValue *code = doc->get("code");
            const report::JsonValue *err = doc->get("error");
            result.code =
                code && code->isString() ? code->asString() : "internal";
            result.error =
                err && err->isString() ? err->asString() : *line;
            result.retryAfterMs = static_cast<uint64_t>(
                doc->numberOr("retry_after_ms", 0.0));
        }
        result.response = std::move(*doc);
        result.raw = std::move(*line);
        return result;
    }
}

CallResult
DaemonClient::call(uint64_t id, Command cmd, const std::string &workload,
                   size_t input, double threshold, int timeout_ms)
{
    Request req;
    req.id = id;
    req.cmd = cmd;
    req.workload = workload;
    req.input = input;
    req.threshold = threshold;
    return call(requestLine(req), id, timeout_ms);
}

CallResult
DaemonClient::callWithRetry(const Request &req,
                            const RetryPolicy &policy, int timeout_ms)
{
    RetryState state(policy, static_cast<uint64_t>(nowMs()));
    std::string line = requestLine(req);
    for (;;) {
        if (!connected()) {
            std::string error;
            if (!reconnect(&error)) {
                CallResult result;
                result.reason = CallReason::NotConnected;
                result.code = "disconnected";
                result.error = error;
                result.attempts = state.attempts();
                RetryDecision decision = state.next(
                    result, req.cmd, static_cast<uint64_t>(nowMs()));
                if (!decision.retry) {
                    result.error += "; " + decision.giveUpReason;
                    return result;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(decision.delayMs));
                continue;
            }
        }
        CallResult result = call(line, req.id, timeout_ms);
        result.attempts = state.attempts();
        if (result.ok)
            return result;
        RetryDecision decision =
            state.next(result, req.cmd, static_cast<uint64_t>(nowMs()));
        if (!decision.retry)
            return result;
        if (decision.delayMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(decision.delayMs));
    }
}

} // namespace daemon
} // namespace vpprof
