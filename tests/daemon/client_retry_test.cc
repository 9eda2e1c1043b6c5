/**
 * @file
 * DaemonClient transport edge paths against a hand-rolled fake server
 * (a raw Unix-domain listener the test scripts byte by byte): half-open
 * sockets, oversize response lines, timeouts with a partially received
 * line — each classified by the typed CallReason, not by error prose.
 * Plus the RetryState backoff planner under a fake clock: seeded
 * jitter sequences, retry_after_ms floors, deadline budgets and the
 * idempotency guard are all asserted to the millisecond.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/client.hh"
#include "daemon/retry.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/vpd_c" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

/**
 * A listener that is NOT a DaemonServer: the test accepts one
 * connection and writes exactly the bytes the scenario needs, so
 * protocol-violating behavior (half lines, no lines, giant lines) is
 * scriptable.
 */
class FakeServer
{
  public:
    bool
    start()
    {
        path_ = freshSocketPath();
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path_.c_str());
        return ::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0 &&
               ::listen(listenFd_, 4) == 0;
    }

    int
    acceptOne()
    {
        return ::accept(listenFd_, nullptr, nullptr);
    }

    const std::string &path() const { return path_; }

    ~FakeServer()
    {
        if (listenFd_ >= 0)
            ::close(listenFd_);
        if (!path_.empty())
            ::unlink(path_.c_str());
    }

  private:
    int listenFd_ = -1;
    std::string path_;
};

void
writeAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<size_t>(n);
    }
}

TEST(ClientEdge, HalfOpenSocketMidResponseIsTypedEof)
{
    FakeServer server;
    ASSERT_TRUE(server.start());
    DaemonClient client;
    std::string error;
    ASSERT_TRUE(client.connect(server.path(), &error)) << error;
    int peer = server.acceptOne();
    ASSERT_GE(peer, 0);

    // The server starts a response, then closes mid-line: the client
    // must classify this as EOF, not a timeout and not a parse error.
    // (The peer drains the request first — closing with unread data
    // in the receive queue turns the close into ECONNRESET.)
    std::thread peer_thread([&] {
        char buf[256];
        (void)::recv(peer, buf, sizeof(buf), 0);
        writeAll(peer, R"({"id": 1, "ok": tr)");  // half a line
        ::close(peer);
    });
    CallResult result =
        client.call(R"({"id": 1, "cmd": "ping"})", 1, 5000);
    peer_thread.join();

    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reason, CallReason::Eof);
    EXPECT_EQ(result.code, "disconnected")
        << "the legacy string bucket is preserved";
    EXPECT_FALSE(client.connected());
}

TEST(ClientEdge, OversizeResponseLineIsTypedProtocolFailure)
{
    FakeServer server;
    ASSERT_TRUE(server.start());
    DaemonClient client;
    client.setMaxLineBytes(64);
    std::string error;
    ASSERT_TRUE(client.connect(server.path(), &error)) << error;
    int peer = server.acceptOne();
    ASSERT_GE(peer, 0);

    // A response that can never complete within the client's line
    // bound must not buffer without limit.
    std::thread peer_thread(
        [&] { writeAll(peer, std::string(4096, 'x')); });
    CallResult result =
        client.call(R"({"id": 1, "cmd": "ping"})", 1, 5000);
    peer_thread.join();
    ::close(peer);

    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reason, CallReason::Oversize);
    EXPECT_EQ(result.code, "protocol");
    EXPECT_NE(result.error.find("64"), std::string::npos);
}

TEST(ClientEdge, TimeoutPreservesPartiallyReceivedLine)
{
    FakeServer server;
    ASSERT_TRUE(server.start());
    DaemonClient client;
    std::string error;
    ASSERT_TRUE(client.connect(server.path(), &error)) << error;
    int peer = server.acceptOne();
    ASSERT_GE(peer, 0);

    // Half a line, then silence: readLine must time out (typed), keep
    // the partial bytes buffered, and complete the line once the rest
    // arrives — a slow daemon is late, not corrupt.
    writeAll(peer, R"({"id": 9, "ok": true, "cmd": )");
    auto first = client.readLine(80);
    EXPECT_FALSE(first);
    EXPECT_EQ(client.lastReason(), CallReason::Timeout);
    EXPECT_TRUE(client.connected())
        << "a timeout must not tear down the connection";

    writeAll(peer, "\"ping\", \"result\": {}}\n");
    auto second = client.readLine(5000);
    ASSERT_TRUE(second) << client.lastError();
    auto doc = report::parseJson(*second);
    ASSERT_TRUE(doc) << "the reassembled line must parse";
    EXPECT_DOUBLE_EQ(doc->numberOr("id", -1), 9.0);
    ::close(peer);
}

TEST(ClientEdge, ReasonNamesAreDistinct)
{
    EXPECT_STREQ(callReasonName(CallReason::Ok), "ok");
    EXPECT_STREQ(callReasonName(CallReason::Timeout), "timeout");
    EXPECT_STREQ(callReasonName(CallReason::Eof), "eof");
    EXPECT_STREQ(callReasonName(CallReason::ReadError), "read_error");
    EXPECT_STREQ(callReasonName(CallReason::SendError), "send_error");
    EXPECT_STREQ(callReasonName(CallReason::Oversize), "oversize");
    EXPECT_STREQ(callReasonName(CallReason::Protocol), "protocol");
}

// ---------------------------------------------------------------- //
//            RetryState: the planner under a fake clock            //
// ---------------------------------------------------------------- //

CallResult
failureWith(CallReason reason, const std::string &code,
            uint64_t retry_after_ms = 0)
{
    CallResult r;
    r.ok = false;
    r.reason = reason;
    r.code = code;
    r.retryAfterMs = retry_after_ms;
    return r;
}

TEST(RetryPlanner, SeededBackoffSequenceIsReproducible)
{
    RetryPolicy policy;
    policy.maxAttempts = 6;
    policy.backoffBaseMs = 100;
    policy.jitterSeed = 11;
    CallResult overloaded =
        failureWith(CallReason::DaemonError, "overloaded");

    auto sequence = [&] {
        RetryState state(policy, 0);
        std::vector<uint64_t> delays;
        uint64_t now = 0;
        for (;;) {
            RetryDecision d =
                state.next(overloaded, Command::Evaluate, now);
            if (!d.retry)
                break;
            delays.push_back(d.delayMs);
            now += d.delayMs;
        }
        return delays;
    };

    std::vector<uint64_t> first = sequence();
    ASSERT_EQ(first.size(), 5u) << "maxAttempts 6 = 5 retries";
    EXPECT_EQ(first, sequence())
        << "same seed, same failures, same delays";

    // Each delay is jittered into [full/2, full] of the exponential
    // schedule 100, 200, 400, 800, 1600.
    uint64_t full = 100;
    for (uint64_t delay : first) {
        EXPECT_GE(delay, full / 2);
        EXPECT_LE(delay, full);
        full *= 2;
    }

    RetryPolicy reseeded = policy;
    reseeded.jitterSeed = 12;
    RetryState other(reseeded, 0);
    std::vector<uint64_t> different;
    uint64_t now = 0;
    for (;;) {
        RetryDecision d = other.next(overloaded, Command::Evaluate, now);
        if (!d.retry)
            break;
        different.push_back(d.delayMs);
        now += d.delayMs;
    }
    EXPECT_NE(first, different) << "distinct seeds decorrelate";
}

TEST(RetryPlanner, RetryAfterHintFloorsTheDelay)
{
    RetryPolicy policy;
    policy.backoffBaseMs = 10;  // jittered delay would be 5..10 ms
    RetryState state(policy, 0);
    RetryDecision d = state.next(
        failureWith(CallReason::DaemonError, "overloaded", 500),
        Command::Profile, 0);
    ASSERT_TRUE(d.retry);
    EXPECT_GE(d.delayMs, 500u) << "the daemon's hint is a floor";
}

TEST(RetryPlanner, DeadlineBudgetStopsRetries)
{
    RetryPolicy policy;
    policy.maxAttempts = 100;
    policy.backoffBaseMs = 100;
    policy.deadlineBudgetMs = 250;
    RetryState state(policy, 1000);  // epoch offset must not matter

    CallResult overloaded =
        failureWith(CallReason::DaemonError, "overloaded");
    RetryDecision d = state.next(overloaded, Command::Evaluate, 1000);
    ASSERT_TRUE(d.retry) << d.giveUpReason;

    // 240 ms into a 250 ms budget: every backoff delay lands past the
    // deadline, so the planner gives up rather than overshoot.
    d = state.next(overloaded, Command::Evaluate, 1240);
    EXPECT_FALSE(d.retry);
    EXPECT_NE(d.giveUpReason.find("budget"), std::string::npos);
}

TEST(RetryPlanner, TransportFailuresRetryOnlyIdempotentCommands)
{
    RetryPolicy policy;
    RetryState state(policy, 0);
    // Ambiguous transport death mid-shutdown: may have executed.
    RetryDecision d = state.next(
        failureWith(CallReason::Timeout, "timeout"), Command::Shutdown,
        0);
    EXPECT_FALSE(d.retry);
    EXPECT_NE(d.giveUpReason.find("non-idempotent"),
              std::string::npos);

    // But a daemon-level rejection was never executed: shutdown may
    // be re-sent after a draining/overloaded rejection.
    RetryState state2(policy, 0);
    d = state2.next(failureWith(CallReason::DaemonError, "overloaded"),
                    Command::Shutdown, 0);
    EXPECT_TRUE(d.retry);

    // The same timeout on an idempotent job IS retryable.
    RetryState state3(policy, 0);
    d = state3.next(failureWith(CallReason::Timeout, "timeout"),
                    Command::Evaluate, 0);
    EXPECT_TRUE(d.retry);

    // EOF / read errors behave like timeout (typed, not string-matched).
    RetryState state4(policy, 0);
    d = state4.next(failureWith(CallReason::Eof, "disconnected"),
                    Command::Profile, 0);
    EXPECT_TRUE(d.retry);
}

TEST(RetryPlanner, PermanentFailuresGiveUpImmediately)
{
    RetryPolicy policy;
    for (const char *code :
         {"bad_request", "unknown_workload", "bad_input", "internal",
          "deadline_exceeded", "cancelled"}) {
        RetryState state(policy, 0);
        RetryDecision d = state.next(
            failureWith(CallReason::DaemonError, code),
            Command::Evaluate, 0);
        EXPECT_FALSE(d.retry) << code;
        EXPECT_EQ(state.attempts(), 1u) << code;
    }
    // A protocol violation is a bug, not load: no retry.
    RetryState state(policy, 0);
    RetryDecision d =
        state.next(failureWith(CallReason::Protocol, "protocol"),
                   Command::Evaluate, 0);
    EXPECT_FALSE(d.retry);
}

TEST(RetryPlanner, AttemptsExhaustedIsReported)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseMs = 1;
    RetryState state(policy, 0);
    CallResult overloaded =
        failureWith(CallReason::DaemonError, "overloaded");
    EXPECT_TRUE(state.next(overloaded, Command::Evaluate, 0).retry);
    EXPECT_TRUE(state.next(overloaded, Command::Evaluate, 1).retry);
    RetryDecision d = state.next(overloaded, Command::Evaluate, 2);
    EXPECT_FALSE(d.retry);
    EXPECT_NE(d.giveUpReason.find("attempts"), std::string::npos);
    EXPECT_EQ(state.attempts(), 3u);
}

TEST(RetryPlanner, BackoffIsCappedAtMax)
{
    RetryPolicy policy;
    policy.maxAttempts = 20;
    policy.backoffBaseMs = 100;
    policy.backoffMaxMs = 400;
    RetryState state(policy, 0);
    CallResult overloaded =
        failureWith(CallReason::DaemonError, "overloaded");
    uint64_t last = 0;
    for (int i = 0; i < 19; ++i) {
        RetryDecision d = state.next(overloaded, Command::Evaluate, 0);
        ASSERT_TRUE(d.retry);
        EXPECT_LE(d.delayMs, 400u);
        last = d.delayMs;
    }
    EXPECT_GE(last, 200u) << "late retries sit in [max/2, max]";
}

} // namespace
} // namespace daemon
} // namespace vpprof
