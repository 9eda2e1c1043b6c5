/**
 * @file
 * The resilience layer end to end over a real socket: request
 * deadlines (expired while queued and expired while executing),
 * cancellation of queued jobs (explicit `cancel` and implicit
 * disconnect purge), the slow-reader output-buffer bound, the
 * per-job watchdog, answers in completion order, and a retrying
 * client completing against a shedding daemon that rejects a fixed,
 * no-retry client. Execution is slowed deterministically through the
 * `daemon.dispatch` delay failpoint, so every "still running" window
 * in these tests is a scripted fact rather than a timing guess.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/failpoint.hh"
#include "common/telemetry/telemetry.hh"
#include "daemon/client.hh"
#include "daemon/retry.hh"
#include "daemon/server.hh"

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
    os << "/tmp/vpd_r" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

class DaemonResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
    }

    void
    TearDown() override
    {
        stopServer();
        FailpointRegistry::instance().reset();
    }

    DaemonConfig
    baseConfig()
    {
        DaemonConfig cfg;
        cfg.socketPath = freshSocketPath();
        cfg.session.jobs = 1;  // one executor lane: queue order is fate
        return cfg;
    }

    void
    startServer(const DaemonConfig &cfg)
    {
        server_ = std::make_unique<DaemonServer>(cfg);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
        serverThread_ = std::thread([this] { runRc_ = server_->run(); });
    }

    int
    stopServer()
    {
        if (!server_)
            return runRc_;
        server_->requestShutdown();
        if (serverThread_.joinable())
            serverThread_.join();
        server_.reset();
        return runRc_;
    }

    DaemonClient
    connectedClient()
    {
        DaemonClient client;
        std::string error;
        EXPECT_TRUE(client.connect(server_->config().socketPath, &error))
            << error;
        return client;
    }

    /** Slow every dispatched job by `ms` (deterministic busy window). */
    void
    slowDispatch(uint64_t ms)
    {
        std::string error;
        ASSERT_TRUE(FailpointRegistry::instance().armList(
            "daemon.dispatch:delay=" + std::to_string(ms), &error))
            << error;
    }

    /** Poll the live counters until `pred` holds or `timeout_ms` passes. */
    bool
    waitForStats(int timeout_ms,
                 bool (*pred)(const DaemonServer::Counters &))
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
        while (std::chrono::steady_clock::now() < deadline) {
            if (pred(server_->counters()))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return pred(server_->counters());
    }

    std::unique_ptr<DaemonServer> server_;
    std::thread serverThread_;
    int runRc_ = -1;
};

/** Read lines until every id in `want` has its final answer. */
std::map<uint64_t, report::JsonValue>
collectResponses(DaemonClient &client, const std::set<uint64_t> &want,
                 int timeout_ms)
{
    std::map<uint64_t, report::JsonValue> responses;
    while (responses.size() < want.size()) {
        auto line = client.readLine(timeout_ms);
        if (!line)
            break;
        auto doc = report::parseJson(*line);
        if (!doc || doc->get("event"))
            continue;
        uint64_t id = static_cast<uint64_t>(doc->numberOr("id", 0));
        if (want.count(id))
            responses.emplace(id, std::move(*doc));
    }
    return responses;
}

TEST_F(DaemonResilienceTest, QueuedJobPastDeadlineIsRejectedUnserved)
{
    startServer(baseConfig());
    slowDispatch(600);  // job 1 owns the lone lane for >= 600 ms
    DaemonClient client = connectedClient();

    // One write: job 1 is admitted and dispatched; job 2 queues behind
    // it with a 100 ms deadline it cannot make. The timer sweep (or
    // the executor's pull-time double check) must answer it
    // deadline_exceeded without ever running it.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress",)"
        R"( "deadline_ms": 100})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2}, 120'000);
    ASSERT_EQ(responses.size(), 2u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_EQ(responses.at(2).stringOr("code", ""), "deadline_exceeded");
    EXPECT_NE(responses.at(2).stringOr("error", "").find("queued"),
              std::string::npos)
        << "the rejection names the queued phase";

    const DaemonServer::Counters &st = server_->counters();
    EXPECT_EQ(st.jobsAdmitted.value(), 2u);
    EXPECT_EQ(st.deadlineExceeded.value(), 1u);
    EXPECT_EQ(st.jobsCompleted.value(), 1u)
        << "the expired job never consumed the executor";
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, JobFinishingPastDeadlineIsNotServedLate)
{
    startServer(baseConfig());
    slowDispatch(500);
    DaemonClient client = connectedClient();

    // The job is dispatched immediately (empty queue) but the injected
    // 500 ms dispatch latency pushes completion past the 100 ms
    // deadline: the late result must be converted, not delivered.
    ASSERT_TRUE(client.sendLine(
        R"({"id": 1, "cmd": "profile", "workload": "compress",)"
        R"( "deadline_ms": 100})"));
    auto responses = collectResponses(client, {1}, 120'000);
    ASSERT_EQ(responses.size(), 1u) << client.lastError();
    EXPECT_EQ(responses.at(1).stringOr("code", ""), "deadline_exceeded");
    EXPECT_NE(responses.at(1).stringOr("error", "").find("completed"),
              std::string::npos)
        << "the rejection says the work finished late";
    EXPECT_EQ(server_->counters().deadlineExceeded.value(), 1u);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, HugeDeadlineSaturatesInsteadOfExpiring)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    // deadline_ms * 1e6 ns overflows 64 bits: the absolute deadline
    // saturates to "never" rather than wrapping below the clock and
    // answering the job deadline_exceeded on arrival.
    ASSERT_TRUE(client.sendLine(
        R"({"id": 1, "cmd": "profile", "workload": "compress",)"
        R"( "deadline_ms": 18446744073709})"));
    auto responses = collectResponses(client, {1}, 120'000);
    ASSERT_EQ(responses.size(), 1u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool())
        << responses.at(1).stringOr("error", "");
    EXPECT_EQ(server_->counters().deadlineExceeded.value(), 0u);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, CancelRemovesAQueuedJob)
{
    startServer(baseConfig());
    slowDispatch(500);
    DaemonClient client = connectedClient();

    // job 1 occupies the lane; job 2 queues; the pipelined cancel
    // removes job 2 before the executor ever sees it.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 3, "cmd": "cancel", "target": 2})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2, 3}, 120'000);
    ASSERT_EQ(responses.size(), 3u) << client.lastError();
    ASSERT_TRUE(responses.at(3).get("ok"));
    EXPECT_TRUE(responses.at(3).get("ok")->asBool());
    const report::JsonValue *cancel_result = responses.at(3).get("result");
    ASSERT_TRUE(cancel_result);
    ASSERT_TRUE(cancel_result->get("cancelled"));
    EXPECT_TRUE(cancel_result->get("cancelled")->asBool());
    EXPECT_EQ(responses.at(2).stringOr("code", ""), "cancelled");
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool())
        << "the running job is untouched by the cancel";

    const DaemonServer::Counters &st = server_->counters();
    EXPECT_EQ(st.cancelled.value(), 1u);
    EXPECT_EQ(st.jobsCompleted.value(), 1u);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, CancelMissesRunningOrUnknownTargets)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    // Nothing queued under id 99: cancel succeeds as a command but
    // reports cancelled: false (nothing was removed).
    ASSERT_TRUE(
        client.sendLine(R"({"id": 5, "cmd": "cancel", "target": 99})"));
    auto responses = collectResponses(client, {5}, 5000);
    ASSERT_EQ(responses.size(), 1u) << client.lastError();
    ASSERT_TRUE(responses.at(5).get("ok"));
    EXPECT_TRUE(responses.at(5).get("ok")->asBool());
    const report::JsonValue *result = responses.at(5).get("result");
    ASSERT_TRUE(result);
    ASSERT_TRUE(result->get("cancelled"));
    EXPECT_FALSE(result->get("cancelled")->asBool());

    // A cancel without a target is malformed.
    ASSERT_TRUE(client.sendLine(R"({"id": 6, "cmd": "cancel"})"));
    responses = collectResponses(client, {6}, 5000);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.at(6).stringOr("code", ""), "bad_request");
    EXPECT_EQ(server_->counters().cancelled.value(), 0u);
}

TEST_F(DaemonResilienceTest, DisconnectPurgesTheClientsQueuedJobs)
{
    startServer(baseConfig());
    slowDispatch(500);

    {
        DaemonClient doomed = connectedClient();
        // job 1 dispatches; job 2 queues; then the client walks away.
        std::string burst =
            R"({"id": 1, "cmd": "profile", "workload": "compress"})"
            "\n"
            R"({"id": 2, "cmd": "profile", "workload": "compress"})";
        ASSERT_TRUE(doomed.sendLine(burst));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }  // close: the daemon must drop job 2 from the queue

    EXPECT_TRUE(waitForStats(10'000,
                             [](const DaemonServer::Counters &st) {
                                 return st.cancelled.value() >= 1;
                             }))
        << "queued job of a departed client was not purged";
    // The running job still completes (its result is simply dropped).
    EXPECT_TRUE(waitForStats(120'000,
                             [](const DaemonServer::Counters &st) {
                                 return st.jobsCompleted.value() >= 1;
                             }));
    EXPECT_EQ(server_->counters().cancelled.value(), 1u);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, SlowReaderIsDisconnectedAtTheBufferBound)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxClientOutBufBytes = 1024;
    startServer(cfg);
    DaemonClient client = connectedClient();

    // Pipeline thousands of inline stats requests and read nothing:
    // the kernel socket buffer fills, the daemon's userspace outBuf
    // crosses the 1 KiB bound, and the daemon must cut us loose
    // instead of buffering without limit.
    std::ostringstream burst;
    for (int i = 1; i <= 4000; ++i)
        burst << R"({"id": )" << i << R"(, "cmd": "stats"})" << "\n";
    std::string all = burst.str();
    all.pop_back();  // sendLine appends the final newline
    if (!client.sendLine(all)) {
        // The daemon may already have dropped us mid-send: also fine.
    }

    EXPECT_TRUE(waitForStats(30'000,
                             [](const DaemonServer::Counters &st) {
                                 return st.slowReaderCloses.value() >= 1;
                             }))
        << "slow reader was never disconnected";

    // Once we finally read, the stream ends in EOF well before all
    // 4000 responses (the daemon stopped serving us at the bound).
    int lines = 0;
    while (client.readLine(5000))
        ++lines;
    EXPECT_LT(lines, 4000);
    EXPECT_FALSE(client.connected());

    // The daemon itself is healthy: a fresh, well-behaved client is
    // served normally.
    DaemonClient healthy = connectedClient();
    CallResult ping = healthy.call(1, Command::Ping, "", 0, 0, 5000);
    EXPECT_TRUE(ping.ok) << ping.error;
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, WatchdogFlagsEachStuckJob)
{
    DaemonConfig cfg = baseConfig();
    cfg.session.jobs = 2;
    cfg.watchdogMs = 50;
    startServer(cfg);
    slowDispatch(600);  // 12x the watchdog threshold, on every job
    DaemonClient client = connectedClient();

    // Two pipelined slow jobs on two lanes run side by side, and the
    // watchdog flags each of them once.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));
    auto responses = collectResponses(client, {1, 2}, 120'000);
    ASSERT_EQ(responses.size(), 2u) << client.lastError();
    for (auto &[id, response] : responses) {
        ASSERT_TRUE(response.get("ok"));
        EXPECT_TRUE(response.get("ok")->asBool())
            << "job " << id << ": the watchdog observes, never kills";
    }
    const DaemonServer::Counters &st = server_->counters();
    EXPECT_EQ(st.watchdogFlags.value(), 2u);
    EXPECT_EQ(st.jobsCompleted.value(), 2u);

    // Job 2 started while job 1 was still running.
    CallResult journal = client.call(
        R"({"id": 3, "cmd": "journal"})", 3, 5000);
    ASSERT_TRUE(journal.ok) << journal.error;
    const report::JsonValue *events =
        journal.response.get("result")->get("events");
    ASSERT_TRUE(events && events->isArray());
    double started2 = 0, completed1 = 0;
    for (const report::JsonValue &event : events->asArray()) {
        std::string kind = event.stringOr("kind", "");
        double id = event.numberOr("id", 0);
        if (kind == "started" && id == 2)
            started2 = event.numberOr("seq", 0);
        if (kind == "completed" && id == 1)
            completed1 = event.numberOr("seq", 0);
    }
    ASSERT_GT(started2, 0.0);
    ASSERT_GT(completed1, 0.0);
    EXPECT_LT(started2, completed1);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, QuickJobIsAnsweredBeforeASlowerEarlierOne)
{
    DaemonConfig cfg = baseConfig();
    cfg.session.jobs = 2;
    startServer(cfg);
    DaemonClient client = connectedClient();
    CallResult warm = client.call(1, Command::Profile, "compress", 0, 0,
                                  120'000);
    ASSERT_TRUE(warm.ok) << warm.error;

    // Job 2 sleeps 600 ms in dispatch. Job 3, a memoized profile, is
    // pipelined once job 2 holds its lane (its failpoint hit), so it
    // runs on the other lane and its answer is the first line back.
    std::string error;
    ASSERT_TRUE(FailpointRegistry::instance().armList(
        "daemon.dispatch:delay=600@1", &error))
        << error;
    ASSERT_TRUE(client.sendLine(
        R"({"id": 2, "cmd": "profile", "workload": "compress"})"));
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (FailpointRegistry::instance().hits("daemon.dispatch") == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(FailpointRegistry::instance().hits("daemon.dispatch"), 1u);
    ASSERT_TRUE(client.sendLine(
        R"({"id": 3, "cmd": "profile", "workload": "compress"})"));

    std::vector<double> answered;
    while (answered.size() < 2) {
        auto line = client.readLine(120'000);
        ASSERT_TRUE(line) << client.lastError();
        auto doc = report::parseJson(*line);
        ASSERT_TRUE(doc && doc->get("ok")) << *line;
        EXPECT_TRUE(doc->get("ok")->asBool()) << *line;
        answered.push_back(doc->numberOr("id", 0));
    }
    EXPECT_EQ(answered, (std::vector<double>{3, 2}));
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, RetryingClientCompletesWhereFixedClientIsShed)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxQueue = 1;
    startServer(cfg);
    slowDispatch(700);
    DaemonClient fixed = connectedClient();

    // The fixed client pipelines two jobs into a 1-deep daemon: job 1
    // is admitted and holds the queue for >= 700 ms; job 2 is shed
    // with the structured backoff hint.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(fixed.sendLine(burst));
    auto shed = collectResponses(fixed, {2}, 5000);
    ASSERT_EQ(shed.size(), 1u) << fixed.lastError();
    EXPECT_EQ(shed.at(2).stringOr("code", ""), "overloaded");
    EXPECT_GT(shed.at(2).numberOr("retry_after_ms", -1), 0.0)
        << "shed rejections must carry the backoff hint";
    EXPECT_GE(shed.at(2).numberOr("queued", -1), 0.0);
    EXPECT_NE(shed.at(2).stringOr("error", "").find("retry with backoff"),
              std::string::npos);

    // A retrying client arriving in the same busy window completes:
    // backoff + the daemon's retry_after_ms pacing outlast the load.
    DaemonClient patient = connectedClient();
    Request req;
    req.id = 7;
    req.cmd = Command::Profile;
    req.workload = "compress";
    RetryPolicy policy;
    policy.maxAttempts = 30;
    policy.backoffBaseMs = 25;
    policy.jitterSeed = 5;
    CallResult r = patient.callWithRetry(req, policy, 120'000);
    ASSERT_TRUE(r.ok) << r.code << ": " << r.error << " after "
                      << r.attempts << " attempts";
    EXPECT_GE(r.attempts, 2u)
        << "the busy window must have shed the first attempt";

    // The fixed client's admitted job still completes.
    auto first = collectResponses(fixed, {1}, 120'000);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(first.at(1).get("ok")->asBool());
    EXPECT_GE(server_->counters().rejectedOverloaded.value(), 1u);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonResilienceTest, CallWithRetryReconnectsAcrossAWriteFault)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();
    CallResult warm = client.call(1, Command::Ping, "", 0, 0, 5000);
    ASSERT_TRUE(warm.ok) << warm.error;

    // The daemon's next write fails and the connection is dropped
    // server-side. An idempotent retry must reconnect and succeed.
    FailpointRegistry::instance().arm("daemon.write",
                                      {FailpointAction::Fail, 1});
    Request req;
    req.id = 2;
    req.cmd = Command::Ping;
    RetryPolicy policy;
    policy.backoffBaseMs = 10;
    CallResult r = client.callWithRetry(req, policy, 5000);
    EXPECT_TRUE(r.ok) << r.code << ": " << r.error;
    EXPECT_GE(r.attempts, 2u);
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(stopServer(), 0);
}

} // namespace
} // namespace daemon
} // namespace vpprof
