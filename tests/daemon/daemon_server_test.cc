/**
 * @file
 * DaemonServer behavior over a real Unix-domain socket: protocol round
 * trips, admission control (overloaded / quota / draining rejections
 * are explicit and structured), graceful drain (run() returns 0 with
 * every admitted job answered and telemetry outputs flushed), idle
 * timeouts, and the serving-path results being bit-identical to the
 * CLI-batch pipelines over the same Session methods.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/telemetry/telemetry.hh"
#include "core/experiment.hh"
#include "core/session.hh"
#include "daemon/client.hh"
#include "daemon/dispatch.hh"
#include "daemon/server.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

namespace fs = std::filesystem;

/** Short unique socket paths (sun_path is ~108 bytes). */
std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/vpd_t" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

class DaemonServerTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        stopServer();
    }

    DaemonConfig
    baseConfig()
    {
        DaemonConfig cfg;
        cfg.socketPath = freshSocketPath();
        cfg.session.jobs = 2;
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

    /** Drain the server (idempotent) and return run()'s exit code. */
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

    std::unique_ptr<DaemonServer> server_;
    std::thread serverThread_;
    int runRc_ = -1;
};

TEST_F(DaemonServerTest, PingAndStatsRoundTrip)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult ping = client.call(1, Command::Ping, "", 0, 0, 5000);
    ASSERT_TRUE(ping.ok) << ping.error;
    EXPECT_EQ(ping.response.stringOr("cmd", ""), "ping");

    CallResult stats = client.call(2, Command::Stats, "", 0, 0, 5000);
    ASSERT_TRUE(stats.ok) << stats.error;
    const report::JsonValue *result = stats.response.get("result");
    ASSERT_TRUE(result);
    const report::JsonValue *daemon_block = result->get("daemon");
    ASSERT_TRUE(daemon_block);
    // This connection is live and both requests were inline commands.
    EXPECT_GE(daemon_block->numberOr("connections", -1), 1.0);
    EXPECT_GE(daemon_block->numberOr("immediate", -1), 2.0);
    EXPECT_DOUBLE_EQ(daemon_block->numberOr("clients", -1), 1.0);
    // The trace block is the shared TraceRepoStats serializer.
    const report::JsonValue *trace_block = result->get("trace");
    ASSERT_TRUE(trace_block);
    EXPECT_DOUBLE_EQ(trace_block->numberOr("vm_runs", -1), 0.0);
}

/**
 * The member names of a JSON object's top level, in wire order
 * (report::JsonValue keeps objects in a std::map, so order is read
 * off the raw text). `text` starts at the object's opening brace.
 */
std::vector<std::string>
topLevelKeys(const std::string &text)
{
    std::vector<std::string> keys;
    int depth = 0;
    bool expect_key = false;
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '"') {
            size_t end = i + 1;
            while (end < text.size() && text[end] != '"')
                end += text[end] == '\\' ? 2 : 1;
            if (depth == 1 && expect_key)
                keys.push_back(text.substr(i + 1, end - i - 1));
            expect_key = false;
            i = end;
        } else if (c == '{' || c == '[') {
            ++depth;
            expect_key = c == '{' && depth == 1;
        } else if (c == '}' || c == ']') {
            if (--depth == 0)
                break;
        } else if (c == ',' && depth == 1) {
            expect_key = true;
        }
    }
    return keys;
}

TEST_F(DaemonServerTest, StatsResponseKeepsItsKeyOrder)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();
    CallResult stats = client.call(1, Command::Stats, "", 0, 0, 5000);
    ASSERT_TRUE(stats.ok) << stats.error;

    size_t result = stats.raw.find("\"result\": ");
    ASSERT_NE(result, std::string::npos) << stats.raw;
    std::string result_text = stats.raw.substr(result + 10);
    EXPECT_EQ(topLevelKeys(result_text),
              (std::vector<std::string>{"daemon", "slo", "log", "trace"}));

    size_t daemon = result_text.find("\"daemon\": ");
    ASSERT_NE(daemon, std::string::npos);
    const std::vector<std::string> daemon_keys = {
        "connections",        "disconnects",
        "idle_closes",        "accept_failures",
        "requests",           "bad_requests",
        "immediate",          "jobs_admitted",
        "jobs_completed",     "jobs_failed",
        "rejected_overloaded", "rejected_quota",
        "rejected_draining",  "write_errors",
        "deadline_exceeded",  "cancelled",
        "slow_reader_closes", "watchdog_flags",
        "subscribes",         "events_emitted",
        "events_dropped",     "queued",
        "running",            "clients"};
    ASSERT_EQ(daemon_keys.size(), 24u);
    EXPECT_EQ(topLevelKeys(result_text.substr(daemon + 10)), daemon_keys)
        << stats.raw;
}

TEST_F(DaemonServerTest, BadRequestsAreStructuredRejections)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    ASSERT_TRUE(client.sendLine("this is not json"));
    auto line = client.readLine(5000);
    ASSERT_TRUE(line) << client.lastError();
    auto doc = report::parseJson(*line);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->stringOr("code", ""), "bad_request");

    // A malformed command with a recoverable id echoes that id.
    ASSERT_TRUE(client.sendLine(R"({"id": 55, "cmd": "launch"})"));
    line = client.readLine(5000);
    ASSERT_TRUE(line) << client.lastError();
    doc = report::parseJson(*line);
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->numberOr("id", -1), 55.0);
    EXPECT_EQ(doc->stringOr("code", ""), "bad_request");

    // Unknown workload and out-of-range input are job-level failures.
    CallResult unknown = client.call(3, Command::Profile, "nope", 0, 0, 5000);
    EXPECT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.code, "unknown_workload");
    CallResult bad_input = client.call(4, Command::Profile, "compress",
                                       99, 0, 5000);
    EXPECT_FALSE(bad_input.ok);
    EXPECT_EQ(bad_input.code, "bad_input");

    // The connection survived all four rejections.
    CallResult ping = client.call(5, Command::Ping, "", 0, 0, 5000);
    EXPECT_TRUE(ping.ok) << ping.error;
}

TEST_F(DaemonServerTest, EvaluateMatchesDirectSessionBitForBit)
{
    DaemonConfig cfg = baseConfig();
    startServer(cfg);
    DaemonClient client = connectedClient();

    CallResult r = client.call(1, Command::Evaluate, "compress", 0,
                               70.0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);

    // The CLI-batch reference: the same pipeline cmdClassify runs, on
    // a fresh Session (fresh caches, no shared state with the daemon).
    WorkloadSuite suite;
    const Workload *w = suite.find("compress");
    ASSERT_TRUE(w);
    Session session;
    InserterConfig icfg;
    icfg.accuracyThresholdPercent = 70.0;
    Program annotated =
        session.annotatedProgram(*w, trainingInputsFor(*w, 0), icfg);
    SaturatingClassifier fsm;
    ClassificationAccuracy fsm_acc =
        session.evaluateClassification(*w, 0, w->program(), fsm);
    ProfileClassifier prof;
    ClassificationAccuracy prof_acc =
        session.evaluateClassification(*w, 0, annotated, prof);

    // formatJsonNumber round-trips doubles exactly, so the parsed
    // response must equal the in-process doubles BIT for bit.
    EXPECT_EQ(result->numberOr("fsm_misp_pct", -1),
              fsm_acc.mispredictionAccuracy());
    EXPECT_EQ(result->numberOr("fsm_corr_pct", -1),
              fsm_acc.correctAccuracy());
    EXPECT_EQ(result->numberOr("prof_misp_pct", -1),
              prof_acc.mispredictionAccuracy());
    EXPECT_EQ(result->numberOr("prof_corr_pct", -1),
              prof_acc.correctAccuracy());
}

TEST_F(DaemonServerTest, ProfileDigestMatchesDirectSession)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult r = client.call(1, Command::Profile, "compress", 1, 0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);

    Session session;
    WorkloadSuite suite;
    const ProfileImage &image =
        session.collectProfile(*suite.find("compress"), 1);
    EXPECT_EQ(result->numberOr("digest", -1),
              static_cast<double>(profileDigest(image) >> 11));
    EXPECT_EQ(result->numberOr("profiled_pcs", -1),
              static_cast<double>(image.size()));
}

TEST_F(DaemonServerTest, VerifyRunsTheWorkload)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();
    CallResult r = client.call(1, Command::Verify, "compress", 0, 0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);
    ASSERT_TRUE(result->get("matches"));
    EXPECT_TRUE(result->get("matches")->asBool());
    EXPECT_GT(result->numberOr("instructions", 0), 0.0);
}

/**
 * Read response lines until every id in `want` has its final answer
 * (ok or error; events don't count). Returns them by id.
 */
std::map<uint64_t, report::JsonValue>
collectResponses(DaemonClient &client, const std::set<uint64_t> &want,
                 int timeout_ms)
{
    std::map<uint64_t, report::JsonValue> responses;
    while (responses.size() < want.size()) {
        auto line = client.readLine(timeout_ms);
        if (!line)
            break;  // timeout/EOF: return what we have
        auto doc = report::parseJson(*line);
        if (!doc || doc->get("event"))
            continue;
        uint64_t id = static_cast<uint64_t>(doc->numberOr("id", 0));
        if (want.count(id))
            responses.emplace(id, std::move(*doc));
    }
    return responses;
}

TEST_F(DaemonServerTest, OverloadRejectionIsExplicit)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxQueue = 1;  // one admitted job total
    startServer(cfg);
    DaemonClient client = connectedClient();

    // Both requests arrive in ONE write: the event loop admits the
    // first (a cold profile job: the executor holds it for far longer
    // than the loop needs to parse the second line) and must reject
    // the second explicitly as `overloaded` — never silence.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2}, 120'000);
    ASSERT_EQ(responses.size(), 2u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_EQ(responses.at(2).stringOr("code", ""), "overloaded");

    const DaemonServer::Counters &st = server_->counters();
    EXPECT_EQ(st.rejectedOverloaded.value(), 1u);
    EXPECT_EQ(st.jobsAdmitted.value(), 1u);
    EXPECT_EQ(st.jobsCompleted.value(), 1u);
}

TEST_F(DaemonServerTest, PerClientQuotaIsEnforced)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxQueue = 64;
    cfg.maxInflightPerClient = 1;
    startServer(cfg);
    DaemonClient client = connectedClient();

    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2}, 120'000);
    ASSERT_EQ(responses.size(), 2u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_EQ(responses.at(2).stringOr("code", ""), "quota");
    EXPECT_EQ(server_->counters().rejectedQuota.value(), 1u);

    // The quota freed up once job 1 answered: job 3 is admitted.
    CallResult r3 = client.call(3, Command::Profile, "compress", 0, 0,
                                120'000);
    EXPECT_TRUE(r3.ok) << r3.error;
}

TEST_F(DaemonServerTest, DrainingRejectsNewJobsButAnswersAdmitted)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    // One write: admit a job, begin the drain, then try another job.
    // The admitted job must complete; the post-shutdown job must be
    // rejected `draining`; the shutdown command itself is acked.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "shutdown"})"
        "\n"
        R"({"id": 3, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2, 3}, 120'000);
    ASSERT_EQ(responses.size(), 3u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_TRUE(responses.at(2).get("ok")->asBool());
    EXPECT_EQ(responses.at(3).stringOr("code", ""), "draining");

    // The daemon drains and run() returns 0 (the only clean exit).
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonServerTest, ShutdownRefusesNewConnections)
{
    DaemonConfig cfg = baseConfig();
    startServer(cfg);
    DaemonClient client = connectedClient();
    CallResult r = client.call(1, Command::Shutdown, "", 0, 0, 5000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(stopServer(), 0);

    // The socket file is unlinked: connecting again must fail fast.
    DaemonClient late;
    std::string error;
    EXPECT_FALSE(late.connect(cfg.socketPath, &error));
}

TEST_F(DaemonServerTest, SigtermStyleShutdownFlushesTelemetry)
{
    // requestShutdown() is exactly what the vpprofd SIGTERM handler
    // calls; after run() returns, the configured --metrics-out file
    // must exist and contain the daemon.* counters (satellite: flush
    // on signal-initiated drain, not only at exit()).
    std::string metrics_path =
        ::testing::TempDir() + "/vpd_metrics_flush.json";
    fs::remove(metrics_path);
    telemetry::configureOutputs("", metrics_path);

    startServer(baseConfig());
    DaemonClient client = connectedClient();
    CallResult ping = client.call(1, Command::Ping, "", 0, 0, 5000);
    ASSERT_TRUE(ping.ok) << ping.error;

    server_->requestShutdown();  // the signal handler's exact call
    EXPECT_EQ(stopServer(), 0);

    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.good()) << "metrics file not written on drain";
    std::stringstream content;
    content << in.rdbuf();
    auto doc = report::parseJson(content.str());
    ASSERT_TRUE(doc) << "metrics file is not valid JSON";
    EXPECT_NE(content.str().find("daemon.connections"),
              std::string::npos);
    fs::remove(metrics_path);
}

TEST_F(DaemonServerTest, IdleConnectionsAreClosed)
{
    DaemonConfig cfg = baseConfig();
    cfg.idleTimeoutMs = 50;
    startServer(cfg);
    DaemonClient client = connectedClient();

    // No request, no job in flight: the daemon must close us. EOF
    // arrives as a failed read with "disconnected".
    auto line = client.readLine(5000);
    EXPECT_FALSE(line);
    EXPECT_EQ(client.lastError(), "disconnected");
    EXPECT_GE(server_->counters().idleCloses.value(), 1u);
}

TEST_F(DaemonServerTest, ProgressEventsStreamForSubscribedJobs)
{
    // A job's lifecycle is told once, to lifecycle subscribers; the
    // requesting connection gets its one answer line. An old client
    // that still sends "progress": true is answered the same way.
    startServer(baseConfig());
    DaemonClient subscriber = connectedClient();
    CallResult ack = subscriber.call(
        R"({"id": 1, "cmd": "subscribe", "events": "lifecycle"})", 1,
        5000);
    ASSERT_TRUE(ack.ok) << ack.error;

    DaemonClient client = connectedClient();
    ASSERT_TRUE(client.sendLine(
        R"({"id": 2, "cmd": "profile", "workload": "compress",)"
        R"( "input": 0, "progress": true, "trace_id": 57})"));
    std::optional<std::string> answer = client.readLine(120'000);
    ASSERT_TRUE(answer) << client.lastError();
    auto doc = report::parseJson(*answer);
    ASSERT_TRUE(doc) << *answer;
    EXPECT_FALSE(doc->get("event")) << *answer;
    EXPECT_DOUBLE_EQ(doc->numberOr("id", 0), 2.0);
    EXPECT_NE(answer->find("\"ok\": true"), std::string::npos) << *answer;
    // Nothing else was queued for this connection: the next line is
    // the answer to the next request.
    CallResult ping = client.call(3, Command::Ping, "", 0, 0, 5000);
    ASSERT_TRUE(ping.ok) << ping.error;

    std::vector<std::string> kinds;
    while (kinds.empty() || kinds.back() != "completed") {
        std::optional<std::string> line = subscriber.readLine(10'000);
        ASSERT_TRUE(line) << "stream went quiet after " << kinds.size()
                          << " events";
        auto event = report::parseJson(*line);
        ASSERT_TRUE(event) << *line;
        if (event->numberOr("trace_id", 0) != 57.0)
            continue;
        kinds.push_back(event->stringOr("kind", ""));
        if (kinds.back() == "admitted") {
            EXPECT_TRUE(event->get("queued")) << *line;
        }
    }
    EXPECT_EQ(kinds, (std::vector<std::string>{"received", "admitted",
                                               "started", "completed"}));
}

TEST_F(DaemonServerTest, OversizedRequestLineIsRejected)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxLineBytes = 128;
    startServer(cfg);
    DaemonClient client = connectedClient();

    std::string huge(4096, 'x');  // no newline: pure buffer pressure
    ASSERT_TRUE(client.sendLine(huge));
    auto line = client.readLine(5000);
    // The daemon answers bad_request (readable before the close) and
    // then drops the connection.
    ASSERT_TRUE(line) << client.lastError();
    auto doc = report::parseJson(*line);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->stringOr("code", ""), "bad_request");
    EXPECT_FALSE(client.readLine(5000));
}

TEST_F(DaemonServerTest, ManyClientsShareOneSession)
{
    startServer(baseConfig());

    // Four clients ask for the same (workload, input) profile, then
    // for the same evaluate of it. The profile is one VM pass behind a
    // per-key slot, so it runs once; each evaluate is its own VM pass
    // into both classifiers and captures no trace.
    constexpr int kClients = 4;
    std::string socket = server_->config().socketPath;
    auto fromEveryClient = [&](Command cmd, double threshold,
                               const char *field) {
        std::vector<double> values(kClients, -1);
        std::vector<std::thread> threads;
        for (int i = 0; i < kClients; ++i) {
            threads.emplace_back([&, i] {
                DaemonClient client;
                std::string error;
                if (!client.connect(socket, &error))
                    return;
                CallResult r = client.call(1, cmd, "compress", 0,
                                           threshold, 120'000);
                if (r.ok && r.response.get("result"))
                    values[i] =
                        r.response.get("result")->numberOr(field, -2);
            });
        }
        for (auto &t : threads)
            t.join();
        return values;
    };
    auto collects = [] {
        telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
        auto it = snap.histograms.find("profile.collect.us");
        return it == snap.histograms.end() ? uint64_t{0}
                                           : it->second.count;
    };

    const uint64_t collects_before = collects();
    std::vector<double> digests =
        fromEveryClient(Command::Profile, 0, "digest");
    for (int i = 0; i < kClients; ++i) {
        EXPECT_GE(digests[i], 0.0) << "client " << i << " failed";
        EXPECT_EQ(digests[i], digests[0]);
    }
    EXPECT_EQ(collects(), collects_before + 1)
        << "a cold key's profile runs the VM once";

    std::vector<double> accuracies =
        fromEveryClient(Command::Evaluate, 70.0, "prof_misp_pct");
    for (int i = 0; i < kClients; ++i) {
        EXPECT_GE(accuracies[i], 0.0) << "client " << i << " failed";
        EXPECT_EQ(accuracies[i], accuracies[0]);
    }
    // No evaluate went through the trace repository.
    EXPECT_EQ(server_->session().traces().vmRuns(), 0u);
}

TEST_F(DaemonServerTest, StartRejectsMoreThanOneEventLoop)
{
    // DaemonConfig::shards survives only for callers that assign 1;
    // any other value is a configuration error, not a silent fallback.
    for (size_t shards : {size_t{0}, size_t{2}}) {
        DaemonConfig cfg = baseConfig();
        cfg.shards = shards;
        DaemonServer server(cfg);
        std::string error;
        EXPECT_FALSE(server.start(&error)) << "shards=" << shards;
        EXPECT_NE(error.find("shards must be 1"), std::string::npos)
            << error;
        EXPECT_FALSE(fs::exists(cfg.socketPath));
    }
}

TEST_F(DaemonServerTest, TcpFrontEndAnswersByteIdenticalToUnixSocket)
{
    DaemonConfig cfg = baseConfig();
    cfg.listenAddress = "127.0.0.1:0";
    startServer(cfg);
    ASSERT_NE(server_->tcpPort(), 0);

    DaemonClient unix_client = connectedClient();
    DaemonClient tcp_client;
    std::string error;
    ASSERT_TRUE(tcp_client.connect(
        "127.0.0.1:" + std::to_string(server_->tcpPort()), &error))
        << error;

    // A fixed trace_id pins every daemon-chosen field, so the full
    // response LINES must match byte for byte across transports.
    const std::string req =
        R"({"id": 7, "cmd": "verify", "workload": "li", "input": 0,)"
        R"( "trace_id": 42})";
    CallResult via_unix = unix_client.call(req, 7, 120'000);
    CallResult via_tcp = tcp_client.call(req, 7, 120'000);
    ASSERT_TRUE(via_unix.ok) << via_unix.error;
    ASSERT_TRUE(via_tcp.ok) << via_tcp.error;
    EXPECT_EQ(via_unix.raw, via_tcp.raw);
}

TEST_F(DaemonServerTest, TwoDaemonsAnswerAlikeAndWriteNoTrace)
{
    std::string cache = "/tmp/vpd_cache_" + std::to_string(::getpid());
    fs::remove_all(cache);
    fs::create_directories(cache);

    DaemonConfig cfg_a = baseConfig();
    cfg_a.session.traceCacheDir = cache;
    DaemonConfig cfg_b = baseConfig();
    cfg_b.session.traceCacheDir = cache;
    startServer(cfg_a);
    DaemonServer server_b(cfg_b);
    std::string error;
    ASSERT_TRUE(server_b.start(&error)) << error;
    std::thread thread_b([&server_b] { server_b.run(); });

    // One (workload, input) evaluated from BOTH daemons, each
    // configured with the same cache directory: each runs its own VM
    // pass, shares nothing with the other, and answers alike.
    DaemonClient client_a = connectedClient();
    DaemonClient client_b;
    ASSERT_TRUE(client_b.connect(cfg_b.socketPath, &error)) << error;
    // A pinned trace id fixes every daemon-chosen field, so the
    // response lines must match byte for byte.
    const std::string req =
        R"({"id": 1, "cmd": "evaluate", "workload": "li", "input": 0,)"
        R"( "threshold": 70, "trace_id": 7})";
    CallResult job_a = client_a.call(req, 1, 120'000);
    ASSERT_TRUE(job_a.ok) << job_a.error;
    CallResult job_b = client_b.call(req, 1, 120'000);
    ASSERT_TRUE(job_b.ok) << job_b.error;
    EXPECT_EQ(job_a.raw, job_b.raw);

    // Each daemon's own `stats`: neither ran a trace-producing VM run.
    double vm_runs = 0;
    for (DaemonClient *client : {&client_a, &client_b}) {
        CallResult stats = client->call(3, Command::Stats, "", 0, 0, 5000);
        ASSERT_TRUE(stats.ok) << stats.error;
        vm_runs += stats.response.get("result")
                       ->get("trace")
                       ->numberOr("vm_runs", -1);
    }
    EXPECT_EQ(vm_runs, 0.0);

    server_b.requestShutdown();
    thread_b.join();
    stopServer();
    for (const auto &entry : fs::directory_iterator(cache))
        EXPECT_NE(entry.path().extension(), ".trace") << entry.path();
    fs::remove_all(cache);
}

} // namespace
} // namespace daemon
} // namespace vpprof
