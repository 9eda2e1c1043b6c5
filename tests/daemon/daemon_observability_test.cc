/**
 * @file
 * The daemon's observability plane over a real socket (DESIGN.md §14):
 * trace-id echo and minting, journal ordering, the subscribe round
 * trip (ack spec, event stream, deterministic sampling), the
 * slow-subscriber shed contract, the drain delivering a pending
 * lifecycle event before EOF, SLO burn accounting, the metrics
 * command in both formats, the lint-clean Prometheus exposition
 * grammar, and the acceptance-criteria property that one request's
 * span tree is reconstructible from the Perfetto trace by trace id
 * alone.
 */

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/telemetry/telemetry.hh"
#include "daemon/client.hh"
#include "daemon/observe.hh"
#include "daemon/server.hh"
#include "report/json.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

/** Short unique socket paths (sun_path is ~108 bytes). */
std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/vpd_o" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

class DaemonObservabilityTest : public ::testing::Test
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

    static CallResult
    rawCall(DaemonClient &client, const Request &req)
    {
        return client.call(requestLine(req), req.id, 30'000);
    }

    std::unique_ptr<DaemonServer> server_;
    std::thread serverThread_;
    int runRc_ = -1;
};

TEST_F(DaemonObservabilityTest, ClientTraceIdIsEchoed)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request req;
    req.id = 1;
    req.cmd = Command::Profile;
    req.workload = "compress";
    req.traceId = 77;
    CallResult r = rawCall(client, req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(r.response.numberOr("trace_id", 0), 77.0);
}

TEST_F(DaemonObservabilityTest, MintedTraceIdsAreDistinct)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult a = client.call(1, Command::Ping, "", 0, 0, 5000);
    CallResult b = client.call(2, Command::Ping, "", 0, 0, 5000);
    ASSERT_TRUE(a.ok && b.ok);
    double ta = a.response.numberOr("trace_id", 0);
    double tb = b.response.numberOr("trace_id", 0);
    EXPECT_GT(ta, 0.0);
    EXPECT_GT(tb, 0.0);
    EXPECT_NE(ta, tb);
}

TEST_F(DaemonObservabilityTest, JournalNarratesJobLifecycleInOrder)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    // Eight pipelined jobs on two lanes: Started notices and results
    // share the executor's queue, so every job's `started` still
    // precedes its terminal event.
    constexpr uint64_t kPipelined = 8;
    for (uint64_t i = 0; i < kPipelined; ++i) {
        Request p;
        p.id = 100 + i;
        p.cmd = Command::Profile;
        p.workload = i % 2 ? "li" : "compress";
        p.traceId = 1000 + i;
        ASSERT_TRUE(client.sendLine(requestLine(p)));
    }
    for (uint64_t i = 0; i < kPipelined; ++i) {
        auto line = client.readLine(30'000);
        ASSERT_TRUE(line) << client.lastError();
        EXPECT_NE(line->find("\"ok\": true"), std::string::npos)
            << *line;
    }

    Request job;
    job.id = 5;
    job.cmd = Command::Profile;
    job.workload = "compress";
    job.traceId = 99;
    ASSERT_TRUE(rawCall(client, job).ok);

    Request jq;
    jq.id = 6;
    jq.cmd = Command::Journal;
    CallResult r = rawCall(client, jq);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);
    EXPECT_GE(result->numberOr("total", 0), 4.0);
    const report::JsonValue *events = result->get("events");
    ASSERT_TRUE(events && events->isArray());

    // Each job's narrative, in seq order, joined on trace_id.
    std::map<double, std::vector<std::string>> kinds;
    double prev_seq = 0;
    for (const report::JsonValue &event : events->asArray()) {
        double seq = event.numberOr("seq", 0);
        EXPECT_GT(seq, prev_seq) << "journal out of order";
        prev_seq = seq;
        kinds[event.numberOr("trace_id", 0)].push_back(
            event.stringOr("kind", ""));
    }
    const std::vector<std::string> narrative = {"received", "admitted",
                                                "started", "completed"};
    EXPECT_EQ(kinds[99.0], narrative);
    for (uint64_t i = 0; i < kPipelined; ++i)
        EXPECT_EQ(kinds[1000.0 + i], narrative) << "trace " << 1000 + i;

    // limit returns the NEWEST events, oldest first.
    jq.id = 7;
    jq.limit = 2;
    CallResult limited = rawCall(client, jq);
    ASSERT_TRUE(limited.ok);
    const report::JsonValue *lim_events =
        limited.response.get("result")->get("events");
    ASSERT_TRUE(lim_events && lim_events->isArray());
    ASSERT_EQ(lim_events->asArray().size(), 2u);
    EXPECT_EQ(lim_events->asArray()[0].stringOr("kind", ""), "started");
    EXPECT_EQ(lim_events->asArray()[1].stringOr("kind", ""),
              "completed");
}

TEST_F(DaemonObservabilityTest, QueueWaitIsObservedOncePerJob)
{
    auto observed = [] {
        telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
        auto it = snap.histograms.find("daemon.queue_wait.us");
        return it == snap.histograms.end() ? uint64_t{0}
                                           : it->second.count;
    };
    const uint64_t before = observed();
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    // Pipelined jobs queue behind the two lanes; inline commands
    // (ping) never enter the admission queue.
    constexpr uint64_t kJobs = 6;
    for (uint64_t i = 0; i < kJobs; ++i) {
        Request p;
        p.id = 10 + i;
        p.cmd = Command::Profile;
        p.workload = i % 2 ? "li" : "compress";
        ASSERT_TRUE(client.sendLine(requestLine(p)));
    }
    for (uint64_t i = 0; i < kJobs; ++i) {
        auto line = client.readLine(30'000);
        ASSERT_TRUE(line) << client.lastError();
        EXPECT_NE(line->find("\"ok\": true"), std::string::npos)
            << *line;
    }
    ASSERT_TRUE(client.call(1, Command::Ping, "", 0, 0, 5000).ok);
    EXPECT_EQ(server_->counters().jobsCompleted.value(), kJobs);
    EXPECT_EQ(stopServer(), 0);
    EXPECT_EQ(observed() - before, kJobs);
}

TEST_F(DaemonObservabilityTest, SubscribeStreamsLifecycleEvents)
{
    startServer(baseConfig());
    DaemonClient subscriber = connectedClient();

    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    CallResult ack = rawCall(subscriber, sub);
    ASSERT_TRUE(ack.ok) << ack.error;
    const report::JsonValue *ack_result = ack.response.get("result");
    ASSERT_TRUE(ack_result);
    ASSERT_TRUE(ack_result->get("subscribed"));
    EXPECT_TRUE(ack_result->get("subscribed")->asBool());
    EXPECT_EQ(ack_result->stringOr("events", ""), "lifecycle");

    DaemonClient driver = connectedClient();
    Request job;
    job.id = 2;
    job.cmd = Command::Profile;
    job.workload = "compress";
    job.traceId = 1234;
    ASSERT_TRUE(rawCall(driver, job).ok);

    // The full narrative arrives as id-less event lines.
    std::vector<std::string> kinds;
    while (kinds.size() < 4) {
        auto line = subscriber.readLine(10'000);
        ASSERT_TRUE(line) << "stream went quiet after "
                          << kinds.size() << " events";
        std::string error;
        auto doc = report::parseJson(*line, &error);
        ASSERT_TRUE(doc) << error << " in " << *line;
        EXPECT_EQ(doc->stringOr("event", ""), "telemetry");
        EXPECT_DOUBLE_EQ(doc->numberOr("trace_id", 0), 1234.0);
        kinds.push_back(doc->stringOr("kind", ""));
    }
    EXPECT_EQ(kinds[0], "received");
    EXPECT_EQ(kinds[1], "admitted");
    EXPECT_EQ(kinds[2], "started");
    EXPECT_EQ(kinds[3], "completed");
}

TEST_F(DaemonObservabilityTest, SampleRateDownsamplesDeterministically)
{
    startServer(baseConfig());
    DaemonClient subscriber = connectedClient();

    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    sub.sampleRate = 0.25;  // deliver exactly every 4th event
    ASSERT_TRUE(rawCall(subscriber, sub).ok);

    DaemonClient driver = connectedClient();
    for (uint64_t i = 0; i < 3; ++i) {
        Request job;
        job.id = 10 + i;
        job.cmd = Command::Profile;
        job.workload = i % 2 ? "li" : "compress";
        ASSERT_TRUE(rawCall(driver, job).ok);
    }

    // 3 jobs x 4 lifecycle events = 12 matching events -> exactly 3
    // delivered (the accumulator crosses 1 on every 4th).
    size_t received = 0;
    while (subscriber.readLine(1000))
        ++received;
    EXPECT_EQ(received, 3u);
}

TEST_F(DaemonObservabilityTest, SlowSubscriberShedsInsteadOfBlocking)
{
    DaemonConfig cfg = baseConfig();
    cfg.eventRingCap = 2;
    cfg.maxClientOutBufBytes = 512;
    cfg.idleTimeoutMs = 0;  // the stalled subscriber must survive
    startServer(cfg);

    DaemonClient stalled = connectedClient();
    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    ASSERT_TRUE(rawCall(stalled, sub).ok);
    // From here on the subscriber never reads: its tiny ring, its
    // bounded backlog and the kernel socket buffer must fill, then
    // the daemon sheds the oldest events.

    DaemonClient driver = connectedClient();
    uint64_t jobs = 0;
    while (server_->counters().eventsDropped.value() == 0 && jobs < 2048) {
        Request job;
        job.id = 100 + jobs;
        job.cmd = Command::Profile;
        job.workload = jobs % 2 ? "li" : "compress";
        CallResult r = rawCall(driver, job);
        ASSERT_TRUE(r.ok) << "job " << jobs
                          << " unanswered while shedding: " << r.error;
        ++jobs;
    }
    EXPECT_GT(server_->counters().eventsDropped.value(), 0u)
        << "never shed after " << jobs << " jobs";
}

TEST_F(DaemonObservabilityTest, SampledStalledSubscriberAccountsEveryPick)
{
    DaemonConfig cfg = baseConfig();
    cfg.eventRingCap = 2;
    cfg.maxClientOutBufBytes = 512;
    cfg.idleTimeoutMs = 0;  // the stalled subscriber must survive
    startServer(cfg);

    DaemonClient stalled = connectedClient();
    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    sub.sampleRate = 0.5;
    ASSERT_TRUE(rawCall(stalled, sub).ok);
    uint64_t emitted_before = server_->counters().eventsEmitted.value();

    // Stall until the ring overtakes the subscriber's cursor.
    DaemonClient driver = connectedClient();
    uint64_t jobs = 0;
    while (server_->counters().eventsDropped.value() == 0 && jobs < 2048) {
        Request job;
        job.id = 100 + jobs;
        job.cmd = Command::Profile;
        job.workload = jobs % 2 ? "li" : "compress";
        ASSERT_TRUE(rawCall(driver, job).ok);
        ++jobs;
    }
    ASSERT_GT(server_->counters().eventsDropped.value(), 0u)
        << "never shed after " << jobs << " jobs";

    // Catch up: every event the sampler passed is either delivered or
    // counted dropped, so together they are exactly half of what was
    // recorded since the subscription.
    uint64_t delivered = 0;
    while (stalled.readLine(1000))
        ++delivered;
    const DaemonServer::Counters &st = server_->counters();
    uint64_t recorded = st.eventsEmitted.value() - emitted_before;
    EXPECT_EQ(recorded, 4 * jobs);
    EXPECT_EQ(delivered + st.eventsDropped.value(), recorded / 2);
}

TEST_F(DaemonObservabilityTest, MetricsCommandServesBothFormats)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request req;
    req.id = 1;
    req.cmd = Command::Metrics;
    CallResult json = rawCall(client, req);
    ASSERT_TRUE(json.ok) << json.error;
    const report::JsonValue *result = json.response.get("result");
    ASSERT_TRUE(result);
    ASSERT_TRUE(result->get("telemetry_enabled"));
    EXPECT_TRUE(result->get("metrics") &&
                result->get("metrics")->get("counters"));

    req.id = 2;
    req.format = "prometheus";
    CallResult prom = rawCall(client, req);
    ASSERT_TRUE(prom.ok) << prom.error;
    std::string text =
        prom.response.get("result")->stringOr("text", "");
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text[0], '#') << "exposition must open with a comment";
    EXPECT_NE(text.find("vpprof_daemon_requests_total"), std::string::npos)
        << text;
}

TEST_F(DaemonObservabilityTest, PrometheusExpositionFollowsTextGrammar)
{
    startServer(baseConfig());
    DaemonClient driver = connectedClient();
    DaemonClient scraper = connectedClient();

    // One finished job, so the daemon's job-latency histogram exists.
    Request job;
    job.id = 1;
    job.cmd = Command::Profile;
    job.workload = "compress";
    ASSERT_TRUE(rawCall(driver, job).ok);

    Request req;
    req.id = 2;
    req.cmd = Command::Metrics;
    req.format = "prometheus";
    CallResult prom = rawCall(scraper, req);
    ASSERT_TRUE(prom.ok) << prom.error;
    std::string text =
        prom.response.get("result")->stringOr("text", "");
    ASSERT_FALSE(text.empty());

    // Histogram series carry an `le` label and close with +Inf.
    EXPECT_NE(text.find("vpprof_daemon_job_us_bucket{le=\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vpprof_daemon_job_us_bucket{le=\"+Inf\"} "),
              std::string::npos);

    // Every line satisfies the same exposition grammar the CI lint
    // enforces over `vpprof_cli daemon-client metrics --prometheus`.
    const std::regex line_re(
        R"(^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?)"
        R"( [0-9eE.+-]+(\s[0-9]+)?))");
    std::istringstream lines(text);
    std::string line;
    size_t checked = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        EXPECT_TRUE(std::regex_match(line, line_re))
            << "lint-breaking line: " << line;
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}

TEST_F(DaemonObservabilityTest, DrainDeliversPendingCompletedEventBeforeEof)
{
    startServer(baseConfig());

    DaemonClient sub = connectedClient();
    CallResult ack = sub.call(
        R"({"id": 1, "cmd": "subscribe", "events": "lifecycle"})", 1,
        5000);
    ASSERT_TRUE(ack.ok) << ack.error;

    // The subscriber's `admitted` event proves ADMISSION before the
    // drain begins (a drain-rejected job would void the test).
    DaemonClient job = connectedClient();
    ASSERT_TRUE(job.sendLine(
        R"({"id": 2, "cmd": "verify", "workload": "li", "input": 0,)"
        R"( "trace_id": 31})"));
    bool admitted = false;
    while (!admitted) {
        std::optional<std::string> line = sub.readLine(30'000);
        ASSERT_TRUE(line) << sub.lastError();
        auto doc = report::parseJson(*line);
        ASSERT_TRUE(doc) << *line;
        admitted = doc->numberOr("trace_id", 0) == 31.0 &&
                   doc->stringOr("kind", "") == "admitted";
    }

    // Drain mid-flight: the admitted job completes, and the subscriber
    // receives its completed lifecycle event before a clean EOF.
    server_->requestShutdown();
    bool saw_completed = false;
    while (auto line = sub.readLine(120'000)) {
        if (line->find("\"completed\"") != std::string::npos)
            saw_completed = true;
    }
    EXPECT_TRUE(saw_completed)
        << "subscriber missed the completed event; last error: "
        << sub.lastError();
    EXPECT_EQ(sub.lastReason(), CallReason::Eof);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonObservabilityTest, SpanTreeReconstructsFromPerfettoTrace)
{
    // The acceptance-criteria property: pick a request's trace id,
    // parse the merged Perfetto trace, and its span tree — lifecycle
    // instants AND the executor span — comes back by filtering
    // args.trace_id alone.
    telemetry::SpanTracer::instance().enable();
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request job;
    job.id = 1;
    job.cmd = Command::Profile;
    job.workload = "compress";
    job.traceId = 4242;
    ASSERT_TRUE(rawCall(client, job).ok);
    client.close();
    stopServer();
    telemetry::SpanTracer::instance().disable();

    std::ostringstream os;
    telemetry::SpanTracer::instance().writeJson(os);
    std::string error;
    auto doc = report::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const report::JsonValue *events = doc->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    std::vector<std::string> instants;
    bool executor_span = false;
    for (const report::JsonValue &event : events->asArray()) {
        const report::JsonValue *args = event.get("args");
        if (!args || args->numberOr("trace_id", 0) != 4242.0)
            continue;
        std::string ph = event.stringOr("ph", "");
        std::string name = event.stringOr("name", "");
        if (ph == "i")
            instants.push_back(name);
        else if (ph == "X" && name == "daemon.job")
            executor_span = true;
    }
    ASSERT_GE(instants.size(), 4u);
    EXPECT_EQ(instants[0], "job.received");
    EXPECT_EQ(instants[1], "job.admitted");
    EXPECT_EQ(instants[2], "job.started");
    EXPECT_EQ(instants[3], "job.completed");
    EXPECT_TRUE(executor_span)
        << "executor span not attributed to the job's trace id";
}

TEST_F(DaemonObservabilityTest, SpansSubscriptionIsRejectedAndNeverArmsTracer)
{
    // A `spans` subscription used to arm the process-wide span tracer
    // for the rest of the daemon's life, so every later job appended
    // its spans to per-thread buffers. Spans leave only through
    // --trace-json now: the request is a bad_request and recording
    // stays off.
    telemetry::SpanTracer &tracer = telemetry::SpanTracer::instance();
    ASSERT_FALSE(tracer.enabled());
    const size_t events_before = tracer.eventCount();
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult sub = client.call(
        R"({"id": 1, "cmd": "subscribe", "events": "spans"})", 1, 5000);
    EXPECT_FALSE(sub.ok);
    EXPECT_EQ(sub.code, "bad_request");
    EXPECT_NE(sub.error.find("spans"), std::string::npos) << sub.error;
    EXPECT_EQ(server_->counters().badRequests.value(), 1u);
    EXPECT_EQ(server_->counters().subscribes.value(), 0u);

    Request job;
    job.id = 2;
    job.cmd = Command::Profile;
    job.workload = "compress";
    ASSERT_TRUE(rawCall(client, job).ok);
    EXPECT_EQ(stopServer(), 0);

    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.eventCount(), events_before);
}

// ---- pure observe.hh units (no sockets) --------------------------

TEST(EventFilter, ParsesSpecsCanonically)
{
    // `lifecycle` is the only event class; an empty spec means it.
    for (const char *spec : {"", "lifecycle", "lifecycle,lifecycle"}) {
        std::string error;
        EXPECT_TRUE(parseEventFilter(spec, &error))
            << "'" << spec << "': " << error;
    }
    // Spans and the registry have their own exporters (--trace-json,
    // the `metrics` command); the error names the rejected token.
    const std::pair<const char *, const char *> rejected[] = {
        {"spans", "spans"},
        {"metrics", "metrics"},
        {"all", "all"},
        {"lifecycle,bogus", "bogus"},
    };
    for (const auto &[spec, token] : rejected) {
        std::string error;
        EXPECT_FALSE(parseEventFilter(spec, &error)) << spec;
        EXPECT_NE(error.find(std::string("'") + token + "'"),
                  std::string::npos)
            << spec << ": " << error;
    }
}

TEST(SloSpec, ParsesAndRejects)
{
    std::string error;
    auto slo = parseSloSpec("p99_ms=50,error_rate=0.01", &error);
    ASSERT_TRUE(slo) << error;
    EXPECT_DOUBLE_EQ(slo->p99Ms, 50.0);
    EXPECT_DOUBLE_EQ(slo->errorRate, 0.01);
    EXPECT_TRUE(slo->configured());

    EXPECT_FALSE(parseSloSpec("p50_ms=50", &error));
    EXPECT_FALSE(parseSloSpec("error_rate=2", &error));
    EXPECT_FALSE(parseSloSpec("p99_ms=", &error));
}

TEST(SloTracker, TightObjectivesBurnGenerousStayQuiet)
{
    SloConfig tight;
    tight.p99Ms = 0.0001;
    tight.errorRate = 0;
    SloTracker tracker;
    tracker.configure(tight, 64);
    EXPECT_EQ(tracker.minSamples(), 8u);
    for (int i = 0; i < 10; ++i)
        tracker.observe(1.0, i != 9);  // one deliberate failure
    EXPECT_EQ(tracker.observed(), 10u);
    // Evaluation starts once the window holds minSamples: every
    // observation past that with p99 over budget burns.
    EXPECT_GE(tracker.latencyBurns(), 1u);
    EXPECT_GE(tracker.errorBurns(), 1u);

    SloTracker generous;
    SloConfig loose;
    loose.p99Ms = 600'000;
    loose.errorRate = 1.0;
    generous.configure(loose, 64);
    for (int i = 0; i < 10; ++i)
        generous.observe(1.0, i != 9);
    EXPECT_EQ(generous.latencyBurns(), 0u);
    EXPECT_EQ(generous.errorBurns(), 0u);
}

TEST(SloTracker, WindowSlidesOldSamplesOut)
{
    SloConfig cfg;
    cfg.errorRate = 0.5;
    SloTracker tracker;
    tracker.configure(cfg, 8);
    // Fill the window with failures (rate 1.0 > 0.5: burns), then
    // push 8 successes: the failures age out and burning stops.
    for (int i = 0; i < 8; ++i)
        tracker.observe(1.0, false);
    uint64_t burned = tracker.errorBurns();
    EXPECT_GE(burned, 1u);
    for (int i = 0; i < 8; ++i)
        tracker.observe(1.0, true);
    uint64_t after_recovery = tracker.errorBurns();
    tracker.observe(1.0, true);
    EXPECT_EQ(tracker.errorBurns(), after_recovery)
        << "an all-ok window must not burn";
    EXPECT_DOUBLE_EQ(tracker.windowErrorRate(), 0.0);
}

TEST(JobEventJson, RoundTripsThroughStrictParser)
{
    JobEvent event;
    event.seq = 12;
    event.tsNs = 3456;
    event.kind = JobEventKind::Failed;
    event.requestId = 9;
    event.traceId = 42;
    event.clientSerial = 3;
    event.cmd = Command::Evaluate;
    event.workload = "weird \"name\"\nwith\tcontrol\x01bytes";
    event.detail = "error: \\ backslash";
    event.queued = 5;

    std::string line = jobEventJson(event);
    std::string error;
    auto doc = report::parseJson(line, &error);
    ASSERT_TRUE(doc) << error << " in " << line;
    EXPECT_EQ(doc->stringOr("event", ""), "telemetry");
    EXPECT_EQ(doc->stringOr("kind", ""), "failed");
    EXPECT_DOUBLE_EQ(doc->numberOr("seq", 0), 12.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("trace_id", 0), 42.0);
    EXPECT_EQ(doc->stringOr("workload", ""), event.workload);
    EXPECT_EQ(doc->stringOr("detail", ""), event.detail);
    EXPECT_DOUBLE_EQ(doc->numberOr("queued", 0), 5.0);
    // The `event` member is what call()'s matcher keys on to skip
    // interleaved telemetry; the request id rides along for joining.
    EXPECT_DOUBLE_EQ(doc->numberOr("id", 0), 9.0);
}

TEST(EventRing, BoundedRingAgesOutOldest)
{
    EventRing ring(3);
    for (int i = 0; i < 5; ++i)
        ring.push(JobEvent{});  // push stamps seq 1..5
    EXPECT_EQ(ring.total(), 5u);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.oldestSeq(), 3u);
    EXPECT_EQ(ring.headSeq(), 6u);
    EXPECT_EQ(ring.at(4).seq, 4u);
    std::string rendered = ring.renderJsonArray(0);
    std::string error;
    auto doc = report::parseJson(rendered, &error);
    ASSERT_TRUE(doc) << error;
    ASSERT_TRUE(doc->isArray());
    ASSERT_EQ(doc->asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(doc->asArray()[0].numberOr("seq", 0), 3.0);
    EXPECT_DOUBLE_EQ(doc->asArray()[2].numberOr("seq", 0), 5.0);

    // A limit takes the newest events, oldest first.
    auto tail = report::parseJson(ring.renderJsonArray(2), &error);
    ASSERT_TRUE(tail && tail->isArray()) << error;
    ASSERT_EQ(tail->asArray().size(), 2u);
    EXPECT_DOUBLE_EQ(tail->asArray()[0].numberOr("seq", 0), 4.0);
    EXPECT_DOUBLE_EQ(tail->asArray()[1].numberOr("seq", 0), 5.0);

    // A cursor at seq 1 never saw 1 and 2 before they were evicted;
    // one at the oldest retained event or the head lost nothing.
    EXPECT_EQ(ring.overtaken(1), 2u);
    EXPECT_EQ(ring.overtaken(3), 0u);
    EXPECT_EQ(ring.overtaken(ring.headSeq()), 0u);
}

// ---- protocol additions ------------------------------------------

TEST(ObservabilityProtocol, ParsesSubscriptionFields)
{
    std::string error;
    auto req = parseRequest(
        R"({"id": 1, "cmd": "subscribe", "events": "lifecycle,spans",)"
        R"( "sample_rate": 0.5, "trace_id": 9})",
        &error);
    ASSERT_TRUE(req) << error;
    EXPECT_EQ(req->cmd, Command::Subscribe);
    EXPECT_EQ(req->subEvents, "lifecycle,spans");
    EXPECT_DOUBLE_EQ(req->sampleRate, 0.5);
    EXPECT_EQ(req->traceId, 9u);

    auto metrics = parseRequest(
        R"({"id": 2, "cmd": "metrics", "format": "prometheus"})",
        &error);
    ASSERT_TRUE(metrics) << error;
    EXPECT_EQ(metrics->format, "prometheus");

    auto journal = parseRequest(
        R"({"id": 3, "cmd": "journal", "limit": 16})", &error);
    ASSERT_TRUE(journal) << error;
    EXPECT_EQ(journal->limit, 16u);
}

TEST(ObservabilityProtocol, RejectsBadObservabilityFields)
{
    std::string error;
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "sample_rate": 0})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "sample_rate": 1.5})",
        &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "sample_rate": -0.5})",
        &error));
    EXPECT_FALSE(
        parseRequest(R"({"id": 1, "cmd": "ping", "trace_id": -3})",
                     &error));
}

TEST(ObservabilityProtocol, ResponsesCarryTraceId)
{
    std::string line =
        okResponseLine(7, Command::Ping, "\"pong\": true", 55);
    std::string error;
    auto doc = report::parseJson(line, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_DOUBLE_EQ(doc->numberOr("trace_id", 0), 55.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("id", 0), 7.0);
}

} // namespace
} // namespace daemon
} // namespace vpprof
