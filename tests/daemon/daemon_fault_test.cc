/**
 * @file
 * The daemon under the failpoint matrix: socket-level faults
 * (daemon.accept, daemon.write) degrade one connection and are
 * accounted in the serving counters, never crash the daemon; and the
 * trace-cache recovery ladder carries over unchanged — a corrupt
 * cache file under an admitted job means the client receives a
 * completed, bit-identical result via quarantine + regeneration, with
 * the recovery visible in the protocol `stats` counters. No client
 * ever hangs: every admitted job is answered or its connection is
 * closed.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/failpoint.hh"
#include "daemon/client.hh"
#include "daemon/dispatch.hh"
#include "daemon/server.hh"
#include "report/json.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

namespace fs = std::filesystem;

std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/vpd_f" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

/** An evaluate answer's four accuracies, in response order. */
std::vector<double>
accuracies(const report::JsonValue &result)
{
    std::vector<double> values;
    for (const char *field : {"fsm_misp_pct", "fsm_corr_pct",
                              "prof_misp_pct", "prof_corr_pct"})
        values.push_back(result.numberOr(field, -1));
    return values;
}

/** `evaluate compress 0 70` answered in process by a fresh Session
 *  without a cache: the fault-free reference. */
std::vector<double>
cleanEvaluateAnswer()
{
    Session session;
    WorkloadSuite suite;
    Dispatcher dispatcher(session, suite);
    Request req;
    req.cmd = Command::Evaluate;
    req.workload = "compress";
    req.input = 0;
    req.threshold = 70.0;
    JobOutcome outcome = dispatcher.execute(req);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    auto result = report::parseJson("{" + outcome.resultFields + "}");
    EXPECT_TRUE(result);
    return result ? accuracies(*result) : std::vector<double>{};
}

class DaemonFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        dir_ = ::testing::TempDir() + "/vpd_fault_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        stopServer();
        FailpointRegistry::instance().reset();
        fs::remove_all(dir_);
    }

    void
    startServer(DaemonConfig cfg)
    {
        cfg.socketPath = freshSocketPath();
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

    std::string dir_;
    std::unique_ptr<DaemonServer> server_;
    std::thread serverThread_;
    int runRc_ = -1;
};

TEST_F(DaemonFaultTest, AcceptFaultDropsOneConnectionNotTheDaemon)
{
    DaemonConfig cfg;
    cfg.session.jobs = 1;
    startServer(cfg);

    // The kernel completes the connect; the daemon fails to adopt the
    // fd (hit 1) and closes it. The client observes EOF, the counter
    // accounts the fault, and the NEXT connection serves normally.
    FailpointRegistry::instance().arm("daemon.accept",
                                      {FailpointAction::Fail, 1});
    DaemonClient doomed = connectedClient();
    ASSERT_TRUE(doomed.connected());
    doomed.sendLine(R"({"id": 1, "cmd": "ping"})");  // may race the close
    EXPECT_FALSE(doomed.readLine(5000));
    // Clean EOF or ECONNRESET (the daemon closed with our unread ping
    // still in the socket) — dropped either way, never a timeout.
    EXPECT_NE(doomed.lastError(), "timeout");
    EXPECT_FALSE(doomed.connected());

    DaemonClient healthy = connectedClient();
    CallResult ping = healthy.call(1, Command::Ping, "", 0, 0, 5000);
    EXPECT_TRUE(ping.ok) << ping.error;
    EXPECT_EQ(server_->counters().acceptFailures.value(), 1u);
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonFaultTest, WriteFaultDropsTheClientAndIsCounted)
{
    DaemonConfig cfg;
    cfg.session.jobs = 1;
    startServer(cfg);

    DaemonClient client = connectedClient();
    // The FIRST daemon write fails: the ping response cannot be
    // delivered, the client is dropped (a client that cannot be
    // written to cannot be served), and writeErrors accounts it.
    FailpointRegistry::instance().arm("daemon.write",
                                      {FailpointAction::Fail, 1});
    ASSERT_TRUE(client.sendLine(R"({"id": 1, "cmd": "ping"})"));
    EXPECT_FALSE(client.readLine(5000));
    EXPECT_EQ(client.lastError(), "disconnected");
    EXPECT_EQ(server_->counters().writeErrors.value(), 1u);

    // Later connections write fine (trigger hit 1 already consumed).
    DaemonClient healthy = connectedClient();
    CallResult ping = healthy.call(2, Command::Ping, "", 0, 0, 5000);
    EXPECT_TRUE(ping.ok) << ping.error;
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonFaultTest, CorruptCacheMidJobCompletesViaRegeneration)
{
    // Daemon A populates the shared trace cache through an evaluate
    // (its classification replays capture compress.in0), then drains.
    DaemonConfig cfg;
    cfg.session.jobs = 1;
    cfg.session.traceCacheDir = dir_;
    std::vector<double> clean_answer;
    {
        startServer(cfg);
        DaemonClient client = connectedClient();
        CallResult r = client.call(1, Command::Evaluate, "compress", 0,
                                   70.0, 120'000);
        ASSERT_TRUE(r.ok) << r.error;
        clean_answer = accuracies(*r.response.get("result"));
        ASSERT_EQ(stopServer(), 0);
    }

    // Damage the persisted trace: flip bytes in the middle.
    std::string cache_file = dir_ + "/compress.in0.trace";
    {
        std::ifstream in(cache_file, std::ios::binary);
        ASSERT_TRUE(in.good()) << cache_file;
        std::stringstream buf;
        buf << in.rdbuf();
        std::string bytes = buf.str();
        ASSERT_GT(bytes.size(), 256u);
        for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 64; ++i)
            bytes[i] ^= 0x5a;
        std::ofstream out(cache_file,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    // Daemon B serves the same cache: the job must COMPLETE with the
    // identical answer (quarantine + VM regeneration), never hang or
    // fail, and the recovery must be visible in the stats counters.
    startServer(cfg);
    DaemonClient client = connectedClient();
    CallResult r =
        client.call(1, Command::Evaluate, "compress", 0, 70.0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(accuracies(*r.response.get("result")), clean_answer);

    CallResult stats = client.call(2, Command::Stats, "", 0, 0, 5000);
    ASSERT_TRUE(stats.ok) << stats.error;
    const report::JsonValue *trace_block =
        stats.response.get("result")->get("trace");
    ASSERT_TRUE(trace_block);
    EXPECT_GE(trace_block->numberOr("corrupt_quarantined", -1), 1.0);
    EXPECT_GE(trace_block->numberOr("regenerations", -1), 1.0);
    // The sick file was quarantined aside, not silently re-probed.
    EXPECT_TRUE(fs::exists(cache_file + ".bad"));
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonFaultTest, TraceIoFaultUnderAdmittedJobStillAnswers)
{
    // trace_io.write faults while the daemon persists a fresh trace
    // (an evaluate's classification captures compress.in0): the
    // capture degrades (spill_failures accounts it) but the job
    // completes with the fault-free answer — degraded, not broken.
    const std::vector<double> clean_answer = cleanEvaluateAnswer();
    DaemonConfig cfg;
    cfg.session.jobs = 1;
    cfg.session.traceCacheDir = dir_;
    startServer(cfg);

    FailpointRegistry::instance().arm("trace_io.write",
                                      {FailpointAction::Fail, 0});
    DaemonClient client = connectedClient();
    CallResult r =
        client.call(1, Command::Evaluate, "compress", 0, 70.0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.response.get("result")->numberOr("prof_corr_pct", 0),
              0.0);
    EXPECT_EQ(accuracies(*r.response.get("result")), clean_answer);

    FailpointRegistry::instance().reset();
    CallResult stats = client.call(2, Command::Stats, "", 0, 0, 5000);
    ASSERT_TRUE(stats.ok) << stats.error;
    const report::JsonValue *trace_block =
        stats.response.get("result")->get("trace");
    ASSERT_TRUE(trace_block);
    EXPECT_GE(trace_block->numberOr("spill_failures", -1), 1.0);
    EXPECT_EQ(stopServer(), 0);
}

} // namespace
} // namespace daemon
} // namespace vpprof
