/**
 * @file
 * The daemon under the failpoint matrix: socket-level faults
 * (daemon.accept, daemon.write) degrade one connection and are
 * accounted in the serving counters, never crash the daemon. The
 * daemon's jobs are VM passes, so the trace-cache rows of the matrix
 * cannot reach it: a corrupt cache file in its Session's directory is
 * never read, and armed trace_io failpoints never fire. No client ever
 * hangs: every admitted job is answered or its connection is closed.
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
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
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

/** `evaluate compress 0 70`'s four accuracies from the reference
 *  path, two Session::evaluateClassification replays: the fault-free
 *  answer. A Session configured with a cache directory commits the
 *  compress.in0 trace there. */
std::vector<double>
replayedEvaluateAnswer(const SessionConfig &config)
{
    Session session(config);
    WorkloadSuite suite;
    const Workload &w = *suite.find("compress");
    InserterConfig icfg;
    icfg.accuracyThresholdPercent = 70.0;
    Program annotated =
        session.annotatedProgram(w, trainingInputsFor(w, 0), icfg);
    SaturatingClassifier fsm;
    ClassificationAccuracy fsm_acc =
        session.evaluateClassification(w, 0, w.program(), fsm);
    ProfileClassifier prof;
    ClassificationAccuracy prof_acc =
        session.evaluateClassification(w, 0, annotated, prof);
    return {fsm_acc.mispredictionAccuracy(), fsm_acc.correctAccuracy(),
            prof_acc.mispredictionAccuracy(), prof_acc.correctAccuracy()};
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

TEST_F(DaemonFaultTest, CorruptCacheFileIsNeverRead)
{
    // The CLI's Session captures compress.in0 into the directory; its
    // replays give the reference answer.
    SessionConfig cli_cfg;
    cli_cfg.traceCacheDir = dir_;
    const std::vector<double> replayed_answer =
        replayedEvaluateAnswer(cli_cfg);

    // Damage the persisted trace: flip bytes in the middle.
    std::string cache_file = dir_ + "/compress.in0.trace";
    auto readFile = [&] {
        std::ifstream in(cache_file, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    std::string damaged = readFile();
    ASSERT_GT(damaged.size(), 256u) << cache_file;
    for (size_t i = damaged.size() / 2; i < damaged.size() / 2 + 64; ++i)
        damaged[i] ^= 0x5a;
    {
        std::ofstream out(cache_file,
                          std::ios::binary | std::ios::trunc);
        out.write(damaged.data(),
                  static_cast<std::streamsize>(damaged.size()));
    }

    // A daemon whose Session names that directory answers the same
    // evaluate from one VM pass: the sick file is never opened, so it
    // is neither quarantined nor rewritten.
    DaemonConfig cfg;
    cfg.session.jobs = 1;
    cfg.session.traceCacheDir = dir_;
    startServer(cfg);
    DaemonClient client = connectedClient();
    CallResult r =
        client.call(1, Command::Evaluate, "compress", 0, 70.0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(accuracies(*r.response.get("result")), replayed_answer);

    CallResult stats = client.call(2, Command::Stats, "", 0, 0, 5000);
    ASSERT_TRUE(stats.ok) << stats.error;
    const report::JsonValue *trace_block =
        stats.response.get("result")->get("trace");
    ASSERT_TRUE(trace_block);
    EXPECT_EQ(trace_block->numberOr("corrupt_quarantined", -1), 0.0);
    EXPECT_EQ(trace_block->numberOr("disk_loads", -1), 0.0);
    EXPECT_EQ(stopServer(), 0);
    EXPECT_FALSE(fs::exists(cache_file + ".bad"));
    EXPECT_EQ(readFile(), damaged);
}

TEST_F(DaemonFaultTest, TraceIoFaultUnderAdmittedJobStillAnswers)
{
    // Every trace_io write and read fails while the daemon serves an
    // evaluate over a cache directory: the job answers the fault-free
    // reference, and no armed failpoint fires, because an evaluate
    // runs the VM into its classifiers and touches no trace file.
    const std::vector<double> clean_answer =
        replayedEvaluateAnswer(SessionConfig{});
    DaemonConfig cfg;
    cfg.session.jobs = 1;
    cfg.session.traceCacheDir = dir_;
    startServer(cfg);

    FailpointRegistry::instance().arm("trace_io.write",
                                      {FailpointAction::Fail, 0});
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 0});
    DaemonClient client = connectedClient();
    CallResult r =
        client.call(1, Command::Evaluate, "compress", 0, 70.0, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.response.get("result")->numberOr("prof_corr_pct", 0),
              0.0);
    EXPECT_EQ(accuracies(*r.response.get("result")), clean_answer);
    EXPECT_EQ(FailpointRegistry::instance().triggered("trace_io.write"),
              0u);
    EXPECT_EQ(FailpointRegistry::instance().triggered("trace_io.read"),
              0u);

    FailpointRegistry::instance().reset();
    CallResult stats = client.call(2, Command::Stats, "", 0, 0, 5000);
    ASSERT_TRUE(stats.ok) << stats.error;
    const report::JsonValue *trace_block =
        stats.response.get("result")->get("trace");
    ASSERT_TRUE(trace_block);
    EXPECT_EQ(trace_block->numberOr("spill_failures", -1), 0.0);
    EXPECT_EQ(stopServer(), 0);
    EXPECT_TRUE(fs::is_empty(dir_));
}

} // namespace
} // namespace daemon
} // namespace vpprof
