/**
 * @file
 * Wire-protocol unit tests: request parsing (strict field validation,
 * id echo on malformed documents), response/event line construction,
 * and the round-trip property — every line the protocol writers emit
 * parses back through the strict report/json parser.
 */

#include <gtest/gtest.h>

#include <vector>

#include "daemon/protocol.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

TEST(Protocol, ParsesMinimalPing)
{
    std::string error;
    auto req = parseRequest(R"({"id": 7, "cmd": "ping"})", &error);
    ASSERT_TRUE(req) << error;
    EXPECT_EQ(req->id, 7u);
    EXPECT_EQ(req->cmd, Command::Ping);
}

TEST(Protocol, ParsesFullJobRequest)
{
    // An old client's "progress" key is one the parser does not read:
    // it is ignored, like any other unknown key.
    std::string error;
    auto req = parseRequest(
        R"({"id": 3, "cmd": "evaluate", "workload": "li", "input": 2,)"
        R"( "threshold": 85.5, "progress": true})",
        &error);
    ASSERT_TRUE(req) << error;
    EXPECT_EQ(req->id, 3u);
    EXPECT_EQ(req->cmd, Command::Evaluate);
    EXPECT_EQ(req->workload, "li");
    EXPECT_EQ(req->input, 2u);
    EXPECT_DOUBLE_EQ(req->threshold, 85.5);
}

TEST(Protocol, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(parseRequest("not json", &error));
    EXPECT_FALSE(parseRequest("[1, 2]", &error));
    EXPECT_FALSE(parseRequest("{}", &error));
    EXPECT_FALSE(parseRequest(R"({"id": 1})", &error));
    EXPECT_FALSE(parseRequest(R"({"cmd": "ping"})", &error));
    EXPECT_FALSE(parseRequest(R"({"id": -1, "cmd": "ping"})", &error));
    EXPECT_FALSE(parseRequest(R"({"id": "x", "cmd": "ping"})", &error));
    EXPECT_FALSE(parseRequest(R"({"id": 1, "cmd": "launch"})", &error));
    EXPECT_FALSE(
        parseRequest(R"({"id": 1, "cmd": "cluster-stats"})", &error));
    EXPECT_FALSE(
        parseRequest(R"({"id": 1, "cmd": 7})", &error));
}

TEST(Protocol, RejectsBadFieldTypes)
{
    std::string error;
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "profile", "workload": 3})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "profile", "workload": "li",)"
        R"( "input": -2})",
        &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "evaluate", "workload": "li",)"
        R"( "threshold": "high"})",
        &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "events": 3})", &error));
}

TEST(Protocol, IntegerFieldsRejectFractionsAndOutOfRange)
{
    // JSON numbers are doubles: an integer field accepts only integral
    // values in [0, 2^53], never truncating or overflowing the cast.
    std::string error;
    EXPECT_FALSE(parseRequest(R"({"id": 1e300, "cmd": "ping"})", &error));
    EXPECT_NE(error.find("'id'"), std::string::npos) << error;
    EXPECT_FALSE(parseRequest(R"({"id": 1.5, "cmd": "ping"})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 9007199254740994, "cmd": "ping"})", &error));
    auto max_id = parseRequest(
        R"({"id": 9007199254740992, "cmd": "ping"})", &error);
    ASSERT_TRUE(max_id) << error;
    EXPECT_EQ(max_id->id, 9007199254740992u);

    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "journal", "limit": 1e30})", &error));
    EXPECT_NE(error.find("'limit'"), std::string::npos) << error;
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "journal", "limit": 2.5})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "profile", "workload": "li",)"
        R"( "input": 1e300})",
        &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "profile", "workload": "li",)"
        R"( "input": 0.5})",
        &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "ping", "deadline_ms": 1e300})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "ping", "deadline_ms": 10.5})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "cancel", "target": 1e300})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "cancel", "target": 0.5})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "ping", "trace_id": 1e300})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "ping", "trace_id": 3.25})", &error));

    // In range, a deadline whose nanosecond sum would overflow still
    // parses; the daemon saturates it.
    auto huge = parseRequest(
        R"({"id": 1, "cmd": "ping", "deadline_ms": 18446744073709})",
        &error);
    ASSERT_TRUE(huge) << error;
    EXPECT_EQ(huge->deadlineMs, 18446744073709u);
}

TEST(Protocol, JobCommandsRequireWorkload)
{
    std::string error;
    EXPECT_FALSE(parseRequest(R"({"id": 1, "cmd": "profile"})", &error));
    EXPECT_FALSE(parseRequest(R"({"id": 1, "cmd": "evaluate"})", &error));
    EXPECT_FALSE(parseRequest(R"({"id": 1, "cmd": "verify"})", &error));
    // ...but the inline commands do not.
    EXPECT_TRUE(parseRequest(R"({"id": 1, "cmd": "stats"})", &error));
    EXPECT_TRUE(parseRequest(R"({"id": 1, "cmd": "shutdown"})", &error));
}

TEST(Protocol, MalformedRequestStillEchoesId)
{
    // The daemon answers errors with the request's id when the broken
    // document still carried one, so pipelining clients can match it.
    std::string error;
    uint64_t id = 999;
    EXPECT_FALSE(parseRequest(R"({"id": 41, "cmd": "launch"})", &error,
                              &id));
    EXPECT_EQ(id, 41u);

    id = 999;
    EXPECT_FALSE(parseRequest("garbage", &error, &id));
    EXPECT_EQ(id, 999u);  // untouched: no id recoverable
}

TEST(Protocol, CommandClassification)
{
    EXPECT_FALSE(commandIsJob(Command::Ping));
    EXPECT_TRUE(commandIsJob(Command::Profile));
    EXPECT_TRUE(commandIsJob(Command::Evaluate));
    EXPECT_TRUE(commandIsJob(Command::Verify));
    EXPECT_FALSE(commandIsJob(Command::Stats));
    EXPECT_FALSE(commandIsJob(Command::Shutdown));
}

TEST(Protocol, NamesRoundTrip)
{
    for (Command cmd :
         {Command::Ping, Command::Profile, Command::Evaluate,
          Command::Verify, Command::Stats, Command::Shutdown}) {
        auto parsed = parseCommand(commandName(cmd));
        ASSERT_TRUE(parsed);
        EXPECT_EQ(*parsed, cmd);
    }
    EXPECT_FALSE(parseCommand("no-such-command"));
}

TEST(Protocol, RequestLinesRoundTrip)
{
    // requestLine is parseRequest's inverse: every representable
    // request survives serialize -> parse unchanged, including the
    // omitted-field defaults.
    std::vector<Request> cases;
    Request ping;
    ping.id = 1;
    cases.push_back(ping);
    Request stats;
    stats.id = 17;
    stats.cmd = Command::Stats;
    cases.push_back(stats);
    Request profile;
    profile.id = 2;
    profile.cmd = Command::Profile;
    profile.workload = "compress";
    profile.input = 3;
    cases.push_back(profile);
    Request evaluate;
    evaluate.id = 3;
    evaluate.cmd = Command::Evaluate;
    evaluate.workload = "li";
    evaluate.threshold = 85.5;
    cases.push_back(evaluate);

    for (const Request &req : cases) {
        std::string error;
        auto parsed = parseRequest(requestLine(req), &error);
        ASSERT_TRUE(parsed) << requestLine(req) << ": " << error;
        EXPECT_EQ(parsed->id, req.id);
        EXPECT_EQ(parsed->cmd, req.cmd);
        EXPECT_EQ(parsed->workload, req.workload);
        EXPECT_EQ(parsed->input, req.input);
        EXPECT_DOUBLE_EQ(parsed->threshold, req.threshold);
    }
}

TEST(Protocol, ResponseLinesAreStrictJson)
{
    std::string ok = okResponseLine(12, Command::Evaluate,
                                    "\"threshold\": 70, \"x\": 1.5");
    std::string error_line;
    auto doc = report::parseJson(ok, &error_line);
    ASSERT_TRUE(doc) << error_line;
    EXPECT_DOUBLE_EQ(doc->numberOr("id", -1), 12.0);
    ASSERT_TRUE(doc->get("ok"));
    EXPECT_TRUE(doc->get("ok")->asBool());
    EXPECT_EQ(doc->stringOr("cmd", ""), "evaluate");
    ASSERT_TRUE(doc->get("result"));
    EXPECT_DOUBLE_EQ(doc->get("result")->numberOr("threshold", -1), 70);

    // Empty result fields render as an empty object, still valid.
    auto empty = report::parseJson(okResponseLine(1, Command::Ping, ""));
    ASSERT_TRUE(empty);
    ASSERT_TRUE(empty->get("result"));
    EXPECT_TRUE(empty->get("result")->isObject());

    std::string err = errorResponseLine(
        3, ErrorCode::Overloaded, "queue full \"now\"\n back off");
    auto edoc = report::parseJson(err, &error_line);
    ASSERT_TRUE(edoc) << error_line;
    EXPECT_FALSE(edoc->get("ok")->asBool());
    EXPECT_EQ(edoc->stringOr("code", ""), "overloaded");
    EXPECT_EQ(edoc->stringOr("error", ""),
              "queue full \"now\"\n back off");
}

TEST(Protocol, ErrorCodeNamesAreStable)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::BadRequest), "bad_request");
    EXPECT_STREQ(errorCodeName(ErrorCode::UnknownWorkload),
                 "unknown_workload");
    EXPECT_STREQ(errorCodeName(ErrorCode::BadInput), "bad_input");
    EXPECT_STREQ(errorCodeName(ErrorCode::Overloaded), "overloaded");
    EXPECT_STREQ(errorCodeName(ErrorCode::Quota), "quota");
    EXPECT_STREQ(errorCodeName(ErrorCode::Draining), "draining");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
}

TEST(Protocol, ParsesDeadlineAndCancel)
{
    std::string error;
    auto req = parseRequest(
        R"({"id": 4, "cmd": "profile", "workload": "li",)"
        R"( "deadline_ms": 250})",
        &error);
    ASSERT_TRUE(req) << error;
    EXPECT_EQ(req->deadlineMs, 250u);

    auto cancel = parseRequest(
        R"({"id": 9, "cmd": "cancel", "target": 4})", &error);
    ASSERT_TRUE(cancel) << error;
    EXPECT_EQ(cancel->cmd, Command::Cancel);
    EXPECT_EQ(cancel->cancelTarget, 4u);
    EXPECT_FALSE(commandIsJob(Command::Cancel));

    // cancel without a target, and bad field types, are rejected.
    EXPECT_FALSE(parseRequest(R"({"id": 9, "cmd": "cancel"})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 9, "cmd": "cancel", "target": 0})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 9, "cmd": "cancel", "target": "four"})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 4, "cmd": "ping", "deadline_ms": -5})", &error));
}

TEST(Protocol, DeadlineAndCancelRoundTrip)
{
    Request job;
    job.id = 12;
    job.cmd = Command::Evaluate;
    job.workload = "go";
    job.deadlineMs = 1500;
    std::string error;
    auto parsed = parseRequest(requestLine(job), &error);
    ASSERT_TRUE(parsed) << requestLine(job) << ": " << error;
    EXPECT_EQ(parsed->deadlineMs, 1500u);

    Request cancel;
    cancel.id = 13;
    cancel.cmd = Command::Cancel;
    cancel.cancelTarget = 12;
    parsed = parseRequest(requestLine(cancel), &error);
    ASSERT_TRUE(parsed) << requestLine(cancel) << ": " << error;
    EXPECT_EQ(parsed->cmd, Command::Cancel);
    EXPECT_EQ(parsed->cancelTarget, 12u);
}

TEST(Protocol, IdempotencyClassification)
{
    // Only shutdown mutates daemon state; everything else may be
    // safely re-sent after an ambiguous transport failure.
    EXPECT_TRUE(commandIsIdempotent(Command::Ping));
    EXPECT_TRUE(commandIsIdempotent(Command::Profile));
    EXPECT_TRUE(commandIsIdempotent(Command::Evaluate));
    EXPECT_TRUE(commandIsIdempotent(Command::Verify));
    EXPECT_TRUE(commandIsIdempotent(Command::Stats));
    EXPECT_TRUE(commandIsIdempotent(Command::Cancel));
    EXPECT_FALSE(commandIsIdempotent(Command::Shutdown));
}

TEST(Protocol, RejectionLineCarriesRetryHintAndBacklog)
{
    std::string line = rejectionResponseLine(
        7, ErrorCode::Overloaded,
        "admission queue full (64 jobs); retry with backoff", 135, 64);
    std::string error;
    auto doc = report::parseJson(line, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_DOUBLE_EQ(doc->numberOr("id", -1), 7.0);
    EXPECT_FALSE(doc->get("ok")->asBool());
    EXPECT_EQ(doc->stringOr("code", ""), "overloaded");
    EXPECT_DOUBLE_EQ(doc->numberOr("retry_after_ms", -1), 135.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("queued", -1), 64.0);
    EXPECT_NE(doc->stringOr("error", "").find("retry with backoff"),
              std::string::npos);
}

} // namespace
} // namespace daemon
} // namespace vpprof
