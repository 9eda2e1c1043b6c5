#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include <malloc.h>
#include <sys/resource.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/telemetry/span.hh"
#include "daemon/client.hh"
#include "report/json.hh"

namespace vpbench
{

using namespace vpprof;
using namespace vpprof::daemon;

namespace
{

/** A call that never answers inside this long counts as unanswered. */
constexpr int kCallTimeoutMs = 60'000;

/** The client span of a request class (span names must be literals). */
const char *
clientSpanName(Class cls)
{
    switch (cls) {
      case Class::Inline: return "client.inline";
      case Class::Light: return "client.light";
      case Class::Heavy: return "client.heavy";
    }
    return "client";
}

} // namespace

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
className(Class cls)
{
    switch (cls) {
      case Class::Inline: return "inline";
      case Class::Light: return "light";
      case Class::Heavy: return "heavy";
    }
    return "?";
}

const char *
workloadName(Mix w)
{
    switch (w) {
      case Mix::Interactive: return "interactive";
      case Mix::EvaluateSweep: return "evaluate_sweep";
      case Mix::ColdStart: return "cold_start";
      case Mix::Restart: return "restart";
    }
    return "?";
}

std::optional<Mix>
parseWorkload(const std::string &name)
{
    for (Mix w : {Mix::Interactive, Mix::EvaluateSweep,
                       Mix::ColdStart, Mix::Restart})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ull);
    return splitmix64(state);
}

// ------------------------------------------------------------------ //
//                             traffic                                //
// ------------------------------------------------------------------ //

Traffic::Traffic(Mix workload, uint64_t seed,
                 const WorkloadSuite &suite)
    : workload_(workload), seed_(seed)
{
    for (const auto &w : suite.all()) {
        programs_.emplace_back(w->name());
        inputs_ = w->numInputSets();
    }
    if (workload_ == Mix::EvaluateSweep) {
        for (const std::string &p : programs_) {
            for (size_t input = 0; input < inputs_; ++input) {
                for (double threshold : {90.0, 80.0, 70.0, 60.0, 50.0}) {
                    Call call;
                    call.req.cmd = Command::Evaluate;
                    call.req.workload = p;
                    call.req.input = input;
                    call.req.threshold = threshold;
                    call.cls = Class::Heavy;
                    sweep_.push_back(std::move(call));
                }
            }
        }
    }
}

Call
Traffic::profile(const std::string &workload, size_t input,
                 Class cls) const
{
    Call call;
    call.req.cmd = Command::Profile;
    call.req.workload = workload;
    call.req.input = input;
    call.cls = cls;
    return call;
}

Call
Traffic::steady(uint64_t index) const
{
    // Requests come in blocks that hold every program equally often,
    // each block in its own seeded order: the seed moves the order, not
    // the mix, so runs on different seeds do the same work. (Job costs
    // differ by program; a drawn mix would shift a run's throughput by
    // more than the bounds.)
    const size_t programs = programs_.size();
    if (workload_ == Mix::EvaluateSweep) {
        // A pass covers the 225 requests once: block b holds each
        // program's b-th (input, threshold) in that pass's order.
        const size_t per_program = sweep_.size() / programs;
        const uint64_t pass = index / sweep_.size();
        const uint64_t block = (index % sweep_.size()) / programs;
        std::vector<size_t> slots(programs);
        for (size_t p = 0; p < programs; ++p)
            slots[p] = p;
        shuffle(slots, mixSeed(seed_, 1000 + pass * per_program + block));
        const size_t p = slots[index % programs];
        std::vector<size_t> combos(per_program);
        for (size_t c = 0; c < per_program; ++c)
            combos[c] = c;
        shuffle(combos, mixSeed(seed_, 1'000'000 + pass * programs + p));
        return sweep_[p * per_program + combos[block]];
    }

    // interactive: per program, 1 ping, 1 stats, 2 memoized profile,
    // 2 evaluate@70 and 2 verify, all on input 0. This is the ratio of
    // the steady mix bench_daemon_throughput already gates (steadyCall),
    // spread over every program; it is not a capture of client traffic.
    static constexpr Command kPerProgram[] = {
        Command::Ping,     Command::Stats,    Command::Profile,
        Command::Profile,  Command::Evaluate, Command::Evaluate,
        Command::Verify,   Command::Verify};
    constexpr size_t kKinds = std::size(kPerProgram);
    const uint64_t block = index / (programs * kKinds);
    std::vector<size_t> order(programs * kKinds);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    shuffle(order, mixSeed(seed_, block));
    const size_t slot = order[index % order.size()];
    const std::string &program = programs_[slot / kKinds];
    Call call;
    call.req.cmd = kPerProgram[slot % kKinds];
    if (call.req.cmd == Command::Profile)
        return profile(program, 0, Class::Light);
    if (commandIsJob(call.req.cmd)) {
        call.req.workload = program;
        call.req.threshold = kThreshold;
        call.cls = Class::Heavy;
    }
    return call;
}

std::vector<Call>
Traffic::round(uint64_t round) const
{
    std::vector<Call> calls;
    for (const std::string &p : programs_)
        for (size_t input = 0; input < inputs_; ++input)
            calls.push_back(profile(p, input, Class::Heavy));
    shuffle(calls, mixSeed(seed_, 2000 + round));
    return calls;
}

// ------------------------------------------------------------------ //
//                              daemon                                //
// ------------------------------------------------------------------ //

Daemon::Daemon(const std::string &socket_path, const std::string &cache_dir)
{
    DaemonConfig cfg;
    cfg.socketPath = socket_path;
    cfg.session.jobs = 2;  // the vpprofd default
    cfg.session.traceCacheDir = cache_dir;
    cfg.shards = 1;
    // A closed loop keeps at most one request per connection in
    // flight; the quota must never be what answers it.
    cfg.maxInflightPerClient = 64;
    server_ = std::make_unique<DaemonServer>(std::move(cfg));
    std::string error;
    if (!server_->start(&error))
        vpprof_fatal("vpbench: daemon start failed: ", error);
    loop_ = std::thread([this] { server_->run(); });
}

Daemon::~Daemon()
{
    server_->requestShutdown();
    loop_.join();
}

// ------------------------------------------------------------------ //
//                          correctness book                          //
// ------------------------------------------------------------------ //

std::string
requestKey(const Request &req)
{
    return std::string(commandName(req.cmd)) + " " + req.workload + " " +
           std::to_string(req.input) + " " +
           report::formatJsonNumber(req.threshold);
}

std::string
resultObject(const std::string &response_line)
{
    // okResponseLine ends with `"result": {<fields>}}`.
    static const std::string kKey = "\"result\": ";
    size_t at = response_line.find(kKey);
    if (at == std::string::npos || response_line.size() < 2)
        return {};
    at += kKey.size();
    return response_line.substr(at, response_line.size() - 1 - at);
}

bool
ResultBook::check(const Request &req, const std::string &result)
{
    if (result.empty())
        return false;
    if (req.cmd == Command::Verify &&
        result.find("\"matches\": true") == std::string::npos)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        results_.try_emplace(requestKey(req), req, result);
    return inserted || it->second.second == result;
}

std::vector<std::pair<Request, std::string>>
ResultBook::distinct() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<Request, std::string>> out;
    for (const auto &[key, entry] : results_)
        out.push_back(entry);
    return out;
}

// ------------------------------------------------------------------ //
//                           closed loop                              //
// ------------------------------------------------------------------ //

void
Tally::merge(const Tally &other)
{
    sent += other.sent;
    ok += other.ok;
    okJobs += other.okJobs;
    rejected += other.rejected;
    errors += other.errors;
    unanswered += other.unanswered;
    wrong += other.wrong;
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
}

Tally
closedLoop(const std::string &socket_path,
           const std::function<std::optional<Call>(uint64_t)> &next,
           double deadline_s, uint64_t trace_base, ResultBook &book)
{
    std::atomic<uint64_t> cursor{0};
    std::atomic<bool> done{false};
    std::vector<Tally> per_conn(kConnections);
    double t0 = nowS();

    auto connection = [&](size_t conn) {
        Tally &tally = per_conn[conn];
        DaemonClient client;
        std::string error;
        if (!client.connect(socket_path, &error))
            vpprof_fatal("vpbench: connect failed: ", error);
        uint64_t request_id = 0;
        while (!done.load(std::memory_order_relaxed)) {
            if (nowS() >= deadline_s)
                break;
            uint64_t index = cursor.fetch_add(1);
            std::optional<Call> call = next(index);
            if (!call) {
                done.store(true, std::memory_order_relaxed);
                break;
            }
            Request req = call->req;
            req.id = ++request_id;
            req.traceId = trace_base + index + 1;

            Sample sample;
            sample.cmd = req.cmd;
            sample.cls = call->cls;
            CallResult r;
            {
                telemetry::ScopedTraceId scope(req.traceId);
                telemetry::Span span(clientSpanName(call->cls));
                sample.startS = nowS();
                r = client.call(requestLine(req), req.id, kCallTimeoutMs);
                sample.endS = nowS();
            }
            ++tally.sent;

            if (r.ok) {
                bool right =
                    r.response.numberOr("trace_id", 0) ==
                    static_cast<double>(req.traceId);
                if (right && commandIsJob(req.cmd))
                    right = book.check(req, resultObject(r.raw));
                if (right) {
                    sample.ok = true;
                    ++tally.ok;
                    if (commandIsJob(req.cmd))
                        ++tally.okJobs;
                } else {
                    ++tally.wrong;
                }
            } else if (r.reason == CallReason::DaemonError) {
                if (r.code == "overloaded" || r.code == "quota" ||
                    r.code == "draining")
                    ++tally.rejected;
                else
                    ++tally.errors;
            } else {
                ++tally.unanswered;
                // The connection state is unknown; start a clean one.
                if (!client.reconnect(&error))
                    vpprof_fatal("vpbench: reconnect failed: ", error);
            }
            tally.samples.push_back(sample);
        }
    };

    std::vector<std::thread> threads;
    for (size_t conn = 0; conn < kConnections; ++conn)
        threads.emplace_back(connection, conn);
    for (std::thread &t : threads)
        t.join();

    Tally total;
    for (const Tally &t : per_conn)
        total.merge(t);
    total.seconds = nowS() - t0;
    return total;
}

// ------------------------------------------------------------------ //
//                            statistics                              //
// ------------------------------------------------------------------ //

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double
heapInUseMb()
{
    struct mallinfo2 info = ::mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) / 1e6;
}

} // namespace vpbench
