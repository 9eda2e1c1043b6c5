#include "layers.hh"

#include <filesystem>
#include <map>

#include "common/logging.hh"
#include "common/telemetry/span.hh"
#include "compiler/directive_inserter.hh"
#include "core/experiment.hh"
#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "profile/profile_collector.hh"
#include "vm/machine.hh"
#include "vm/trace_block.hh"
#include "vm/trace_io.hh"

namespace vpbench
{

using namespace vpprof;
using namespace vpprof::daemon;

namespace
{

/** Decodes blocks and does nothing with them: the decode cost alone. */
class NullBlockSink : public TraceBlockSink
{
  public:
    void consumeBlock(const TraceBlockView &) override {}
};

/** The input every layer is timed on; evaluates use kThreshold. */
constexpr size_t kInput = 0;

/** Run `fn` inside a span named `name`; the seconds it took. */
template <typename Fn>
double
timed(const char *name, Fn &&fn)
{
    telemetry::Span span(name);
    const double t0 = nowS();
    fn();
    return nowS() - t0;
}

Request
jobRequest(Command cmd, const vpprof::Workload &w)
{
    Request req;
    req.cmd = cmd;
    req.workload = std::string(w.name());
    req.input = kInput;
    req.threshold = Traffic::kThreshold;
    return req;
}

void
mustSucceed(const JobOutcome &outcome, const Request &req)
{
    if (!outcome.ok)
        vpprof_fatal("vpbench: layer pass ", requestKey(req),
                     " failed: ", outcome.error);
}

} // namespace

std::vector<Metric>
layerPass(const WorkloadSuite &suite, const std::string &cache_dir,
          const std::string &scratch_dir)
{
    const auto &programs = suite.all();
    const double n = static_cast<double>(programs.size());

    SessionConfig cfg;
    cfg.jobs = 1;
    cfg.traceCacheDir = cache_dir;
    Session session(cfg);
    Dispatcher dispatcher(session, suite);

    // --- daemon/dispatch: Dispatcher::execute, as the daemon runs it.
    double first_s = 0, memo_s = 0, evaluate_s = 0, verify_s = 0;
    uint64_t vm_runs = 0, disk_loads = 0, replays = 0, blocks = 0;
    for (const auto &w : programs) {
        Request profile = jobRequest(Command::Profile, *w);
        TraceRepoStats s0 = session.traces().stats();
        first_s += timed("layer.dispatch.profile_first", [&] {
            mustSucceed(dispatcher.execute(profile), profile);
        });
        TraceRepoStats s1 = session.traces().stats();
        vm_runs += s1.vmRuns - s0.vmRuns;
        disk_loads += s1.diskLoads - s0.diskLoads;
        memo_s += timed("layer.dispatch.profile_memo", [&] {
            mustSucceed(dispatcher.execute(profile), profile);
        });

        // The first evaluate builds the merged training profile; the
        // daemon's steady state is the memoized second one.
        Request evaluate = jobRequest(Command::Evaluate, *w);
        mustSucceed(dispatcher.execute(evaluate), evaluate);
        s0 = session.traces().stats();
        evaluate_s += timed("layer.dispatch.evaluate", [&] {
            mustSucceed(dispatcher.execute(evaluate), evaluate);
        });
        s1 = session.traces().stats();
        replays += s1.replays - s0.replays;
        blocks += s1.v3BlocksDecoded - s0.v3BlocksDecoded;

        Request verify = jobRequest(Command::Verify, *w);
        verify_s += timed("layer.dispatch.verify", [&] {
            mustSucceed(dispatcher.execute(verify), verify);
        });
    }

    // --- core (session), predictors, profile, compiler: the pieces of
    // an evaluate, each over the now-resident traces.
    double count_s = 0, collect_s = 0, decode_s = 0, fsm_s = 0,
           prof_s = 0, annotate_s = 0;
    uint64_t records = 0;
    for (const auto &wp : programs) {
        const vpprof::Workload &w = *wp;
        CountingTraceSink counter;
        count_s += timed("layer.session.replay", [&] {
            session.runTrace(w, kInput, &counter);
        });
        records += counter.total();
        ProfileCollector collector{std::string(w.name())};
        collect_s += timed("layer.profile.collect", [&] {
            session.runTrace(w, kInput, &collector);
        });
        EvaluatorBank empty;
        decode_s += timed("layer.session.batch_decode", [&] {
            session.replayInto(w, kInput, empty);
        });
        SaturatingClassifier fsm;
        fsm_s += timed("layer.predictors.fsm", [&] {
            session.evaluateClassification(w, kInput, w.program(), fsm);
        });
        InserterConfig inserter;
        inserter.accuracyThresholdPercent = Traffic::kThreshold;
        Program annotated;
        annotate_s += timed("layer.compiler.annotate", [&] {
            annotated = session.annotatedProgram(
                w, trainingInputsFor(w, kInput), inserter);
        });
        ProfileClassifier prof;
        prof_s += timed("layer.predictors.profile", [&] {
            session.evaluateClassification(w, kInput, annotated, prof);
        });
    }
    const double recs = static_cast<double>(records);

    // --- vm and trace_io, outside any Session.
    double run_s = 0, capture_s = 0, write_s = 0, adopt_s = 0,
           raw_decode_s = 0;
    uint64_t run_insts = 0, captured = 0, bytes = 0;
    std::filesystem::create_directories(scratch_dir);
    for (const auto &wp : programs) {
        const vpprof::Workload &w = *wp;
        Machine machine(w.program(), w.input(kInput));
        RunResult result;
        run_s += timed("layer.vm.run", [&] {
            result = machine.run(nullptr, w.maxInstructions());
        });
        run_insts += result.instructionsExecuted;

        ColumnarTraceBuilder builder;
        capture_s += timed("layer.vm.capture", [&] {
            runProgram(w.program(), w.input(kInput), &builder,
                       w.maxInstructions());
        });
        ColumnarTrace trace = builder.take();
        captured += trace.records;
        bytes += trace.bytes.size();

        const std::string path = scratch_dir + "/layer.trace";
        write_s += timed("layer.trace_io.write", [&] {
            if (writeColumnarTraceFile(path, trace) != TraceIoStatus::Ok)
                vpprof_fatal("vpbench: cannot write ", path);
        });
        adopt_s += timed("layer.trace_io.adopt", [&] {
            TraceIoStatus status = TraceIoStatus::Ok;
            auto reader = TraceFileReader::tryOpen(path, &status);
            ColumnarTrace adopted;
            if (!reader || !reader->readColumnar(adopted) ||
                adopted.records != trace.records)
                vpprof_fatal("vpbench: cannot adopt ", path, " (",
                             traceIoStatusName(status), ")");
        });
        std::filesystem::remove(path);

        NullBlockSink null_sink;
        TraceBlockScratch scratch;
        raw_decode_s += timed("layer.trace_io.decode", [&] {
            replayColumnarTrace(trace, scratch, &null_sink);
        });
    }

    return {
        {"dispatch.profile_first_ms", first_s / n * 1e3, "ms"},
        {"dispatch.profile_memo_ms", memo_s / n * 1e3, "ms"},
        {"dispatch.evaluate_ms", evaluate_s / n * 1e3, "ms"},
        {"dispatch.verify_ms", verify_s / n * 1e3, "ms"},
        {"session.replay_mrec_s", recs / count_s / 1e6, "Mrec/s"},
        {"session.replays_per_job", static_cast<double>(replays) / n,
         "count"},
        {"session.blocks_decoded_per_job",
         static_cast<double>(blocks) / n, "count"},
        {"session.vm_runs", static_cast<double>(vm_runs), "count"},
        {"session.disk_loads", static_cast<double>(disk_loads), "count"},
        {"predictors.fsm_ns_per_rec", (fsm_s - decode_s) / recs * 1e9,
         "ns"},
        {"predictors.profile_ns_per_rec",
         (prof_s - decode_s) / recs * 1e9, "ns"},
        {"profile.collect_ns_per_rec", (collect_s - count_s) / recs * 1e9,
         "ns"},
        {"compiler.annotate_ms", annotate_s / n * 1e3, "ms"},
        {"vm.run_minst_s",
         static_cast<double>(run_insts) / run_s / 1e6, "Minst/s"},
        {"vm.capture_minst_s",
         static_cast<double>(captured) / capture_s / 1e6, "Minst/s"},
        {"trace_io.write_mb_s",
         static_cast<double>(bytes) / write_s / 1e6, "MB/s"},
        {"trace_io.adopt_ms", adopt_s / n * 1e3, "ms"},
        {"trace_io.decode_mrec_s",
         static_cast<double>(captured) / raw_decode_s / 1e6, "Mrec/s"},
    };
}

std::vector<Metric>
protocolPass(const Traffic &traffic, Mix workload, uint64_t sent,
             const ResultBook &book)
{
    std::map<std::string, std::string> fields;
    for (const auto &[req, result] : book.distinct())
        fields[requestKey(req)] = result.substr(1, result.size() - 2);
    const std::vector<Call> round = traffic.round(1);
    const uint64_t n = isRoundWorkload(workload)
                           ? round.size()
                           : std::min<uint64_t>(sent, 1000);
    std::vector<Request> requests;
    std::vector<std::string> result_fields;
    for (uint64_t i = 0; i < n; ++i) {
        Call call =
            isRoundWorkload(workload) ? round[i] : traffic.steady(i);
        if (call.req.cmd == Command::Stats)
            continue;
        call.req.id = i + 1;
        call.req.traceId = i + 1;
        result_fields.push_back(commandIsJob(call.req.cmd)
                                    ? fields[requestKey(call.req)]
                                    : "");
        requests.push_back(std::move(call.req));
    }

    // Enough calls that the clock's resolution is noise.
    constexpr size_t kCalls = 50'000;
    std::vector<std::string> lines;
    for (const Request &req : requests)
        lines.push_back(requestLine(req));
    if (lines.empty())
        vpprof_fatal("vpbench: protocol pass has no requests");

    size_t sink = 0;
    double t0 = nowS();
    for (size_t i = 0; i < kCalls; ++i) {
        std::string error;
        std::optional<Request> req =
            parseRequest(lines[i % lines.size()], &error);
        if (!req)
            vpprof_fatal("vpbench: own request line rejected: ", error);
        sink += req->id;
    }
    double parse_s = nowS() - t0;

    t0 = nowS();
    for (size_t i = 0; i < kCalls; ++i) {
        const Request &req = requests[i % requests.size()];
        sink += okResponseLine(req.id, req.cmd,
                               result_fields[i % requests.size()],
                               req.traceId)
                    .size();
    }
    double serialize_s = nowS() - t0;
    if (sink == 0)
        vpprof_fatal("vpbench: protocol pass did no work");

    return {
        {"protocol.parse_ns", parse_s / kCalls * 1e9, "ns"},
        {"protocol.serialize_ns", serialize_s / kCalls * 1e9, "ns"},
    };
}

} // namespace vpbench
