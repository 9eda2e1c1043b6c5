#include "daemon/dispatch.hh"

#include <sstream>

#include "common/checksum.hh"
#include "common/telemetry/span.hh"
#include "core/batch_replay.hh"
#include "core/evaluators.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "vm/machine.hh"

namespace vpprof
{
namespace daemon
{

namespace
{

std::string
num(double v)
{
    return report::formatJsonNumber(v);
}

} // namespace

uint64_t
profileDigest(const ProfileImage &image)
{
    uint64_t sum = kFnv1a64Seed;
    for (const auto &[pc, p] : image.entries()) {
        sum = fnv1a64(&pc, sizeof(pc), sum);
        sum = fnv1a64(&p.executions, sizeof(p.executions), sum);
        sum = fnv1a64(&p.attempts, sizeof(p.attempts), sum);
        sum = fnv1a64(&p.correct, sizeof(p.correct), sum);
        sum = fnv1a64(&p.correctNonZeroStride,
                      sizeof(p.correctNonZeroStride), sum);
        sum = fnv1a64(&p.lastValueCorrect, sizeof(p.lastValueCorrect),
                      sum);
        sum = fnv1a64(&p.lastValueAttempts,
                      sizeof(p.lastValueAttempts), sum);
        uint8_t cls = static_cast<uint8_t>(p.opClass);
        sum = fnv1a64(&cls, 1, sum);
    }
    return sum;
}

JobOutcome
Dispatcher::execute(const Request &req)
{
    const Workload *w = suite_.find(req.workload);
    if (!w) {
        JobOutcome out;
        out.code = ErrorCode::UnknownWorkload;
        out.error = "unknown workload '" + req.workload + "'";
        return out;
    }
    if (req.input >= w->numInputSets()) {
        JobOutcome out;
        out.code = ErrorCode::BadInput;
        out.error = "input " + std::to_string(req.input) +
                    " out of range (workload has " +
                    std::to_string(w->numInputSets()) + " input sets)";
        return out;
    }

    switch (req.cmd) {
      case Command::Profile: return runProfile(*w, req);
      case Command::Evaluate: return runEvaluate(*w, req);
      case Command::Verify: return runVerify(*w, req);
      default: break;
    }
    JobOutcome out;
    out.code = ErrorCode::Internal;
    out.error = std::string("command '") + commandName(req.cmd) +
                "' dispatched as a job";
    return out;
}

JobOutcome
Dispatcher::runProfile(const Workload &w, const Request &req)
{
    const ProfileImage &image = session_.collectProfile(w, req.input);
    uint64_t attempts = 0, executions = 0;
    for (const auto &[pc, p] : image.entries()) {
        attempts += p.attempts;
        executions += p.executions;
    }
    std::ostringstream os;
    os << "\"profiled_pcs\": "
       << num(static_cast<double>(image.size()))
       << ", \"executions\": " << num(static_cast<double>(executions))
       << ", \"attempts\": " << num(static_cast<double>(attempts))
       << ", \"digest\": "
       << num(static_cast<double>(profileDigest(image) >> 11));
    // The digest is truncated to 53 bits so it survives the protocol's
    // double-typed numbers exactly (report/json numbers are doubles).
    JobOutcome out;
    out.ok = true;
    out.resultFields = os.str();
    return out;
}

JobOutcome
Dispatcher::runEvaluate(const Workload &w, const Request &req)
{
    InserterConfig cfg;
    cfg.accuracyThresholdPercent = req.threshold;
    Program annotated = session_.annotatedProgram(
        w, trainingInputsFor(w, req.input), cfg);

    // Section 5.1 compares both classifiers on the same run of the
    // test input, so one VM pass feeds both: no trace is captured or
    // replayed. Session::evaluateClassification is the reference path
    // these answers must equal (the twin test pins it).
    SaturatingClassifier fsm;
    ProfileClassifier prof;
    ClassificationEvaluator fsm_eval(fsm);
    ClassificationEvaluator prof_eval(prof);
    {
        VPPROF_TIMED_SPAN("eval.classification");
        EvaluatorBank bank;
        bank.addBlockSink(&fsm_eval, &w.program());
        bank.addBlockSink(&prof_eval, &annotated);
        BlockAssembler assembler(&bank);
        runProgram(w.program(), w.input(req.input), &assembler,
                   w.maxInstructions());
        assembler.flush();
    }
    const ClassificationAccuracy &fsm_acc = fsm_eval.result();
    const ClassificationAccuracy &prof_acc = prof_eval.result();

    std::ostringstream os;
    os << "\"threshold\": " << num(req.threshold)
       << ", \"fsm_misp_pct\": " << num(fsm_acc.mispredictionAccuracy())
       << ", \"fsm_corr_pct\": " << num(fsm_acc.correctAccuracy())
       << ", \"prof_misp_pct\": "
       << num(prof_acc.mispredictionAccuracy())
       << ", \"prof_corr_pct\": " << num(prof_acc.correctAccuracy());
    JobOutcome out;
    out.ok = true;
    out.resultFields = os.str();
    return out;
}

JobOutcome
Dispatcher::runVerify(const Workload &w, const Request &req)
{
    Machine machine(w.program(), w.input(req.input));
    RunResult result = machine.run(nullptr, w.maxInstructions());
    int64_t checksum = machine.memory().load(kChecksumAddr);
    int64_t expected = w.referenceChecksum(req.input);

    std::ostringstream os;
    os << "\"instructions\": "
       << num(static_cast<double>(result.instructionsExecuted))
       << ", \"halted\": " << (result.halted ? "true" : "false")
       << ", \"checksum\": " << num(static_cast<double>(checksum))
       << ", \"matches\": "
       << (checksum == expected ? "true" : "false");
    JobOutcome out;
    out.ok = true;
    out.resultFields = os.str();
    return out;
}

} // namespace daemon
} // namespace vpprof
