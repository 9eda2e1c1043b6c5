/**
 * @file
 * The daemon's `evaluate` against its reference path on every case of
 * the paper's threshold sweep: 9 programs x 5 inputs x thresholds
 * 90..50. The dispatcher runs the test input once through the VM into
 * both classifiers; the reference replays the key's captured trace
 * twice through Session::evaluateClassification, once per classifier.
 * The two must render byte-identical result fields, so a predictor or
 * classifier change that makes the VM-fed and replayed streams differ
 * fails here, on the case it breaks.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "report/json.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

constexpr double kThresholds[] = {90, 80, 70, 60, 50};

/** The `evaluate` result fields, rendered from two accuracies. */
std::string
evaluateFields(double threshold, const ClassificationAccuracy &fsm,
               const ClassificationAccuracy &prof)
{
    auto num = [](double v) { return report::formatJsonNumber(v); };
    std::ostringstream os;
    os << "\"threshold\": " << num(threshold)
       << ", \"fsm_misp_pct\": " << num(fsm.mispredictionAccuracy())
       << ", \"fsm_corr_pct\": " << num(fsm.correctAccuracy())
       << ", \"prof_misp_pct\": " << num(prof.mispredictionAccuracy())
       << ", \"prof_corr_pct\": " << num(prof.correctAccuracy());
    return os.str();
}

TEST(DispatchTwin, EvaluateEqualsTwoSessionReplaysOnEveryCase)
{
    WorkloadSuite suite;
    SessionConfig config;
    config.jobs = 4;
    Session session(config);
    Dispatcher dispatcher(session, suite);

    struct Key
    {
        const Workload *workload;
        size_t input;
    };
    std::vector<Key> keys;
    for (const auto &w : suite.all())
        for (size_t input = 0; input < w->numInputSets(); ++input)
            keys.push_back({w.get(), input});
    ASSERT_EQ(keys.size() * std::size(kThresholds), 225u);

    // One cell per key. The FSM ignores the threshold, so each key
    // replays it once; its profile replay runs per threshold. Each
    // cell's reference Session holds only its own key's trace.
    std::vector<std::string> mismatches(keys.size());
    session.runner().forEach(keys.size(), [&](size_t k) {
        const Workload &w = *keys[k].workload;
        const size_t input = keys[k].input;
        Session reference;
        SaturatingClassifier fsm;
        const ClassificationAccuracy fsm_acc =
            reference.evaluateClassification(w, input, w.program(), fsm);
        for (double threshold : kThresholds) {
            Request req;
            req.cmd = Command::Evaluate;
            req.workload = std::string(w.name());
            req.input = input;
            req.threshold = threshold;
            const JobOutcome outcome = dispatcher.execute(req);

            InserterConfig icfg;
            icfg.accuracyThresholdPercent = threshold;
            const Program annotated = session.annotatedProgram(
                w, trainingInputsFor(w, input), icfg);
            ProfileClassifier prof;
            const std::string expected = evaluateFields(
                threshold, fsm_acc,
                reference.evaluateClassification(w, input, annotated,
                                                 prof));
            if (!outcome.ok || outcome.resultFields != expected)
                mismatches[k] += "\n  threshold " +
                                 report::formatJsonNumber(threshold) +
                                 "\n    daemon:    " +
                                 (outcome.ok ? outcome.resultFields
                                             : outcome.error) +
                                 "\n    reference: " + expected;
        }
    });
    for (size_t k = 0; k < keys.size(); ++k)
        EXPECT_EQ(mismatches[k], "")
            << keys[k].workload->name() << " input " << keys[k].input;

    // The dispatcher's Session never touched its trace repository.
    const TraceRepoStats stats = session.traces().stats();
    EXPECT_EQ(stats.vmRuns, 0u);
    EXPECT_EQ(stats.replays, 0u);
    EXPECT_EQ(stats.uniqueTraces, 0u);
}

} // namespace
} // namespace daemon
} // namespace vpprof
