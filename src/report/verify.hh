/**
 * @file
 * The verify driver behind `vpprof_cli verify`: loads the golden
 * specs (the JSON files under golden/shape/) and perf baselines
 * (golden/perf/BENCH_*.json), the RESULTS_*.json and BENCH_*.json a
 * bench run produced, evaluates every shape rule and the perf gate,
 * and renders a pass/fail report with per-rule diagnostics.
 *
 * Partial runs are first-class: rules whose experiment produced no
 * rows are skipped (CI's quick legs run a bench subset), unless
 * `requireAll` demands the full suite (the nightly job). A rule whose
 * experiment ran but whose cell is missing always fails.
 */

#ifndef VPPROF_REPORT_VERIFY_HH
#define VPPROF_REPORT_VERIFY_HH

#include <string>
#include <vector>

#include "report/perf_gate.hh"
#include "report/shape_rules.hh"

namespace vpprof
{
namespace report
{

struct VerifyOptions
{
    std::string goldenDir;        ///< holds shape/ and perf/
    std::string resultsDir = "."; ///< holds RESULTS_* and BENCH_*
    bool requireAll = false;      ///< skipped rules become failures
    bool perfGate = true;         ///< run the BENCH_* comparison
    PerfGateConfig perf;
};

struct VerifyReport
{
    std::vector<RuleOutcome> rules;
    PerfGateReport perf;
    /** Setup problems: unreadable dirs, malformed specs/results. */
    std::vector<std::string> errors;
    bool requireAll = false;

    size_t rulesPassed = 0;
    size_t rulesFailed = 0;
    size_t rulesSkipped = 0;
    size_t resultRowsLoaded = 0;
    size_t resultFilesLoaded = 0;

    bool
    ok() const
    {
        return errors.empty() && rulesFailed == 0 && perf.ok() &&
               !(requireAll && rulesSkipped > 0);
    }
};

VerifyReport runVerify(const VerifyOptions &options);

/** Human-readable multi-line report (what the CLI prints). */
std::string renderVerifyReport(const VerifyReport &report);

} // namespace report
} // namespace vpprof

#endif // VPPROF_REPORT_VERIFY_HH
