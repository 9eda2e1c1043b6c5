/**
 * @file
 * The experiment layer: end-to-end pipelines implementing the paper's
 * three-phase methodology (Figure 3.1) and the evaluation protocols of
 * Sections 4 and 5.
 *
 * Protocol conventions used throughout the benches and tests:
 *  - Profiling (phase 2) runs the program on *training* inputs; the
 *    default evaluation protocol trains on every input set except the
 *    one being evaluated, then merges the training images — exactly
 *    the cross-input setting the paper argues profiling must survive.
 *  - Directive insertion (phase 3) rewrites a copy of the program; the
 *    original workload program stays untouched.
 */

#ifndef VPPROF_CORE_EXPERIMENT_HH
#define VPPROF_CORE_EXPERIMENT_HH

#include <cstdint>
#include <vector>

#include "compiler/directive_inserter.hh"
#include "ilp/dataflow_engine.hh"
#include "predictors/hybrid_predictor.hh"
#include "predictors/classifier.hh"
#include "predictors/value_predictor.hh"
#include "profile/profile_image.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace vpprof
{

class ProfileCollector;

/** Run input set `input_idx` of a workload, streaming into `sink`. */
RunResult runTrace(const Workload &workload, size_t input_idx,
                   TraceSink *sink);

/** Run an (possibly annotated) program on an input image. */
RunResult runProgram(const Program &program, const MemoryImage &image,
                     TraceSink *sink,
                     uint64_t max_insts = Machine::kDefaultMaxInsts);

/**
 * runProgram straight into a ProfileCollector: the VM loop is compiled
 * for the concrete collector (Machine::runInto), so its record()
 * inlines. Same span, counter and instruction-limit check as above.
 */
RunResult runProgram(const Program &program, const MemoryImage &image,
                     ProfileCollector &collector,
                     uint64_t max_insts = Machine::kDefaultMaxInsts);

/** Phase 2: collect the profile image of one run. */
ProfileImage collectProfile(const Workload &workload, size_t input_idx);

/** Profile images of an init/compute phase split (mgrid). */
struct PhasedProfiles
{
    ProfileImage init;
    ProfileImage compute;
};

/**
 * Phase 2 with a phase split: statistics before the first execution of
 * the workload's phaseSplitPc() go to `init`, the rest to `compute`.
 * Requires the workload to define a split pc.
 */
PhasedProfiles collectPhasedProfile(const Workload &workload,
                                    size_t input_idx);

/** All training input indices for an evaluation input (all others). */
std::vector<size_t> trainingInputsFor(const Workload &workload,
                                      size_t eval_idx);

/** Collect and merge profile images over several inputs. */
ProfileImage collectMergedProfile(const Workload &workload,
                                  const std::vector<size_t> &inputs);

/**
 * The full three-phase methodology: profile the training inputs, merge,
 * and return a copy of the program annotated at the given thresholds.
 */
Program annotatedProgram(const Workload &workload,
                         const std::vector<size_t> &train_inputs,
                         const InserterConfig &config);

/**
 * Classification-accuracy measurement of Subsection 5.1: an infinite
 * stride predictor attempts every value-producing instruction; the
 * classifier (FSM or profile-directive) rules each attempt in or out.
 */
struct ClassificationAccuracy
{
    uint64_t mispredictions = 0;          ///< attempts that were wrong
    uint64_t mispredictionsCaught = 0;    ///< ...classifier said "don't"
    uint64_t corrects = 0;                ///< attempts that were right
    uint64_t correctsAccepted = 0;        ///< ...classifier said "do"

    /** Figure 5.1 series: % of mispredictions classified correctly. */
    double
    mispredictionAccuracy() const
    {
        return mispredictions == 0
            ? 0.0 : 100.0 * static_cast<double>(mispredictionsCaught)
                        / static_cast<double>(mispredictions);
    }

    /** Figure 5.2 series: % of correct predictions accepted. */
    double
    correctAccuracy() const
    {
        return corrects == 0
            ? 0.0 : 100.0 * static_cast<double>(correctsAccepted)
                        / static_cast<double>(corrects);
    }
};

ClassificationAccuracy
evaluateClassification(const Program &program, const MemoryImage &image,
                       Classifier &classifier);

/**
 * Finite-table measurement of Subsection 5.2: a finite stride predictor
 * (the paper's 512-entry 2-way organization) driven either by per-entry
 * saturating counters with allocate-everything (VpPolicy::Fsm) or by
 * opcode directives with allocate-tagged-only (VpPolicy::Profile).
 */
struct FiniteTableStats
{
    uint64_t producers = 0;        ///< dynamic value-producing instrs
    uint64_t candidates = 0;       ///< dynamic allocation candidates
    uint64_t correctTaken = 0;     ///< consumed correct predictions
    uint64_t incorrectTaken = 0;   ///< consumed mispredictions
    uint64_t evictions = 0;        ///< LRU evictions in the table
};

FiniteTableStats
evaluateFiniteTable(const Program &program, const MemoryImage &image,
                    VpPolicy policy, const PredictorConfig &config);

/**
 * Abstract-machine ILP measurement of Subsection 5.3 (Table 5.2), over
 * one run: the dataflow engine with the given window/penalty and value
 * prediction policy.
 */
IlpResult evaluateIlp(const Program &program, const MemoryImage &image,
                      const IlpConfig &ilp_config, VpPolicy policy,
                      const PredictorConfig &predictor_config);

/**
 * Hybrid-table measurement (Section 3.2's proposal): a small stride
 * sub-table plus a larger last-value sub-table, steered and allocated
 * purely by opcode directives. Counts consumed predictions the same
 * way as evaluateFiniteTable so the two organizations are directly
 * comparable.
 */
FiniteTableStats
evaluateHybridTable(const Program &program, const MemoryImage &image,
                    const HybridConfig &config);

/** The paper's finite predictor organization: 512 entries, 2-way. */
PredictorConfig paperFiniteConfig(bool with_counters);

/** Infinite, counterless predictor configuration. */
PredictorConfig infiniteConfig();

} // namespace vpprof

#endif // VPPROF_CORE_EXPERIMENT_HH
