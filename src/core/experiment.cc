#include "core/experiment.hh"

#include "common/logging.hh"
#include "common/telemetry/telemetry.hh"
#include "core/evaluators.hh"
#include "core/session.hh"
#include "predictors/stride_predictor.hh"
#include "profile/profile_collector.hh"
#include "vm/machine_loop.hh"

namespace vpprof
{

// The workload-keyed pipelines delegate to the process-wide Session:
// each (workload, input) pair is interpreted at most once per process
// and replayed from the cached trace thereafter. The raw
// (Program, MemoryImage) evaluators below cannot be keyed, so they
// drive the Machine directly — through the same evaluator sinks the
// Session uses, so both paths share one measurement loop.

RunResult
runTrace(const Workload &workload, size_t input_idx, TraceSink *sink)
{
    return defaultSession().runTrace(workload, input_idx, sink);
}

namespace
{

/** One VM run: `run(machine)` picks the loop's sink. */
template <class Run>
RunResult
interpret(const Program &program, const MemoryImage &image,
          uint64_t max_insts, Run run)
{
    // One coarse span per VM run — never per instruction.
    VPPROF_TIMED_SPAN("vm.interpret");
    static const telemetry::Counter vm_runs("vm.runs");
    vm_runs.add();
    Machine machine(program, image);
    RunResult result = run(machine);
    if (!result.halted)
        vpprof_fatal("program '", program.name(),
                     "' hit the instruction limit (", max_insts, ")");
    return result;
}

} // namespace

RunResult
runProgram(const Program &program, const MemoryImage &image,
           TraceSink *sink, uint64_t max_insts)
{
    return interpret(program, image, max_insts, [&](Machine &machine) {
        return machine.run(sink, max_insts);
    });
}

RunResult
runProgram(const Program &program, const MemoryImage &image,
           ProfileCollector &collector, uint64_t max_insts)
{
    return interpret(program, image, max_insts, [&](Machine &machine) {
        return machine.runInto(collector, max_insts);
    });
}

ProfileImage
collectProfile(const Workload &workload, size_t input_idx)
{
    return defaultSession().collectProfile(workload, input_idx);
}

PhasedProfiles
collectPhasedProfile(const Workload &workload, size_t input_idx)
{
    return defaultSession().collectPhasedProfile(workload, input_idx);
}

std::vector<size_t>
trainingInputsFor(const Workload &workload, size_t eval_idx)
{
    std::vector<size_t> inputs;
    for (size_t i = 0; i < workload.numInputSets(); ++i) {
        if (i != eval_idx)
            inputs.push_back(i);
    }
    return inputs;
}

ProfileImage
collectMergedProfile(const Workload &workload,
                     const std::vector<size_t> &inputs)
{
    return defaultSession().collectMergedProfile(workload, inputs);
}

Program
annotatedProgram(const Workload &workload,
                 const std::vector<size_t> &train_inputs,
                 const InserterConfig &config)
{
    return defaultSession().annotatedProgram(workload, train_inputs,
                                             config);
}

ClassificationAccuracy
evaluateClassification(const Program &program, const MemoryImage &image,
                       Classifier &classifier)
{
    ClassificationEvaluator evaluator(classifier);
    runProgram(program, image, &evaluator);
    return evaluator.result();
}

FiniteTableStats
evaluateFiniteTable(const Program &program, const MemoryImage &image,
                    VpPolicy policy, const PredictorConfig &config)
{
    FiniteTableEvaluator evaluator(policy, config);
    runProgram(program, image, &evaluator);
    return evaluator.result();
}

IlpResult
evaluateIlp(const Program &program, const MemoryImage &image,
            const IlpConfig &ilp_config, VpPolicy policy,
            const PredictorConfig &predictor_config)
{
    StridePredictor predictor(predictor_config);
    DataflowEngine engine(ilp_config, policy,
                          policy == VpPolicy::None ? nullptr
                                                   : &predictor);
    runProgram(program, image, &engine);
    return engine.result();
}

FiniteTableStats
evaluateHybridTable(const Program &program, const MemoryImage &image,
                    const HybridConfig &config)
{
    HybridTableEvaluator evaluator(config);
    runProgram(program, image, &evaluator);
    return evaluator.result();
}

PredictorConfig
paperFiniteConfig(bool with_counters)
{
    PredictorConfig config;
    config.numEntries = 512;
    config.associativity = 2;
    config.counterBits = with_counters ? 2 : 0;
    config.counterInit = 1;
    return config;
}

PredictorConfig
infiniteConfig()
{
    PredictorConfig config;
    config.numEntries = 0;
    config.counterBits = 0;
    return config;
}

} // namespace vpprof
