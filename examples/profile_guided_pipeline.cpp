/**
 * @file
 * The full three-phase methodology of Figure 3.1 on one benchmark:
 *
 *   phase 1: ordinary compilation (the workload's fixed program);
 *   phase 2: profiling runs on training inputs -> profile image file;
 *   phase 3: the compiler inserts "stride"/"last-value" directives.
 *
 * Then the annotated binary runs on an unseen evaluation input and the
 * profile-guided classifier is compared with the hardware-only
 * saturating-counter classifier.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"

using namespace vpprof;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "go";
    WorkloadSuite suite;
    const Workload *workload = suite.find(name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", name);
        return 1;
    }

    std::printf("=== phase 1: compiled program '%s' (%zu static "
                "instructions, %zu value producers)\n",
                name, workload->program().size(),
                workload->program().countValueProducers());

    // Phase 2: profile on the training inputs (all but input 0).
    std::vector<size_t> train = trainingInputsFor(*workload, 0);
    ProfileImage image = collectMergedProfile(*workload, train);
    std::string profile_path = std::string("/tmp/vpprof_") + name +
                               ".profile";
    image.saveFile(profile_path);
    std::printf("=== phase 2: profiled %zu training runs -> %s "
                "(%zu instructions profiled)\n",
                train.size(), profile_path.c_str(), image.size());

    // Phase 3: the compiler inserts directives at threshold 90%.
    InserterConfig cfg;
    cfg.accuracyThresholdPercent = 90.0;
    Program annotated = workload->program();
    ProfileImage reloaded = ProfileImage::loadFile(profile_path);
    InsertionStats stats = insertDirectives(annotated, reloaded, cfg);
    std::printf("=== phase 3: tagged %zu of %zu producers "
                "(%zu stride, %zu last-value)\n",
                stats.tagged(), stats.producers, stats.taggedStride,
                stats.taggedLastValue);
    std::remove(profile_path.c_str());  // the round trip is done

    // Evaluate on the unseen input 0.
    SaturatingClassifier fsm;
    ClassificationAccuracy fsm_acc = evaluateClassification(
        workload->program(), workload->input(0), fsm);
    ProfileClassifier prof;
    ClassificationAccuracy prof_acc =
        evaluateClassification(annotated, workload->input(0), prof);

    std::printf("\n%-34s %12s %12s\n", "classifier quality (input 0)",
                "FSM", "profile@90");
    std::printf("%-34s %11.1f%% %11.1f%%\n",
                "mispredictions caught",
                fsm_acc.mispredictionAccuracy(),
                prof_acc.mispredictionAccuracy());
    std::printf("%-34s %11.1f%% %11.1f%%\n",
                "correct predictions accepted",
                fsm_acc.correctAccuracy(), prof_acc.correctAccuracy());

    // And the bottom line: ILP on the paper's abstract machine.
    IlpConfig machine_cfg;
    IlpResult base = evaluateIlp(workload->program(),
                                 workload->input(0), machine_cfg,
                                 VpPolicy::None, infiniteConfig());
    IlpResult fsm_ilp = evaluateIlp(workload->program(),
                                    workload->input(0), machine_cfg,
                                    VpPolicy::Fsm,
                                    paperFiniteConfig(true));
    IlpResult prof_ilp = evaluateIlp(annotated, workload->input(0),
                                     machine_cfg, VpPolicy::Profile,
                                     paperFiniteConfig(false));
    std::printf("\nILP (window=40, penalty=1):\n");
    std::printf("  no value prediction : %.3f\n", base.ilp());
    std::printf("  VP + FSM            : %.3f (+%.1f%%)\n",
                fsm_ilp.ilp(),
                100.0 * (fsm_ilp.ilp() / base.ilp() - 1.0));
    std::printf("  VP + profile@90     : %.3f (+%.1f%%)\n",
                prof_ilp.ilp(),
                100.0 * (prof_ilp.ilp() / base.ilp() - 1.0));
    return 0;
}
