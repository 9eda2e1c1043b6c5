/**
 * @file
 * Offline trace analysis: capture a workload's dynamic trace to a
 * file once, then run several analyses from the file without
 * re-executing the program — profiling, windowed ILP, and the
 * dataflow critical path with and without a value-prediction oracle.
 * This is the workflow the paper ran on SHADE trace files.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "ilp/critical_path.hh"
#include "profile/profile_collector.hh"
#include "vm/trace_io.hh"

using namespace vpprof;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "m88ksim";
    WorkloadSuite suite;
    const Workload *workload = suite.find(name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", name);
        return 1;
    }

    // Capture once.
    std::string path = std::string("/tmp/vpprof_") + name + ".trace";
    {
        ColumnarTraceBuilder builder;
        runTrace(*workload, 0, &builder);
        ColumnarTrace trace = builder.take();
        TraceIoStatus st = writeColumnarTraceFile(path, trace);
        if (st != TraceIoStatus::Ok) {
            std::fprintf(stderr, "cannot write %s (%s)\n", path.c_str(),
                         traceIoStatusName(st));
            return 1;
        }
        std::printf("captured %llu records -> %s\n",
                    static_cast<unsigned long long>(trace.records),
                    path.c_str());
    }

    // Open once; every analysis below replays the same mapped file.
    TraceIoStatus st = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(path, &st);
    if (!reader) {
        std::fprintf(stderr, "cannot read %s (%s)\n", path.c_str(),
                     traceIoStatusName(st));
        return 1;
    }

    // Analysis 1: profile from the file.
    {
        ProfileCollector collector(name);
        reader->replay(&collector);
        const ProfileImage img = collector.takeImage();
        uint64_t attempts = 0, correct = 0;
        for (const auto &[pc, p] : img.entries()) {
            attempts += p.attempts;
            correct += p.correct;
        }
        std::printf("offline profile : %zu instructions, stride "
                    "accuracy %.1f%%\n",
                    img.size(),
                    100.0 * static_cast<double>(correct) /
                        static_cast<double>(attempts));
    }

    // Analysis 2: windowed ILP from the file.
    {
        DataflowEngine engine(IlpConfig{}, VpPolicy::None, nullptr);
        reader->replay(&engine);
        std::printf("windowed ILP    : %.2f (40-entry window)\n",
                    engine.result().ilp());
    }

    // Analysis 3: dataflow critical path, plain and collapsed.
    uint64_t plain_path = 0;
    {
        CriticalPathAnalyzer analyzer;
        reader->replay(&analyzer);
        CriticalPathResult r = analyzer.finish();
        plain_path = r.pathLength;
        std::printf("dataflow limit  : ILP %.2f (critical path "
                    "%llu)\n",
                    r.dataflowIlp(),
                    static_cast<unsigned long long>(r.pathLength));
        std::printf("hottest path pcs:");
        for (size_t i = 0; i < r.members.size() && i < 5; ++i) {
            std::printf(" %llu(x%llu)",
                        static_cast<unsigned long long>(
                            r.members[i].pc),
                        static_cast<unsigned long long>(
                            r.members[i].occurrences));
        }
        std::printf("\n");
    }
    {
        CriticalPathConfig cfg;
        cfg.collapseCorrectPredictions = true;
        CriticalPathAnalyzer analyzer(cfg);
        reader->replay(&analyzer);
        CriticalPathResult r = analyzer.finish();
        std::printf("with VP oracle  : ILP %.2f (path %llu, %.1fx "
                    "shorter)\n",
                    r.dataflowIlp(),
                    static_cast<unsigned long long>(r.pathLength),
                    static_cast<double>(plain_path) /
                        static_cast<double>(r.pathLength));
    }

    std::printf("\nValue prediction shortens the dataflow critical "
                "path itself — the\nmechanism by which the paper's "
                "Table 5.2 gains arise.\n");
    std::remove(path.c_str());
    return 0;
}
