/**
 * @file
 * Author a user-defined benchmark against the public API: a string
 * search (Rabin-Karp style rolling hash) written with ProgramBuilder,
 * profiled, annotated, and evaluated — the same journey a user would
 * take to study value prediction on their own kernel.
 */

#include <cstdio>

#include "compiler/directive_inserter.hh"
#include "isa/program_builder.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/stride_predictor.hh"
#include "profile/profile_collector.hh"
#include "vm/machine.hh"

using namespace vpprof;

namespace
{

constexpr int64_t kText = 10000;
constexpr int64_t kNeedle = 20000;

/** Count occurrences of a 4-word needle in a text via rolling hash. */
Program
buildSearch()
{
    ProgramBuilder b("rabin-karp");
    // r1=i r2=n r3=rolling hash r4=needle hash r5=matches
    // Needle hash: h = (((p0*31+p1)*31)+p2)*31+p3.
    b.movi(R(3), 0);
    b.movi(R(6), 0);                 // j
    b.movi(R(7), 4);
    b.label("needle_hash");
    b.bge(R(6), R(7), "needle_done");
    b.muli(R(3), R(3), 31);
    b.ld(R(8), R(6), kNeedle);
    b.add(R(3), R(3), R(8));
    b.addi(R(6), R(6), 1);
    b.jmp("needle_hash");
    b.label("needle_done");
    b.mov(R(4), R(3));

    b.ld(R(2), R(0), 90);            // n
    b.movi(R(1), 0);
    b.movi(R(5), 0);
    b.subi(R(2), R(2), 3);           // last window start
    b.label("scan");
    b.bge(R(1), R(2), "done");
    // Window hash recomputed (keeps the example simple).
    b.movi(R(3), 0);
    b.movi(R(6), 0);
    b.label("win_hash");
    b.bge(R(6), R(7), "win_done");
    b.muli(R(3), R(3), 31);
    b.add(R(9), R(1), R(6));
    b.ld(R(8), R(9), kText);
    b.add(R(3), R(3), R(8));
    b.addi(R(6), R(6), 1);
    b.jmp("win_hash");
    b.label("win_done");
    b.bne(R(3), R(4), "no_match");
    b.addi(R(5), R(5), 1);
    b.label("no_match");
    b.addi(R(1), R(1), 1);
    b.jmp("scan");
    b.label("done");
    b.st(R(0), R(5), 80);            // match count
    b.halt();
    return b.build();
}

MemoryImage
buildInput(uint64_t variant)
{
    MemoryImage image;
    const int64_t n = 4000;
    image.store(90, n);
    // Needle "3 1 4 1"; text is a repeating alphabet with the needle
    // planted every 97 words.
    image.storeBlock(kNeedle, {3, 1, 4, 1});
    for (int64_t i = 0; i < n; ++i)
        image.store(kText + i, (i * (3 + static_cast<int64_t>(variant)))
                                   % 9);
    for (int64_t i = 0; i + 4 < n; i += 97) {
        image.store(kText + i + 0, 3);
        image.store(kText + i + 1, 1);
        image.store(kText + i + 2, 4);
        image.store(kText + i + 3, 1);
    }
    return image;
}

} // namespace

int
main()
{
    Program program = buildSearch();
    std::printf("custom workload '%s': %zu static instructions\n",
                program.name().c_str(), program.size());

    // Profile on a training input.
    ProfileCollector collector(program.name());
    {
        Machine m(program, buildInput(1));
        m.run(&collector);
    }
    ProfileImage image = collector.takeImage();

    // Annotate and report what the compiler decided.
    InserterConfig cfg;
    cfg.accuracyThresholdPercent = 80.0;
    InsertionStats stats = insertDirectives(program, image, cfg);
    std::printf("tagged %zu instructions (%zu stride, %zu "
                "last-value):\n\n%s\n",
                stats.tagged(), stats.taggedStride,
                stats.taggedLastValue,
                program.disassemble().c_str());

    // Evaluate the annotated program on a different input.
    ProfileClassifier cls;
    uint64_t taken = 0, correct = 0, matches = 0;
    PredictorConfig pcfg;
    pcfg.numEntries = 64;
    pcfg.associativity = 2;
    pcfg.counterBits = 0;
    StridePredictor predictor(pcfg);
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        if (!rec.writesReg)
            return;
        Prediction pred = predictor.predict(rec.pc, rec.directive);
        bool ok = pred.hit && pred.value == rec.value;
        if (pred.hit && cls.shouldPredict(rec.pc, rec.directive)) {
            ++taken;
            correct += ok ? 1 : 0;
        }
        predictor.update(rec.pc, rec.value, ok, rec.directive,
                         cls.shouldAllocate(rec.pc, rec.directive));
    });
    Machine m(program, buildInput(2));
    m.run(&sink);
    matches = static_cast<uint64_t>(m.memory().load(80));

    std::printf("evaluation input: %llu pattern matches found\n",
                static_cast<unsigned long long>(matches));
    std::printf("predictions taken: %llu, correct: %llu (%.1f%%)\n",
                static_cast<unsigned long long>(taken),
                static_cast<unsigned long long>(correct),
                taken ? 100.0 * static_cast<double>(correct) /
                            static_cast<double>(taken)
                      : 0.0);
    return 0;
}
