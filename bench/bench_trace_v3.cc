/**
 * @file
 * Trace format v3 gates. Three properties the columnar format must
 * hold to keep its place as the default cache format:
 *
 *  1. on-disk size: the delta/varint/dictionary columns compress the
 *     nine-workload corpus to at most half its v2 (fixed 39-byte
 *     record) size;
 *  2. decode throughput: the mmap + block-decode read path sustains a
 *     floor in records/second (a loose floor — CI machines vary);
 *  3. batch replay: fanning one decoded pass to K evaluators beats K
 *     serial v2 disk replays by at least 3x, the speedup the ablation
 *     sweeps were re-baselined on.
 *
 * The bench exits non-zero when a gate fails (CI runs it in the
 * release bench subset), emits shape-checkable rows for
 * `vpprof_cli verify`, and writes BENCH_trace_v3.json so the perf
 * gate pins the deterministic size/record counters.
 */

#include "bench_util.hh"

#include <filesystem>
#include <functional>

#include "vm/trace_io.hh"

using namespace vpprof;
using namespace vpprof::bench;

namespace
{

constexpr double kMaxSizeRatio = 0.5;       // v3 bytes / v2 bytes
constexpr double kMinSpeedup = 3.0;         // serial wall / batch wall
constexpr double kMinDecodeMrps = 5.0;      // million records/second

double
wallMsOf(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

uint64_t
fileSize(const std::string &path)
{
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (ec)
        vpprof_panic("missing bench trace file: ", path);
    return size;
}

/** Block-level consumer that only counts — pure decode cost. */
class CountingBlockSink : public TraceBlockSink
{
  public:
    void
    consumeBlock(const TraceBlockView &block) override
    {
        records_ += block.count;
        ++blocks_;
    }

    uint64_t records() const { return records_; }
    uint64_t blocks() const { return blocks_; }

  private:
    uint64_t records_ = 0;
    uint64_t blocks_ = 0;
};

/** Capture every workload's input-0 trace into `dir` in `format`. */
void
captureCorpus(const std::string &dir, const char *format_env)
{
    ::setenv("VPPROF_TRACE_FORMAT", format_env, 1);
    SessionConfig cfg;
    cfg.traceCacheDir = dir;
    Session capture(cfg);
    for (const auto &w : suite().all()) {
        CountingTraceSink counts;
        capture.runTrace(*w, 0, &counts);
    }
    ::unsetenv("VPPROF_TRACE_FORMAT");
}

} // namespace

int
main()
{
    banner("Trace v3 gates: on-disk size, decode throughput, batch "
           "replay speedup",
           "beyond the paper -- the columnar cache format's "
           "acceptance gates");

    const std::string base =
        std::filesystem::temp_directory_path().string() +
        "/vpprof_bench_trace_v3";
    const std::string dirV2 = base + "-v2";
    const std::string dirV3 = base + "-v3";
    std::filesystem::remove_all(dirV2);
    std::filesystem::remove_all(dirV3);

    // --- Corpus capture, both formats. -----------------------------
    captureCorpus(dirV2, "2");
    captureCorpus(dirV3, "3");

    // --- Gate 1: on-disk size over the nine-workload corpus. -------
    std::printf("%-10s %12s %12s %8s\n", "benchmark", "v2 bytes",
                "v3 bytes", "ratio");
    uint64_t total_v2 = 0, total_v3 = 0, total_records = 0;
    for (const auto &w : suite().all()) {
        std::string name(w->name());
        uint64_t v2 = fileSize(dirV2 + "/" + name + ".in0.trace");
        uint64_t v3 = fileSize(dirV3 + "/" + name + ".in0.trace");
        total_v2 += v2;
        total_v3 += v3;
        std::printf("%-10s %12llu %12llu %7.2fx\n", name.c_str(),
                    static_cast<unsigned long long>(v2),
                    static_cast<unsigned long long>(v3),
                    static_cast<double>(v3) / static_cast<double>(v2));
    }
    double size_ratio =
        static_cast<double>(total_v3) / static_cast<double>(total_v2);
    std::printf("%-10s %12llu %12llu %7.2fx  (gate: <= %.2fx)\n\n",
                "total", static_cast<unsigned long long>(total_v2),
                static_cast<unsigned long long>(total_v3), size_ratio,
                kMaxSizeRatio);

    // --- Gate 2: v3 block-decode throughput over the corpus. -------
    // Warm-up pass fills the page cache; the timed pass measures the
    // mmap + decode path alone (counting sink does no evaluator work).
    double decode_ms = 0.0;
    uint64_t decoded_records = 0, decoded_blocks = 0;
    for (int pass = 0; pass < 2; ++pass) {
        CountingBlockSink counts;
        TraceBlockScratch scratch;
        double ms = wallMsOf([&] {
            for (const auto &w : suite().all()) {
                TraceFileReader reader(dirV3 + "/" +
                                       std::string(w->name()) +
                                       ".in0.trace");
                uint64_t delivered = 0, blocks = 0;
                if (replayTraceSpan(reader.span(), 0, scratch, &counts,
                                    &delivered, &blocks) !=
                    TraceIoStatus::Ok)
                    vpprof_panic("v3 bench trace failed to decode: ",
                                 w->name());
            }
        });
        if (pass == 1) {
            decode_ms = ms;
            decoded_records = counts.records();
            decoded_blocks = counts.blocks();
        }
    }
    total_records = decoded_records;
    double decode_mrps = decode_ms <= 0.0
                             ? 0.0
                             : static_cast<double>(decoded_records) /
                                   (decode_ms * 1000.0);
    std::printf("decode: %llu records / %llu blocks in %.1f ms = "
                "%.1f Mrec/s  (gate: >= %.1f)\n\n",
                static_cast<unsigned long long>(decoded_records),
                static_cast<unsigned long long>(decoded_blocks),
                decode_ms, decode_mrps, kMinDecodeMrps);

    // --- Gate 3: batched vs serial replay, 16 evaluators on li. ----
    // Serial leg: the pre-v3 sweep shape — every evaluator streams the
    // v2 cache file from disk on its own, through a TraceFileReader (a
    // Session would transcode the file to v3 on adoption). Batch leg:
    // one EvaluatorBank pass over the mapped v3 file.
    constexpr size_t kEvaluators = 16;
    const Workload &li = *suite().find("li");
    auto geometry = [](size_t i) {
        PredictorConfig cfg;
        cfg.numEntries = 128u << (i % 4);
        return cfg;
    };

    std::vector<FiniteTableEvaluator> serial_evals, batch_evals;
    serial_evals.reserve(kEvaluators);
    batch_evals.reserve(kEvaluators);
    for (size_t i = 0; i < kEvaluators; ++i) {
        serial_evals.emplace_back(VpPolicy::Fsm, geometry(i));
        batch_evals.emplace_back(VpPolicy::Fsm, geometry(i));
    }

    double serial_ms = 0.0;
    {
        const std::string v2file = dirV2 + "/li.in0.trace";
        auto open = [&](TraceVerify verify) {
            auto reader = TraceFileReader::tryOpen(v2file, nullptr, verify);
            if (!reader)
                vpprof_panic("cannot open the v2 bench trace ", v2file);
            return reader;
        };
        {
            // Full verification once + page-cache warm-up; later
            // opens trust the proven file, as a cache reader does.
            CountingTraceSink warm;
            open(TraceVerify::Full)->replay(&warm);
        }
        serial_ms = wallMsOf([&] {
            for (FiniteTableEvaluator &eval : serial_evals)
                open(TraceVerify::HeaderOnly)->replay(&eval);
        });
    }

    double batch_ms = 0.0;
    {
        SessionConfig cfg;
        cfg.traceCacheDir = dirV3;
        Session v3session(cfg);
        {
            CountingTraceSink warm;
            v3session.runTrace(li, 0, &warm);
        }
        EvaluatorBank bank;
        for (FiniteTableEvaluator &eval : batch_evals)
            bank.addBlockSink(&eval);
        batch_ms =
            wallMsOf([&] { v3session.replayInto(li, 0, bank); });
    }

    // The batched pass must be a pure reorganization: every evaluator
    // ends bit-identical to its serially-fed twin.
    for (size_t i = 0; i < kEvaluators; ++i) {
        FiniteTableStats a = serial_evals[i].result();
        FiniteTableStats b = batch_evals[i].result();
        if (a.producers != b.producers ||
            a.candidates != b.candidates ||
            a.correctTaken != b.correctTaken ||
            a.incorrectTaken != b.incorrectTaken ||
            a.evictions != b.evictions)
            vpprof_panic("batch replay diverged from serial replay at "
                         "evaluator ",
                         i);
    }

    double speedup = batch_ms <= 0.0 ? 0.0 : serial_ms / batch_ms;
    std::printf("replay x%zu evaluators on li: serial(v2 disk) "
                "%.1f ms, batch(v3) %.1f ms = %.1fx  (gate: >= "
                "%.1fx)\n\n",
                kEvaluators, serial_ms, batch_ms, speedup, kMinSpeedup);

    // --- Report + gates. -------------------------------------------
    emitResult("trace_v3", "corpus/size_ratio", size_ratio,
               std::nullopt, "x");
    emitResult("trace_v3", "corpus/decode_mrps", decode_mrps,
               std::nullopt, "Mrec/s");
    emitResult("trace_v3", "li/batch_speedup_x16", speedup,
               std::nullopt, "x");
    flushResults("bench_trace_v3");

    std::ofstream json("BENCH_trace_v3.json", std::ios::trunc);
    json << "{\n"
         << "  \"bench_trace_v3\": {\n"
         << "    \"wall_ms\": " << (decode_ms + serial_ms + batch_ms)
         << ",\n"
         << "    \"records\": " << total_records << ",\n"
         << "    \"v2_bytes\": " << total_v2 << ",\n"
         << "    \"v3_bytes\": " << total_v3 << "\n"
         << "  }\n"
         << "}\n";
    json.close();
    std::printf("-> BENCH_trace_v3.json\n");

    std::filesystem::remove_all(dirV2);
    std::filesystem::remove_all(dirV3);

    bool ok = true;
    if (size_ratio > kMaxSizeRatio) {
        std::printf("FAIL: v3 corpus is %.2fx of v2 (gate <= %.2fx)\n",
                    size_ratio, kMaxSizeRatio);
        ok = false;
    }
    if (decode_mrps < kMinDecodeMrps) {
        std::printf("FAIL: decode %.1f Mrec/s (gate >= %.1f)\n",
                    decode_mrps, kMinDecodeMrps);
        ok = false;
    }
    if (speedup < kMinSpeedup) {
        std::printf("FAIL: batch speedup %.1fx (gate >= %.1fx)\n",
                    speedup, kMinSpeedup);
        ok = false;
    }
    std::printf("%s: size %.2fx, decode %.1f Mrec/s, batch %.1fx\n",
                ok ? "PASS" : "FAIL", size_ratio, decode_mrps, speedup);
    return ok ? 0 : 1;
}
