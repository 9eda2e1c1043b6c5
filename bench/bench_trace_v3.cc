/**
 * @file
 * Trace format v3 gates. Five properties the columnar format must
 * hold as the only cache format, and a sixth on the VM that feeds it:
 *
 *  1. on-disk size: the delta/varint/dictionary columns compress the
 *     nine-workload corpus to at most half the size of a fixed-width
 *     record stream (the retired v2 layout: 16-byte header, 39 bytes
 *     per record, 8-byte trailer);
 *  2. decode throughput: the mmap + block-decode read path sustains a
 *     floor in records/second (a loose floor — CI machines vary);
 *  3. batch replay decodes once: fanning one decoded pass to K
 *     evaluators decodes each block of the file exactly once, where K
 *     serial record-at-a-time replays decode it K times, and every
 *     evaluator ends bit-identical to its serial twin;
 *  4. profile collection costs less than decoding: the collector's
 *     own ns/record (a replay into a ProfileCollector minus a replay
 *     into a sink that does nothing) over the decode ns/record of
 *     gate 2, a ratio measured in one run, so it holds on any machine;
 *  5. capture encoding costs at most 2.5x decoding: the block
 *     encoder's own ns/record (TraceBlockEncoder::add/flush timed
 *     alone over the corpus's decoded records, each block re-encoding
 *     to its on-disk bytes) over gate 2's decode ns/record, again a
 *     same-run ratio;
 *  6. the VM stays within 12x of native code: the best of 5
 *     Machine::run(nullptr) passes over all 45 (program, input) keys
 *     over the best of 5 passes of the same keys' native
 *     referenceChecksum, interleaved, so machine speed cancels. It
 *     times the interpreter alone. This gate is not about the trace
 *     format: it lives here because this is the release leg's bench
 *     that already times VM passes, and when the trace subsystem and
 *     this bench are deleted it moves to the bench that takes over
 *     the VM timings rather than going with them.
 *
 * Two rows are reported without a gate: the batch speedup over the
 * serial replays (`li/batch_speedup_x16`) and the cost of a Full
 * checksum verification relative to a verified-once replay
 * (`li/full_verify_pct`).
 *
 * The bench exits non-zero when a gate fails (CI runs it in the
 * release bench subset), emits shape-checkable rows for
 * `vpprof_cli verify`, and writes BENCH_trace_v3.json so the perf
 * gate pins the deterministic size/record counters.
 */

#include "bench_util.hh"

#include <algorithm>
#include <filesystem>
#include <functional>

#include "profile/profile_collector.hh"
#include "vm/machine.hh"
#include "vm/trace_io.hh"

using namespace vpprof;
using namespace vpprof::bench;

namespace
{

constexpr double kMaxSizeRatio = 0.5;    // v3 bytes / fixed-width bytes
constexpr double kMinDecodeMrps = 5.0;   // million records/second
constexpr int kDecodeTimings = 5;        // best-of for decode_mrps
constexpr int kVerifyTimings = 7;        // best-of for full_verify_pct
constexpr double kMaxCollectVsDecode = 1.0;  // collector / decode ns
constexpr int kCollectTimings = 5;       // best-of for collect_vs_decode
constexpr double kMaxEncodeVsDecode = 2.5;  // encoder / decode ns
constexpr int kEncodeTimings = 5;        // best-of per encoded block
constexpr double kMaxVmOverNative = 12.0;  // VM / native wall time
constexpr int kVmTimings = 5;            // best-of for vm_over_native

/** Size of `records` records as a fixed-width (v2 layout) file. */
uint64_t
fixedWidthBytes(uint64_t records)
{
    return 16 + 39 * records + 8;
}

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

/** Capture every workload's input-0 trace into `dir`. */
void
captureCorpus(const std::string &dir)
{
    SessionConfig cfg;
    cfg.traceCacheDir = dir;
    Session capture(cfg);
    for (const auto &w : suite().all()) {
        CountingTraceSink counts;
        capture.runTrace(*w, 0, &counts);
    }
}

/** Open a committed bench trace file; panics when it is unusable. */
std::unique_ptr<TraceFileReader>
openTrace(const std::string &path, TraceVerify verify)
{
    TraceIoStatus st = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(path, &st, verify);
    if (!reader)
        vpprof_panic("cannot open bench trace ", path, ": ",
                     traceIoStatusName(st));
    return reader;
}

} // namespace

int
main()
{
    banner("Trace v3 gates: on-disk size, decode throughput, batch "
           "replay speedup",
           "beyond the paper -- the columnar cache format's "
           "acceptance gates");

    const std::string dirV3 =
        std::filesystem::temp_directory_path().string() +
        "/vpprof_bench_trace_v3";
    std::filesystem::remove_all(dirV3);
    captureCorpus(dirV3);

    // --- Gate 1: on-disk size over the nine-workload corpus. -------
    std::printf("%-10s %12s %12s %8s\n", "benchmark", "fixed bytes",
                "v3 bytes", "ratio");
    uint64_t total_fixed = 0, total_v3 = 0, total_records = 0;
    for (const auto &w : suite().all()) {
        std::string path =
            dirV3 + "/" + std::string(w->name()) + ".in0.trace";
        uint64_t fixed = fixedWidthBytes(
            openTrace(path, TraceVerify::HeaderOnly)->recordCount());
        uint64_t v3 = fileSize(path);
        total_fixed += fixed;
        total_v3 += v3;
        std::printf("%-10s %12llu %12llu %7.2fx\n",
                    std::string(w->name()).c_str(),
                    static_cast<unsigned long long>(fixed),
                    static_cast<unsigned long long>(v3),
                    static_cast<double>(v3) / static_cast<double>(fixed));
    }
    double size_ratio =
        static_cast<double>(total_v3) / static_cast<double>(total_fixed);
    std::printf("%-10s %12llu %12llu %7.2fx  (gate: <= %.2fx)\n\n",
                "total", static_cast<unsigned long long>(total_fixed),
                static_cast<unsigned long long>(total_v3), size_ratio,
                kMaxSizeRatio);

    // --- Gate 2: v3 block-decode throughput over the corpus. -------
    // Warm-up pass fills the page cache; the timed passes (best of
    // kDecodeTimings) measure the mmap + decode path alone: the files
    // open HeaderOnly, as a repository replays a file it has verified
    // once (the Full pass is priced by li/full_verify_pct), and the
    // counting sink does no evaluator work. Gates 4 and 5 divide by
    // this decode cost.
    double decode_ms = 0.0;
    uint64_t decoded_records = 0, decoded_blocks = 0;
    for (int pass = 0; pass <= kDecodeTimings; ++pass) {
        CountingBlockSink counts;
        TraceBlockScratch scratch;
        double ms = wallMsOf([&] {
            for (const auto &w : suite().all()) {
                auto reader = openTrace(dirV3 + "/" +
                                            std::string(w->name()) +
                                            ".in0.trace",
                                        TraceVerify::HeaderOnly);
                uint64_t delivered = 0, blocks = 0;
                if (replayTraceSpan(reader->span(), 0, scratch, &counts,
                                    &delivered, &blocks,
                                    w->program().size()) !=
                    TraceIoStatus::Ok)
                    vpprof_panic("v3 bench trace failed to decode: ",
                                 w->name());
            }
        });
        if (pass == 0)
            continue;
        decode_ms = pass == 1 ? ms : std::min(decode_ms, ms);
        decoded_records = counts.records();
        decoded_blocks = counts.blocks();
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

    // --- Gate 4: the collector's cost per record against decode's. --
    // Both legs replay the adopted corpus through one Session (so both
    // pay the same decode and record assembly); their difference is
    // the collector's own work. Best of interleaved runs. The baseline
    // sink does nothing: CountingTraceSink's five op-class branches
    // cost more per record than the collector itself (the difference
    // read -0.08x to -0.18x against it), so it would hide the cost
    // this gate measures.
    double empty_ms = 0.0, collect_ms = 0.0;
    {
        SessionConfig corpusCfg;
        corpusCfg.traceCacheDir = dirV3;
        Session corpus(corpusCfg);
        for (const auto &w : suite().all()) {
            CountingTraceSink adopt;  // adopt each file, warm its pages
            corpus.runTrace(*w, 0, &adopt);
        }
        for (int i = 0; i < kCollectTimings; ++i) {
            double empty = wallMsOf([&] {
                for (const auto &w : suite().all()) {
                    CallbackTraceSink nothing{[](const TraceRecord &) {}};
                    corpus.runTrace(*w, 0, &nothing);
                }
            });
            double collect = wallMsOf([&] {
                for (const auto &w : suite().all()) {
                    ProfileCollector collector{std::string(w->name())};
                    corpus.runTrace(*w, 0, &collector);
                }
            });
            empty_ms = i == 0 ? empty : std::min(empty_ms, empty);
            collect_ms = i == 0 ? collect : std::min(collect_ms, collect);
        }
    }
    const double records_d = static_cast<double>(decoded_records);
    const double decode_ns = decode_ms * 1e6 / records_d;
    const double collect_ns = (collect_ms - empty_ms) * 1e6 / records_d;
    const double collect_vs_decode =
        decode_ns <= 0.0 ? 0.0 : collect_ns / decode_ns;
    std::printf("collect: %.1f ns/record over an empty replay, decode "
                "%.1f ns/record = %.2fx  (gate: <= %.2fx)\n\n",
                collect_ns, decode_ns, collect_vs_decode,
                kMaxCollectVsDecode);

    // --- Gate 5: the capture encoder's cost per record against
    // decode's. Each block of the corpus is decoded and its records
    // assembled outside the clock; the clock covers only the encoder's
    // add() of those records and the flush() of the block, best of
    // kEncodeTimings per block (so host noise on one block does not
    // reach the sum). The re-encoded block must equal the file's bytes:
    // the capture encoder wrote them from the same records.
    double encode_ms = 0.0;
    {
        TraceBlockEncoder encoder;
        TraceBlockScratch scratch;
        std::vector<TraceRecord> records;
        std::vector<uint8_t> encoded;
        for (const auto &w : suite().all()) {
            auto reader = openTrace(dirV3 + "/" + std::string(w->name()) +
                                        ".in0.trace",
                                    TraceVerify::HeaderOnly);
            ColumnarSpan span = reader->span();
            const uint8_t *data = span.data;
            size_t remaining = span.size;
            while (remaining > 0) {
                TraceBlockView view;
                size_t consumed = 0;
                if (decodeTraceBlock(data, remaining, scratch, view,
                                     &consumed, false) !=
                    TraceBlockStatus::Ok)
                    vpprof_panic("v3 bench trace failed to decode: ",
                                 w->name());
                records.clear();
                for (uint32_t i = 0; i < view.count; ++i)
                    records.push_back(view.record(i));
                double best = 0.0;
                for (int i = 0; i < kEncodeTimings; ++i) {
                    encoded.clear();
                    double ms = wallMsOf([&] {
                        for (const TraceRecord &rec : records)
                            encoder.add(rec);
                        encoder.flush(encoded);
                    });
                    best = i == 0 ? ms : std::min(best, ms);
                }
                if (encoded.size() != consumed ||
                    !std::equal(encoded.begin(), encoded.end(), data))
                    vpprof_panic("re-encoded block differs from the "
                                 "captured bytes: ", w->name());
                encode_ms += best;
                data += consumed;
                remaining -= consumed;
            }
        }
    }
    const double encode_ns = encode_ms * 1e6 / records_d;
    const double encode_vs_decode =
        decode_ns <= 0.0 ? 0.0 : encode_ns / decode_ns;
    std::printf("encode: %.1f ns/record (encoder alone), decode "
                "%.1f ns/record = %.2fx  (gate: <= %.2fx)\n\n",
                encode_ns, decode_ns, encode_vs_decode,
                kMaxEncodeVsDecode);

    // --- Gate 3: batched vs serial replay, 16 evaluators on li. ----
    // Both legs replay the mapped v3 file through one Session. Serial
    // leg: every evaluator takes its own record-at-a-time replay.
    // Batch leg: one EvaluatorBank pass decodes each block once.
    constexpr size_t kEvaluators = 16;
    const Workload &li = *suite().find("li");
    const std::string liFile = dirV3 + "/li.in0.trace";
    const uint64_t li_blocks =
        openTrace(liFile, TraceVerify::HeaderOnly)->blockCount();
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

    SessionConfig cfg;
    cfg.traceCacheDir = dirV3;
    Session session(cfg);
    {
        // Adopt (Full verification) and warm the page cache.
        CountingTraceSink warm;
        session.runTrace(li, 0, &warm);
    }
    auto blocksDecoded = [&] {
        return session.traces().stats().v3BlocksDecoded;
    };

    uint64_t before = blocksDecoded();
    double serial_ms = wallMsOf([&] {
        for (FiniteTableEvaluator &eval : serial_evals)
            session.runTrace(li, 0, &eval);
    });
    const uint64_t serial_blocks = blocksDecoded() - before;

    EvaluatorBank bank;
    for (FiniteTableEvaluator &eval : batch_evals)
        bank.addBlockSink(&eval);
    before = blocksDecoded();
    double batch_ms = wallMsOf([&] { session.replayInto(li, 0, bank); });
    const uint64_t batch_blocks = blocksDecoded() - before;

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
    double batch_passes = static_cast<double>(batch_blocks) /
                          static_cast<double>(li_blocks);
    double serial_passes = static_cast<double>(serial_blocks) /
                           static_cast<double>(li_blocks);
    std::printf("replay x%zu evaluators on li (%llu blocks): serial "
                "%.1f ms / %llu blocks decoded, batch %.1f ms / %llu "
                "blocks decoded = %.1fx\n",
                kEvaluators, static_cast<unsigned long long>(li_blocks),
                serial_ms, static_cast<unsigned long long>(serial_blocks),
                batch_ms, static_cast<unsigned long long>(batch_blocks),
                speedup);

    // --- Full verification cost: a checksummed open + replay against
    // the same replay from a file already proven (HeaderOnly), best of
    // interleaved runs so page-cache drift hits both sides alike.
    auto replayFile = [&](TraceVerify verify) {
        return wallMsOf([&] {
            auto reader = openTrace(liFile, verify);
            CountingTraceSink counts;
            reader->replay(&counts);
            if (reader->status() != TraceIoStatus::Ok)
                vpprof_panic("bench trace replay failed: ", liFile);
        });
    };
    double full_ms = 0.0, header_only_ms = 0.0;
    for (int i = 0; i < kVerifyTimings; ++i) {
        double full = replayFile(TraceVerify::Full);
        double header_only = replayFile(TraceVerify::HeaderOnly);
        full_ms = i == 0 ? full : std::min(full_ms, full);
        header_only_ms =
            i == 0 ? header_only : std::min(header_only_ms, header_only);
    }
    double full_verify_pct =
        header_only_ms <= 0.0
            ? 0.0
            : 100.0 * (full_ms - header_only_ms) / header_only_ms;
    std::printf("li replay: Full verify %.1f ms, verified-once %.1f ms "
                "= %+.1f%%\n\n",
                full_ms, header_only_ms, full_verify_pct);

    // --- Gate 6: the VM against native code on every key. ---------
    // Each round times one Machine::run(nullptr) pass over the 45
    // keys, each machine built outside the clock (a run's set-up is
    // not interpretation), then one pass of the same keys' native
    // referenceChecksum; best of kVmTimings rounds per side. Every VM
    // run must leave the native checksum in memory.
    std::vector<std::pair<const Workload *, size_t>> keys;
    for (const auto &w : suite().all()) {
        for (size_t i = 0; i < w->numInputSets(); ++i)
            keys.emplace_back(w.get(), i);
    }
    double vm_ms = 0.0, native_ms = 0.0;
    uint64_t vm_insts = 0;
    for (int round = 0; round < kVmTimings; ++round) {
        double vm = 0.0;
        std::vector<int64_t> vm_sums;
        vm_insts = 0;
        for (const auto &[w, i] : keys) {
            Machine machine(w->program(), w->input(i));
            vm += wallMsOf([&] {
                vm_insts += machine.run(nullptr, w->maxInstructions())
                                .instructionsExecuted;
            });
            vm_sums.push_back(machine.memory().load(kChecksumAddr));
        }
        std::vector<int64_t> native_sums;
        double native = wallMsOf([&] {
            for (const auto &[w, i] : keys)
                native_sums.push_back(w->referenceChecksum(i));
        });
        if (vm_sums != native_sums)
            vpprof_panic("a VM checksum differs from native code");
        vm_ms = round == 0 ? vm : std::min(vm_ms, vm);
        native_ms = round == 0 ? native : std::min(native_ms, native);
    }
    const double vm_over_native =
        native_ms <= 0.0 ? 0.0 : vm_ms / native_ms;
    std::printf("vm: %llu instructions in %.1f ms = %.2f ns/inst, "
                "native %.1f ms = %.2fx  (gate: <= %.1fx)\n\n",
                static_cast<unsigned long long>(vm_insts), vm_ms,
                vm_ms * 1e6 / static_cast<double>(vm_insts), native_ms,
                vm_over_native, kMaxVmOverNative);

    // --- Report + gates. -------------------------------------------
    emitResult("trace_v3", "corpus/size_ratio", size_ratio,
               std::nullopt, "x");
    emitResult("trace_v3", "corpus/decode_mrps", decode_mrps,
               std::nullopt, "Mrec/s");
    emitResult("trace_v3", "corpus/collect_vs_decode_x",
               collect_vs_decode, std::nullopt, "x");
    emitResult("trace_v3", "corpus/encode_vs_decode_x", encode_vs_decode,
               std::nullopt, "x");
    emitResult("trace_v3", "corpus/vm_over_native_x", vm_over_native,
               std::nullopt, "x");
    emitResult("trace_v3", "li/batch_decode_passes", batch_passes,
               std::nullopt, "x");
    emitResult("trace_v3", "li/serial_decode_passes", serial_passes,
               std::nullopt, "x");
    emitResult("trace_v3", "li/batch_speedup_x16", speedup,
               std::nullopt, "x");
    emitResult("trace_v3", "li/full_verify_pct", full_verify_pct,
               std::nullopt, "%");
    flushResults("bench_trace_v3");

    std::ofstream json("BENCH_trace_v3.json", std::ios::trunc);
    json << "{\n"
         << "  \"bench_trace_v3\": {\n"
         << "    \"wall_ms\": " << (decode_ms + serial_ms + batch_ms)
         << ",\n"
         << "    \"records\": " << total_records << ",\n"
         // The fixed-width size keeps its historical key.
         << "    \"v2_bytes\": " << total_fixed << ",\n"
         << "    \"v3_bytes\": " << total_v3 << "\n"
         << "  }\n"
         << "}\n";
    json.close();
    std::printf("-> BENCH_trace_v3.json\n");

    std::filesystem::remove_all(dirV3);

    bool ok = true;
    if (size_ratio > kMaxSizeRatio) {
        std::printf("FAIL: v3 corpus is %.2fx of fixed-width "
                    "(gate <= %.2fx)\n",
                    size_ratio, kMaxSizeRatio);
        ok = false;
    }
    if (decode_mrps < kMinDecodeMrps) {
        std::printf("FAIL: decode %.1f Mrec/s (gate >= %.1f)\n",
                    decode_mrps, kMinDecodeMrps);
        ok = false;
    }
    if (collect_vs_decode > kMaxCollectVsDecode) {
        std::printf("FAIL: profile collection %.2fx of decode per "
                    "record (gate <= %.2fx)\n",
                    collect_vs_decode, kMaxCollectVsDecode);
        ok = false;
    }
    if (encode_vs_decode > kMaxEncodeVsDecode) {
        std::printf("FAIL: capture encoding %.2fx of decode per record "
                    "(gate <= %.2fx)\n",
                    encode_vs_decode, kMaxEncodeVsDecode);
        ok = false;
    }
    if (vm_over_native > kMaxVmOverNative) {
        std::printf("FAIL: VM %.2fx of native code (gate <= %.1fx)\n",
                    vm_over_native, kMaxVmOverNative);
        ok = false;
    }
    if (batch_blocks != li_blocks ||
        serial_blocks != kEvaluators * li_blocks) {
        std::printf("FAIL: decoded %llu blocks batched and %llu serial "
                    "(gate: exactly %llu and %zu x %llu)\n",
                    static_cast<unsigned long long>(batch_blocks),
                    static_cast<unsigned long long>(serial_blocks),
                    static_cast<unsigned long long>(li_blocks),
                    kEvaluators,
                    static_cast<unsigned long long>(li_blocks));
        ok = false;
    }
    std::printf("%s: size %.2fx, decode %.1f Mrec/s, collect %.2fx and "
                "encode %.2fx of decode, VM %.2fx of native, batch "
                "decodes once (%.1fx)\n",
                ok ? "PASS" : "FAIL", size_ratio, decode_mrps,
                collect_vs_decode, encode_vs_decode, vm_over_native,
                speedup);
    return ok ? 0 : 1;
}
