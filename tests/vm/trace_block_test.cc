/**
 * @file
 * Property tests for the columnar v3 trace blocks: encode/decode
 * round-trips must be bit-identical for ANY record stream (randomized,
 * max-delta jumps, irregular hand-built records), and every damaged
 * byte must surface as a structured status, never UB or silent loss.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/experiment.hh"
#include "core/session.hh"
#include "vm/trace_block.hh"
#include "vm/trace_io.hh"

namespace vpprof
{
namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

/** Deterministic splitmix64 — property tests must not flake. */
uint64_t
nextRand(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Collects every record delivered through the block interface. */
class CollectingBlockSink : public TraceBlockSink
{
  public:
    void
    consumeBlock(const TraceBlockView &block) override
    {
        for (uint32_t i = 0; i < block.count; ++i)
            records.push_back(block.record(i));
    }

    std::vector<TraceRecord> records;
};

void
expectIdentical(const std::vector<TraceRecord> &got,
                const std::vector<TraceRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const TraceRecord &g = got[i];
        const TraceRecord &w = want[i];
        ASSERT_EQ(g.seq, w.seq) << "record " << i;
        ASSERT_EQ(g.pc, w.pc) << "record " << i;
        ASSERT_EQ(g.op, w.op) << "record " << i;
        ASSERT_EQ(g.directive, w.directive) << "record " << i;
        ASSERT_EQ(g.writesReg, w.writesReg) << "record " << i;
        ASSERT_EQ(g.dest, w.dest) << "record " << i;
        ASSERT_EQ(g.value, w.value) << "record " << i;
        ASSERT_EQ(g.numSrcs, w.numSrcs) << "record " << i;
        ASSERT_EQ(g.srcs, w.srcs) << "record " << i;
        ASSERT_EQ(g.isMem, w.isMem) << "record " << i;
        ASSERT_EQ(g.memAddr, w.memAddr) << "record " << i;
    }
}

std::vector<TraceRecord>
roundTrip(const std::vector<TraceRecord> &records)
{
    ColumnarTraceBuilder builder;
    for (const TraceRecord &rec : records)
        builder.record(rec);
    ColumnarTrace trace = builder.take();
    EXPECT_EQ(trace.records, records.size());

    TraceBlockScratch scratch;
    CollectingBlockSink sink;
    EXPECT_EQ(replayColumnarTrace(trace, scratch, &sink),
              records.size());
    return std::move(sink.records);
}

/**
 * A randomized stream spanning every encoder decision: contiguous and
 * explicit seq, hot-loop pcs and maximal pc jumps, strided and
 * maximal-delta values, 0/1/2-source records, mem and non-mem.
 */
std::vector<TraceRecord>
randomStream(uint64_t seed, size_t n, bool contiguousSeq)
{
    uint64_t rng = seed;
    std::vector<TraceRecord> records;
    records.reserve(n);
    uint64_t seq = nextRand(rng) % 1000;
    uint64_t pc = 64;
    for (size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.seq = seq;
        seq += contiguousSeq ? 1 : 1 + (nextRand(rng) % 5);
        switch (nextRand(rng) % 8) {
          case 0:  // maximal jump: zigzag delta must span 64 bits
            pc = nextRand(rng);
            break;
          case 1:
            pc = 0;
            break;
          default:  // hot loop: small forward/backward hops
            pc += (nextRand(rng) % 7) - 3;
            break;
        }
        rec.pc = pc;
        rec.op = static_cast<Opcode>(nextRand(rng) % 16);
        rec.directive = static_cast<Directive>(nextRand(rng) % 3);
        rec.writesReg = (nextRand(rng) % 4) != 0;
        rec.dest = static_cast<RegId>(nextRand(rng) % 32);
        if (rec.writesReg) {
            switch (nextRand(rng) % 8) {
              case 0:
                rec.value = INT64_MIN;
                break;
              case 1:
                rec.value = INT64_MAX;
                break;
              default:
                rec.value =
                    static_cast<int64_t>(nextRand(rng) % 4096) - 2048;
                break;
            }
        }
        rec.numSrcs = static_cast<uint8_t>(nextRand(rng) % 3);
        rec.srcs = {static_cast<RegId>(nextRand(rng) % 32),
                    static_cast<RegId>(nextRand(rng) % 32)};
        rec.isMem = (nextRand(rng) % 3) == 0;
        if (rec.isMem)
            rec.memAddr = nextRand(rng);
        records.push_back(rec);
    }
    return records;
}

TEST(TraceBlock, RoundTripRandomizedContiguousStream)
{
    // Spans several blocks plus a partial tail.
    auto records = randomStream(1, 3 * kTraceBlockCapacity + 137, true);
    expectIdentical(roundTrip(records), records);
}

TEST(TraceBlock, RoundTripRandomizedExplicitSeqStream)
{
    // Gapped seq forces the explicit-seq column.
    auto records = randomStream(2, kTraceBlockCapacity + 57, false);
    expectIdentical(roundTrip(records), records);
}

TEST(TraceBlock, RoundTripIrregularDenseColumns)
{
    // Hand-built irregular records: non-zero value on a non-producer
    // and non-zero memAddr on a non-mem record must switch the value /
    // memAddr columns to dense and still round-trip losslessly.
    std::vector<TraceRecord> records;
    for (int i = 0; i < 100; ++i) {
        TraceRecord rec;
        rec.seq = static_cast<uint64_t>(i);
        rec.pc = static_cast<uint64_t>(1000 + i);
        rec.op = static_cast<Opcode>(i % 4);
        rec.writesReg = false;
        rec.value = i * 17 - 50;  // non-zero on a non-producer
        rec.isMem = false;
        rec.memAddr = static_cast<uint64_t>(i) * 4096 + 3;
        records.push_back(rec);
    }
    expectIdentical(roundTrip(records), records);
}

TEST(TraceBlock, RoundTripMaxDeltaJumps)
{
    // Alternating extremes: every delta is the full 64-bit range.
    std::vector<TraceRecord> records;
    for (int i = 0; i < 64; ++i) {
        TraceRecord rec;
        rec.seq = static_cast<uint64_t>(i);
        rec.pc = (i % 2) ? ~0ull : 0ull;
        rec.writesReg = true;
        rec.value = (i % 2) ? INT64_MAX : INT64_MIN;
        rec.isMem = true;
        rec.memAddr = (i % 2) ? 0ull : ~0ull;
        records.push_back(rec);
    }
    expectIdentical(roundTrip(records), records);
}

TEST(TraceBlock, RoundTripSingleRecordAndEmpty)
{
    expectIdentical(roundTrip({}), {});
    TraceRecord rec;
    rec.seq = 42;
    rec.pc = 7;
    rec.writesReg = true;
    rec.value = -1;
    std::vector<TraceRecord> one{rec};
    expectIdentical(roundTrip(one), one);
}

TEST(TraceBlock, LargestPossibleBlockRoundTrips)
{
    // Every column at its widest: explicit seq, and seq/pc/value/
    // memAddr deltas of 2^63 (10-byte varints), 256 distinct opcodes
    // and directives (8-bit indices), dense value and memAddr. The
    // encoder writes a block through a buffer sized for this case.
    constexpr uint64_t kHalf = uint64_t{1} << 63;
    std::vector<TraceRecord> records;
    for (uint32_t i = 0; i < kTraceBlockCapacity; ++i) {
        TraceRecord rec;
        rec.seq = i % 2 ? 0 : kHalf;
        rec.pc = i % 2 ? 0 : kHalf;
        rec.op = static_cast<Opcode>(i % 256);
        rec.directive = static_cast<Directive>(i * 7 % 256);
        rec.writesReg = false;
        rec.dest = static_cast<RegId>(i);
        rec.value = i % 2 ? 0 : INT64_MIN;
        rec.numSrcs = 3;
        rec.srcs = {static_cast<RegId>(i + 1), static_cast<RegId>(i + 2)};
        rec.isMem = false;
        rec.memAddr = i % 2 ? 0 : kHalf;
        records.push_back(rec);
    }
    TraceBlockEncoder encoder;
    for (const TraceRecord &rec : records)
        encoder.add(rec);
    std::vector<uint8_t> bytes;
    encoder.flush(bytes);
    constexpr size_t n = kTraceBlockCapacity;
    const size_t seqBytes = 1 + (n - 1) * 10;  // record 0's delta is 0
    const size_t dictBytes = 2 + 256 + n;
    EXPECT_EQ(bytes.size(), kTraceBlockHeaderBytes + seqBytes +
                                3 * n * 10 + 2 * dictBytes + n / 2 +
                                3 * n);
    expectIdentical(roundTrip(records), records);
}

TEST(TraceBlock, ProbeDetectsTruncationAndCorruption)
{
    ColumnarTraceBuilder builder;
    for (const TraceRecord &rec : randomStream(3, 500, true))
        builder.record(rec);
    ColumnarTrace trace = builder.take();
    ASSERT_EQ(trace.blocks, 1u);

    size_t consumed = 0;
    uint32_t count = 0;
    EXPECT_EQ(probeTraceBlock(trace.bytes.data(), trace.bytes.size(),
                              &consumed, &count, true),
              TraceBlockStatus::Ok);
    EXPECT_EQ(consumed, trace.bytes.size());
    EXPECT_EQ(count, 500u);

    // Any shorter window is a torn block.
    EXPECT_EQ(probeTraceBlock(trace.bytes.data(),
                              trace.bytes.size() - 1, &consumed, &count,
                              true),
              TraceBlockStatus::Truncated);
    EXPECT_EQ(probeTraceBlock(trace.bytes.data(), 5, &consumed, &count,
                              true),
              TraceBlockStatus::Truncated);

    // A flipped payload byte fails the checksum...
    std::vector<uint8_t> bad = trace.bytes;
    bad[kTraceBlockHeaderBytes + bad.size() / 2] ^= 0x10;
    EXPECT_EQ(probeTraceBlock(bad.data(), bad.size(), &consumed,
                              &count, true),
              TraceBlockStatus::ChecksumMismatch);

    // ...and so does a flipped FRAMING byte (the checksum covers the
    // header fields, not just the payload).
    bad = trace.bytes;
    bad[0] ^= 0x01;  // record count LSB
    TraceBlockStatus st =
        probeTraceBlock(bad.data(), bad.size(), &consumed, &count, true);
    EXPECT_TRUE(st == TraceBlockStatus::ChecksumMismatch ||
                st == TraceBlockStatus::Malformed);
}

TEST(TraceBlock, CorruptPayloadIsAStructuredDecodeFailure)
{
    ColumnarTraceBuilder builder;
    for (const TraceRecord &rec : randomStream(4, 300, true))
        builder.record(rec);
    ColumnarTrace trace = builder.take();

    // Even WITHOUT the checksum pass, decoding damaged bytes must end
    // in a status, not UB: try every single-byte flip of the payload.
    for (size_t i = kTraceBlockHeaderBytes; i < trace.bytes.size();
         ++i) {
        std::vector<uint8_t> bad = trace.bytes;
        bad[i] ^= 0xff;
        TraceBlockScratch scratch;
        TraceBlockView view;
        size_t consumed = 0;
        (void)decodeTraceBlock(bad.data(), bad.size(), scratch, view,
                               &consumed, false);
    }
}

TEST(TraceBlock, SeededBitFlipsInARealBlockAllFailToDecode)
{
    // li input 0's first block: a full block of VM records, so every
    // column and both dictionaries hold real data. Each single-bit
    // flip anywhere in its header or payload must decode to a non-Ok
    // status with the checksum pass on.
    WorkloadSuite suite;
    ColumnarTraceBuilder builder;
    runTrace(*suite.find("li"), 0, &builder);
    ColumnarTrace trace = builder.take();
    size_t blockBytes = 0;
    uint32_t count = 0;
    ASSERT_EQ(probeTraceBlock(trace.bytes.data(), trace.bytes.size(),
                              &blockBytes, &count, true),
              TraceBlockStatus::Ok);
    ASSERT_EQ(count, kTraceBlockCapacity);
    std::vector<uint8_t> block(trace.bytes.begin(),
                               trace.bytes.begin() +
                                   static_cast<long>(blockBytes));

    constexpr int kFlips = 2000;
    uint64_t rng = 2025;
    TraceBlockScratch scratch;
    int decodedOk = 0;
    for (int k = 0; k < kFlips; ++k) {
        const size_t bit = nextRand(rng) % (block.size() * 8);
        const auto mask = static_cast<uint8_t>(1u << (bit % 8));
        block[bit / 8] ^= mask;
        TraceBlockView view;
        size_t consumed = 0;
        if (decodeTraceBlock(block.data(), block.size(), scratch, view,
                             &consumed, true) == TraceBlockStatus::Ok) {
            ADD_FAILURE() << "flip of bit " << bit << " decoded Ok";
            ++decodedOk;
        }
        block[bit / 8] ^= mask;
    }
    EXPECT_EQ(decodedOk, 0);
}

TEST(TraceBlock, KnownAnswerBlockBytes)
{
    // Pins the on-disk encoding, checksum included: every committed
    // cache file holds these bytes, so any change here quarantines
    // them all. A load, an add and a store from a three-instruction
    // loop body.
    TraceRecord ld;
    ld.seq = 100;
    ld.pc = 0x40;
    ld.op = Opcode::Ld;
    ld.directive = Directive::Stride;
    ld.writesReg = true;
    ld.dest = 3;
    ld.value = 42;
    ld.numSrcs = 1;
    ld.srcs = {1, 0};
    ld.isMem = true;
    ld.memAddr = 0x1000;
    TraceRecord add = ld;
    add.seq = 101;
    add.pc = 0x41;
    add.op = Opcode::Add;
    add.directive = Directive::None;
    add.dest = 4;
    add.value = -7;
    add.numSrcs = 2;
    add.srcs = {3, 2};
    add.isMem = false;
    add.memAddr = 0;
    TraceRecord st = ld;
    st.seq = 102;
    st.pc = 0x42;
    st.op = Opcode::St;
    st.directive = Directive::LastValue;
    st.writesReg = false;
    st.dest = 0;
    st.value = 0;
    st.numSrcs = 2;
    st.srcs = {1, 4};
    st.memAddr = 0x1008;

    TraceBlockEncoder encoder;
    for (const TraceRecord &rec : {ld, add, st})
        encoder.add(rec);
    std::vector<uint8_t> bytes;
    encoder.flush(bytes);

    const std::vector<uint8_t> want = {
        // Header: count 3, payload 32 bytes, firstSeq 100, flags 0
        // (contiguous seq, sparse value and memAddr columns).
        0x03, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00,
        0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
        // XXH64 checksum: of the 20 header bytes above from
        // kTraceBlockChecksumSeed, then of the payload from that.
        0x06, 0xfb, 0xcd, 0xe1, 0xb0, 0x8a, 0x17, 0x68,
        // Payload: pc deltas, op and directive dictionaries, packed
        // flags, dest/src0/src1 bytes, value and memAddr deltas.
        0x80, 0x01, 0x02, 0x02, 0x03, 0x00, 0x1b, 0x00,
        0x1c, 0x24, 0x03, 0x00, 0x02, 0x00, 0x01, 0x24,
        0x97, 0x0a, 0x03, 0x04, 0x00, 0x01, 0x03, 0x01,
        0x00, 0x02, 0x04, 0x54, 0x61, 0x80, 0x40, 0x10,
    };
    EXPECT_EQ(bytes, want);
    expectIdentical(roundTrip({ld, add, st}), {ld, add, st});
}

// --- v3 files (trace_io framing over the same blocks) ---------------

/** Encode `records` and commit them as a trace file at `path`. */
void
writeRecords(const std::string &path,
             const std::vector<TraceRecord> &records)
{
    ColumnarTraceBuilder builder;
    for (const TraceRecord &rec : records)
        builder.record(rec);
    ASSERT_EQ(writeColumnarTraceFile(path, builder.take()),
              TraceIoStatus::Ok);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(TraceBlock, V3FileRoundTripIsBitIdentical)
{
    std::string path = tempPath("v3roundtrip.trace");
    auto records = randomStream(5, kTraceBlockCapacity + 321, true);
    writeRecords(path, records);

    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->recordCount(), records.size());
    VectorTraceSink got;
    EXPECT_EQ(reader->replay(&got), records.size());
    EXPECT_EQ(reader->status(), TraceIoStatus::Ok);
    expectIdentical(got.trace(), records);
    std::remove(path.c_str());
}

TEST(TraceBlock, V3PerRecordWriterMatchesBulkWriter)
{
    // One writer is left, so what this pins is the record-by-record
    // path into it: a ColumnarTraceBuilder fed by a warm
    // Session::runTrace (a replay of the committed cache file) must
    // write exactly the cache file's bytes.
    namespace fs = std::filesystem;
    std::string dir = tempPath("v3cache");
    fs::remove_all(dir);
    SessionConfig cfg;
    cfg.traceCacheDir = dir;
    WorkloadSuite suite;
    const Workload &li = *suite.find("li");
    {
        Session cold(cfg);
        cold.runTrace(li, 0, nullptr);
    }
    std::string rewritten = tempPath("v3rewritten.trace");
    {
        Session warm(cfg);
        ColumnarTraceBuilder builder;
        warm.runTrace(li, 0, &builder);
        EXPECT_EQ(warm.traces().stats().vmRuns, 0u)
            << "the builder is fed by a replay of the cache file";
        ASSERT_EQ(writeColumnarTraceFile(rewritten, builder.take()),
                  TraceIoStatus::Ok);
    }
    std::string committed = slurp(dir + "/li.in0.trace");
    EXPECT_FALSE(committed.empty());
    EXPECT_EQ(slurp(rewritten), committed);
    std::remove(rewritten.c_str());
    fs::remove_all(dir);
}

TEST(TraceBlock, V3ReaderSkipResumesExactly)
{
    std::string path = tempPath("v3skip.trace");
    auto records = randomStream(7, kTraceBlockCapacity + 200, true);
    // A replay refuses pcs past its program's end: fold the stream's
    // pcs (which can wrap to 2^64 - 1) into a 2^20-instruction program.
    constexpr uint64_t kProgramSize = uint64_t{1} << 20;
    for (TraceRecord &rec : records)
        rec.pc %= kProgramSize;
    writeRecords(path, records);

    // Skip across the block boundary and into the middle of block 1.
    size_t prefix = kTraceBlockCapacity + 13;
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    std::vector<TraceRecord> got(records.begin(),
                                 records.begin() +
                                     static_cast<long>(prefix));
    CollectingBlockSink tail;
    TraceBlockScratch scratch;
    uint64_t delivered = 0, blocks = 0;
    EXPECT_EQ(replayTraceSpan(reader->span(), prefix, scratch, &tail,
                              &delivered, &blocks, kProgramSize),
              TraceIoStatus::Ok);
    EXPECT_EQ(delivered, records.size() - prefix);
    EXPECT_EQ(blocks, 1u) << "the skipped block 0 is never decoded";
    got.insert(got.end(), tail.records.begin(), tail.records.end());
    expectIdentical(got, records);
    std::remove(path.c_str());
}

TEST(TraceBlock, TornTailIsTruncatedFileStatus)
{
    std::string path = tempPath("v3torn.trace");
    writeRecords(path, randomStream(8, 700, true));
    std::string bytes = slurp(path);

    // Chop mid-block: the torn tail is the DISTINCT TruncatedFile
    // status, not the generic payload-size mismatch.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 11));
    out.close();

    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::TruncatedFile);
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::TruncatedFile),
                 "truncated-file");
    std::remove(path.c_str());
}

TEST(TraceBlock, FlippedBitInV3FileIsChecksumMismatch)
{
    std::string path = tempPath("v3flip.trace");
    writeRecords(path, randomStream(9, 700, true));
    std::string bytes = slurp(path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();

    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::ChecksumMismatch);
    std::remove(path.c_str());
}

TEST(TraceBlock, V3IsSmallerThanV2OnALoopyStream)
{
    // The compression gate proper lives in bench_trace_v3 over the
    // nine-workload corpus; this is the unit-level sanity check that
    // the encoder actually compresses a representative loop trace.
    std::string path = tempPath("size3.trace");
    auto records = randomStream(10, 4 * kTraceBlockCapacity, true);
    writeRecords(path, records);
    uint64_t v3_bytes = slurp(path).size();
    // The retired fixed-width v2 layout: 16-byte header, 39 bytes per
    // record, 8-byte checksum trailer.
    uint64_t fixed_bytes = 16 + 39 * records.size() + 8;
    EXPECT_LE(v3_bytes * 2, fixed_bytes)
        << "v3 must be at most half of v2 even on randomized records";
    std::remove(path.c_str());
}

} // namespace
} // namespace vpprof
