/**
 * @file
 * Unit tests for binary trace file I/O.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "common/failpoint.hh"
#include "isa/program_builder.hh"
#include "vm/machine.hh"
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

/** Commit `trace` at `path`; the write must succeed. */
void
commit(const std::string &path, const ColumnarTrace &trace)
{
    ASSERT_EQ(writeColumnarTraceFile(path, trace), TraceIoStatus::Ok);
}

/** `n` default records with pcs 0, 1, ... encoded as a trace. */
ColumnarTrace
pcRamp(uint64_t n)
{
    ColumnarTraceBuilder builder;
    TraceRecord rec;
    for (uint64_t i = 0; i < n; ++i) {
        rec.pc = i;
        builder.record(rec);
    }
    return builder.take();
}

Program
smallProgram()
{
    ProgramBuilder b("small");
    b.movi(R(1), 0);
    b.movi(R(2), 20);
    b.label("loop");
    b.st(R(1), R(1), 100);
    b.ld(R(3), R(1), 100);
    b.addi(R(1), R(1), 1);
    b.blt(R(1), R(2), "loop");
    b.halt();
    return b.build();
}

TEST(TraceIo, RoundTripPreservesEveryField)
{
    std::string path = tempPath("roundtrip.trace");
    VectorTraceSink captured;
    {
        ColumnarTraceBuilder builder;
        MultiTraceSink fan;
        fan.addSink(&builder);
        fan.addSink(&captured);
        Machine m(smallProgram(), MemoryImage{});
        m.run(&fan);
        ColumnarTrace trace = builder.take();
        EXPECT_EQ(trace.records, captured.trace().size());
        commit(path, trace);
    }

    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->recordCount(), captured.trace().size());
    VectorTraceSink replayed;
    reader->replay(&replayed);
    EXPECT_EQ(reader->status(), TraceIoStatus::Ok);
    size_t i = 0;
    for (const TraceRecord &rec : replayed.trace()) {
        const TraceRecord &want = captured.trace()[i++];
        EXPECT_EQ(rec.seq, want.seq);
        EXPECT_EQ(rec.pc, want.pc);
        EXPECT_EQ(rec.op, want.op);
        EXPECT_EQ(rec.directive, want.directive);
        EXPECT_EQ(rec.writesReg, want.writesReg);
        EXPECT_EQ(rec.dest, want.dest);
        EXPECT_EQ(rec.value, want.value);
        EXPECT_EQ(rec.numSrcs, want.numSrcs);
        EXPECT_EQ(rec.srcs, want.srcs);
        EXPECT_EQ(rec.isMem, want.isMem);
        EXPECT_EQ(rec.memAddr, want.memAddr);
    }
    EXPECT_EQ(i, captured.trace().size());
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayStreamsIntoSink)
{
    std::string path = tempPath("replay.trace");
    uint64_t written = 0;
    {
        ColumnarTraceBuilder builder;
        Machine m(smallProgram(), MemoryImage{});
        m.run(&builder);
        ColumnarTrace trace = builder.take();
        written = trace.records;
        commit(path, trace);
    }
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    CountingTraceSink counts;
    EXPECT_EQ(reader->replay(&counts), written);
    EXPECT_EQ(counts.total(), written);
    EXPECT_EQ(counts.loads(), 20u);
    EXPECT_EQ(counts.stores(), 20u);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceIsValid)
{
    std::string path = tempPath("empty.trace");
    commit(path, ColumnarTraceBuilder().take());
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->recordCount(), 0u);
    CountingTraceSink counts;
    EXPECT_EQ(reader->replay(&counts), 0u);
    EXPECT_EQ(reader->status(), TraceIoStatus::Ok);
    std::remove(path.c_str());
}

TEST(TraceIo, DestructorFinalizesHeader)
{
    // The per-record writer that fixed the count up at close is gone.
    // The surviving contract: the writer stamps the header with the
    // trace's own record count, which the reader then holds the
    // blocks to.
    std::string path = tempPath("dtor.trace");
    ColumnarTrace trace = pcRamp(kTraceBlockCapacity + 5);
    commit(path, trace);
    std::ifstream in(path, std::ios::binary);
    char header[16] = {};
    ASSERT_TRUE(in.read(header, sizeof(header)));
    uint64_t count = 0;
    std::memcpy(&count, header + 8, 8);
    EXPECT_EQ(count, trace.records);
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->recordCount(), trace.records);
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsForeignFile)
{
    std::string path = tempPath("bogus.trace");
    {
        std::ofstream os(path);
        os << "this is not a trace";
    }
    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::BadMagic);
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile)
{
    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen("/nonexistent/nope.trace", &status),
              nullptr);
    EXPECT_EQ(status, TraceIoStatus::IoError);
}

/**
 * Commit a valid two-record trace (pcs 7 and 8) and return its raw
 * bytes: the 16-byte header, then one block.
 */
std::string
validTraceBytes(const std::string &path)
{
    ColumnarTraceBuilder builder;
    TraceRecord rec;
    rec.pc = 7;
    builder.record(rec);
    rec.pc = 8;
    builder.record(rec);
    EXPECT_EQ(writeColumnarTraceFile(path, builder.take()),
              TraceIoStatus::Ok);
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Size of the program validTraceBytes' pcs (7 and 8) index. */
constexpr uint64_t kValidTraceProgramSize = 9;

/** Offset of the first block's first payload byte in a trace file. */
constexpr size_t kFirstPayloadByte = 16 + kTraceBlockHeaderBytes;

/** `data` with one bit of the first block's payload flipped. */
std::string
withFlippedPayloadBit(std::string data)
{
    data[kFirstPayloadByte] =
        static_cast<char>(data[kFirstPayloadByte] ^ 0x04);
    return data;
}

/** Collects the pc column of every block it is handed. */
struct PcBlockSink : TraceBlockSink
{
    std::vector<uint64_t> pcs;

    void
    consumeBlock(const TraceBlockView &block) override
    {
        pcs.insert(pcs.end(), block.pc, block.pc + block.count);
    }
};

void
writeBytes(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(TraceIo, DetectsTruncationAtOpen)
{
    std::string path = tempPath("trunc.trace");
    std::string data = validTraceBytes(path);
    // Chop off the block's tail: its framing now runs past the end of
    // the file, which must be loud, not a short read.
    writeBytes(path, data.substr(0, data.size() - 10));
    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::TruncatedFile);
    std::remove(path.c_str());
}

TEST(TraceIo, DetectsTrailingGarbageAtOpen)
{
    std::string path = tempPath("garbage.trace");
    std::string data = validTraceBytes(path);
    // Bytes after the blocks that already hold every promised record
    // are trailing garbage, even when too short for a block header:
    // Truncated, not the torn-tail TruncatedFile.
    writeBytes(path, data + "extra bytes");
    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::Truncated);

    // A whole extra block holds records the header does not count.
    writeBytes(path, data + data.substr(16));
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

TEST(TraceIo, CorruptFileRoundTrip)
{
    // Round-trip a healthy file through every corruption the reader
    // distinguishes, checking each is classified (not UB, not silently
    // replayed short).
    std::string path = tempPath("corrupt.trace");
    std::string data = validTraceBytes(path);
    TraceIoStatus status = TraceIoStatus::Ok;

    // Healthy: opens, replays both records.
    writeBytes(path, data);
    auto reader = TraceFileReader::tryOpen(path, &status);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(status, TraceIoStatus::Ok);
    VectorTraceSink sink;
    EXPECT_EQ(reader->replay(&sink), 2u);
    EXPECT_EQ(reader->status(), TraceIoStatus::Ok);
    EXPECT_EQ(sink.trace()[1].pc, 8u);

    // Bad magic: a foreign file.
    std::string bad = data;
    bad[0] = 'X';
    writeBytes(path, bad);
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::BadMagic);

    // Version mismatch: right magic, any version byte but
    // kTraceFormatVersion — a future version, a '3' file (the same
    // columns under the retired FNV-1a block checksum), or a file of
    // the retired v1/v2 formats.
    for (char version : {'9', '3', '2', '1'}) {
        std::string other = data;
        other[7] = version;
        writeBytes(path, other);
        EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
        EXPECT_EQ(status, TraceIoStatus::VersionMismatch);
    }
    // Short header: fewer bytes than the fixed header.
    writeBytes(path, data.substr(0, 11));
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::ShortHeader);

    // Missing file.
    std::remove(path.c_str());
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::IoError);
}

TEST(TraceIo, StatusNamesAreDistinct)
{
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::Ok), "ok");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::BadMagic),
                 "bad-magic");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::VersionMismatch),
                 "version-mismatch");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::Truncated),
                 "truncated");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::ChecksumMismatch),
                 "checksum-mismatch");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::WriteFailed),
                 "write-failed");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::NoSpace),
                 "no-space");
}

// --- Integrity + durability ----------------------------------------

/** Failpoint-armed tests must never leak arming into neighbors. */
class TraceIoFaults : public ::testing::Test
{
  protected:
    void SetUp() override { FailpointRegistry::instance().reset(); }
    void TearDown() override { FailpointRegistry::instance().reset(); }
};

TEST(TraceIo, ChecksumCatchesSingleFlippedPayloadBit)
{
    std::string path = tempPath("bitflip.trace");
    std::string data = validTraceBytes(path);
    // Framing-only validation cannot see this: flip one payload bit,
    // leaving every length intact.
    writeBytes(path, withFlippedPayloadBit(data));

    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::ChecksumMismatch);
    // HeaderOnly skips the checksum pass by design.
    EXPECT_NE(TraceFileReader::tryOpen(path, &status,
                                       TraceVerify::HeaderOnly),
              nullptr);
    std::remove(path.c_str());
}

TEST(TraceIo, UnpinnedWritesDefaultToVersion3)
{
    std::string path = tempPath("v3fresh.trace");
    std::string data = validTraceBytes(path);
    ASSERT_GE(data.size(), 16u);
    EXPECT_EQ(data.substr(0, 8),
              std::string("VPTRACE") + kTraceFormatVersion);
    uint64_t count = 0;
    std::memcpy(&count, data.data() + 8, 8);
    EXPECT_EQ(count, 2u);
    std::remove(path.c_str());
}

TEST(TraceIo, FinalPathInvisibleUntilCommit)
{
    // Hold the writer at its commit point (the temp file is complete
    // and flushed) while this thread polls: as long as the temp file
    // exists, `path` does not, so a concurrent reader polling `path`
    // can never observe a torn file.
    namespace fs = std::filesystem;
    std::string path = tempPath("atomic.trace");
    std::string tmpPath = path + ".tmp." + std::to_string(::getpid());
    std::remove(path.c_str());
    FailpointSpec delay;
    delay.action = FailpointAction::Delay;
    delay.delayMs = 500;
    FailpointRegistry::instance().arm("trace_io.commit", delay);
    TraceIoStatus status = TraceIoStatus::WriteFailed;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        status = writeColumnarTraceFile(path, pcRamp(1));
        done = true;
    });
    bool sawTemp = false, sawBoth = false;
    while (!done) {
        // `path` first: the temp cannot reappear once renamed.
        bool final = fs::exists(path);
        bool temp = fs::exists(tmpPath);
        sawTemp |= temp;
        sawBoth |= final && temp;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writer.join();
    FailpointRegistry::instance().reset();
    EXPECT_EQ(status, TraceIoStatus::Ok);
    EXPECT_TRUE(sawTemp) << "the bytes go to the temp file first";
    EXPECT_FALSE(sawBoth) << "`path` appears only by the rename";
    EXPECT_FALSE(fs::exists(tmpPath)) << "the commit renames the temp";
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, WriteFailureIsLatchedAndSurfacedByClose)
{
    // "trace_io.write" fires once per block: fail the 2nd of 3.
    std::string path = tempPath("wfail.trace");
    std::remove(path.c_str());
    ColumnarTrace trace = pcRamp(2 * kTraceBlockCapacity + 1);
    ASSERT_EQ(trace.blocks, 3u);
    FailpointRegistry::instance().arm("trace_io.write",
                                      {FailpointAction::Fail, 2});
    EXPECT_EQ(writeColumnarTraceFile(path, trace),
              TraceIoStatus::WriteFailed);
    EXPECT_EQ(FailpointRegistry::instance().hits("trace_io.write"), 2u)
        << "the failure stops the write: block 3 is never attempted";
    // No commit: neither the final file nor the temp survives.
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_FALSE(std::ifstream(path + ".tmp." + std::to_string(::getpid()))
                     .good());
}

TEST_F(TraceIoFaults, NoSpaceAtCommitReportsNoSpaceAndLeavesNoFile)
{
    std::string path = tempPath("enospc.trace");
    std::remove(path.c_str());
    FailpointRegistry::instance().arm("trace_io.commit",
                                      {FailpointAction::NoSpace, 0});
    EXPECT_EQ(writeColumnarTraceFile(path, pcRamp(1)),
              TraceIoStatus::NoSpace);
    EXPECT_FALSE(std::ifstream(path).good());
}

TEST_F(TraceIoFaults, FailedCommitPreservesThePreviousFile)
{
    // Atomicity also means a failed re-capture cannot destroy the
    // good file already at `path`.
    std::string path = tempPath("preserve.trace");
    std::string good = validTraceBytes(path);

    FailpointRegistry::instance().arm("trace_io.commit",
                                      {FailpointAction::Fail, 0});
    EXPECT_EQ(writeColumnarTraceFile(path, pcRamp(100)),
              TraceIoStatus::WriteFailed);
    FailpointRegistry::instance().reset();

    // The old two-record file is untouched and still valid.
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->recordCount(), 2u);
    FailpointRegistry::instance().reset();
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, InjectedCorruptionIsCaughtByTheChecksum)
{
    std::string path = tempPath("injcorrupt.trace");
    FailpointRegistry::instance().arm("trace_io.write",
                                      {FailpointAction::Corrupt, 1});
    EXPECT_EQ(writeColumnarTraceFile(path, pcRamp(8)), TraceIoStatus::Ok)
        << "corruption is silent at write time, like real media";
    FailpointRegistry::instance().reset();

    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::ChecksumMismatch);
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, ShortReadFailpointStopsNonStrictReplay)
{
    std::string path = tempPath("shortread.trace");
    validTraceBytes(path);

    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 2});
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    VectorTraceSink sink;
    EXPECT_EQ(reader->replay(&sink), 1u) << "injected short read";
    EXPECT_EQ(reader->status(), TraceIoStatus::Truncated);
    ASSERT_EQ(sink.trace().size(), 1u);
    EXPECT_EQ(sink.trace()[0].pc, 7u);
    // A replay always starts from the first record, so a transient
    // fault costs only the replay it hit.
    VectorTraceSink again;
    EXPECT_EQ(reader->replay(&again), 2u);
    EXPECT_EQ(reader->status(), TraceIoStatus::Ok);
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, SkipResumesAReplayPastADeliveredPrefix)
{
    std::string path = tempPath("skip.trace");
    validTraceBytes(path);
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    PcBlockSink sink;
    TraceBlockScratch scratch;
    uint64_t delivered = 0, blocks = 0;
    EXPECT_EQ(replayTraceSpan(reader->span(), 1, scratch, &sink,
                              &delivered, &blocks,
                              kValidTraceProgramSize),
              TraceIoStatus::Ok);
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(sink.pcs, std::vector<uint64_t>{8u})
        << "skipping 1 lands on the second record";
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, PcOutsideTheProgramIsRefusedBeforeDelivery)
{
    std::string path = tempPath("pclimit.trace");
    validTraceBytes(path);
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    PcBlockSink sink;
    TraceBlockScratch scratch;
    uint64_t delivered = 0, blocks = 0;
    // pc 8 lies past an 8-instruction program: the block is refused
    // whole, so not even its in-range pc 7 reaches the sink.
    EXPECT_EQ(replayTraceSpan(reader->span(), 0, scratch, &sink,
                              &delivered, &blocks,
                              kValidTraceProgramSize - 1),
              TraceIoStatus::ChecksumMismatch);
    EXPECT_EQ(delivered, 0u);
    EXPECT_TRUE(sink.pcs.empty());
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, SpanReadFaultsCountRecordsOfFilesOnly)
{
    std::string path = tempPath("spanread.trace");
    validTraceBytes(path);
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    ColumnarTrace copy;
    ASSERT_TRUE(reader->readColumnar(copy));
    TraceBlockScratch scratch;

    // The 2nd record read of a file's span fails: the 1st is
    // delivered first, exactly as a record-at-a-time reader would.
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 2});
    PcBlockSink file_sink;
    uint64_t delivered = 0, blocks = 0;
    EXPECT_EQ(replayTraceSpan(reader->span(), 0, scratch, &file_sink,
                              &delivered, &blocks,
                              kValidTraceProgramSize),
              TraceIoStatus::Truncated);
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(file_sink.pcs, std::vector<uint64_t>{7u});
    EXPECT_EQ(FailpointRegistry::instance().hits("trace_io.read"), 2u);

    // An in-memory span reads no file: the failpoint never fires.
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 0});
    PcBlockSink buffer_sink;
    delivered = 0;
    EXPECT_EQ(replayTraceSpan(copy.span(), 0, scratch, &buffer_sink,
                              &delivered, &blocks,
                              kValidTraceProgramSize),
              TraceIoStatus::Ok);
    EXPECT_EQ(buffer_sink.pcs, (std::vector<uint64_t>{7u, 8u}));
    EXPECT_EQ(FailpointRegistry::instance().hits("trace_io.read"), 0u);
    std::remove(path.c_str());
}

TEST_F(TraceIoFaults, OpenFailpointReportsIoError)
{
    std::string path = tempPath("openfail.trace");
    validTraceBytes(path);
    FailpointRegistry::instance().arm("trace_io.open",
                                      {FailpointAction::Fail, 0});
    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_EQ(status, TraceIoStatus::IoError);
    std::remove(path.c_str());
}

TEST(TraceIo, UnwritableDirectoryIsAStructuredWriterError)
{
    EXPECT_EQ(writeColumnarTraceFile("/nonexistent-dir-for-vpprof/x.trace",
                                     pcRamp(1)),
              TraceIoStatus::IoError);
}

// --- Diagnostics: status names the CLI prints ----------------------

TEST(TraceIo, StrictDiagnosticsIncludeStatusNameAndPath)
{
    // The strict constructor that died with these names is gone:
    // tryOpen is the only way to open a file, and `vpprof_cli replay`
    // turns its status into a "fatal: ... (<status>): <path>" line
    // (ctest cli_replay_names_corrupt_status checks that line). Here:
    // each damage is told apart by the status that line names.
    std::string path = tempPath("strictdiag.trace");
    std::string data = validTraceBytes(path);
    auto statusOf = [&](const std::string &bytes) {
        writeBytes(path, bytes);
        TraceIoStatus status = TraceIoStatus::Ok;
        EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
        return std::string(traceIoStatusName(status));
    };

    EXPECT_EQ(statusOf(withFlippedPayloadBit(data)), "checksum-mismatch");
    EXPECT_EQ(statusOf(data.substr(0, data.size() - 3)), "truncated-file");
    std::string foreign = data;
    foreign[0] = 'X';
    EXPECT_EQ(statusOf(foreign), "bad-magic");
    std::string stale = data;
    stale[7] = '2';
    EXPECT_EQ(statusOf(stale), "version-mismatch");
    EXPECT_EQ(statusOf(data.substr(0, 9)), "short-header");

    std::remove(path.c_str());
    TraceIoStatus status = TraceIoStatus::Ok;
    EXPECT_EQ(TraceFileReader::tryOpen(path, &status), nullptr);
    EXPECT_STREQ(traceIoStatusName(status), "io-error");
}

TEST(TraceIo, StrictMidReplayFailureNamesStatusAndPath)
{
    // A failure after a good open is the reader's status(), with the
    // two counts `vpprof_cli replay` prints in its "trace replay
    // failed (<status>) after N of M records: <path>" line.
    std::string path = tempPath("strictread.trace");
    validTraceBytes(path);
    auto reader = TraceFileReader::tryOpen(path);
    ASSERT_NE(reader, nullptr);
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 2});
    CountingTraceSink counts;
    EXPECT_EQ(reader->replay(&counts), 1u);
    EXPECT_STREQ(traceIoStatusName(reader->status()), "truncated");
    EXPECT_EQ(reader->recordCount(), 2u);
    FailpointRegistry::instance().reset();
    std::remove(path.c_str());
}

TEST(TraceIo, RecordAfterClosePanics)
{
    // The per-record writer this guarded is gone. The surviving
    // writer's guard: a ColumnarTrace whose block framing is broken
    // (memory corruption) panics instead of committing a file.
    // The dying child leaves its temp file: keep it in a directory of
    // its own.
    namespace fs = std::filesystem;
    std::string dir = tempPath("closed");
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = dir + "/closed.trace";
    ColumnarTrace broken = pcRamp(10);
    broken.bytes.resize(broken.bytes.size() - 1);
    EXPECT_DEATH(writeColumnarTraceFile(path, broken), "invalid framing");
    EXPECT_FALSE(std::ifstream(path).good());
    fs::remove_all(dir);
}

} // namespace
} // namespace vpprof
