/**
 * @file
 * Binary trace files: persist a dynamic trace to disk and replay it
 * later, so expensive workload runs can be captured once and analyzed
 * many times — the role SHADE's trace files played for the paper.
 *
 * Format (the only one readable): a 16-byte header ("VPTRACE", the
 * version byte kTraceFormatVersion = '4', the little-endian record
 * count) followed by self-checksummed columnar blocks (trace_block.hh)
 * — delta/varint/dictionary compressed, read via mmap, decoded
 * block-at-a-time into SoA scratch columns. A file with any other
 * version byte is a VersionMismatch: a cache written by the retired
 * fixed-width v1/v2 writers, or a '3' file, whose blocks have the same
 * columns but carry FNV-1a checksums where version 4 carries XXH64.
 * The trace cache quarantines such a file to `<file>.bad` and
 * re-captures the trace through the VM. The block layout keeps its
 * "v3" name in code and counters (`v3_blocks_decoded`,
 * `bench_trace_v3`).
 *
 * Durability: the writer streams into `<path>.tmp.<pid>` and commits
 * with flush + atomic rename in close(), so a crash at any point
 * leaves either the complete old file or the complete new file at
 * `path` — never a torn one. Readers validate the magic, the version,
 * the block framing, and (Full verify) every block checksum, reporting
 * structured TraceIoStatus errors instead of silently truncating. A
 * file whose tail block was torn off reports the distinct
 * TruncatedFile status so quarantine logs name the actual failure.
 *
 * Immutability: a committed file is never modified in place — every
 * writer commits by rename, so a reader's mapping keeps the inode it
 * validated while a re-commit replaces the directory entry. That is
 * what lets the TraceRepository replay straight from the mapped
 * payload (replayTraceSpan). A process that truncates a mapped trace
 * file in place breaks the contract and can be killed by SIGBUS.
 *
 * Fault injection: the write/commit/open/read sites consult the
 * failpoint registry ("trace_io.write", "trace_io.commit",
 * "trace_io.open", "trace_io.read"), so crash-consistency tests can
 * deterministically simulate disk-full, torn writes and short reads.
 */

#ifndef VPPROF_VM_TRACE_IO_HH
#define VPPROF_VM_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "vm/trace.hh"
#include "vm/trace_block.hh"

namespace vpprof
{

/**
 * The version byte (offset 7) of every trace file written, and the
 * only one a reader accepts. '4': v3 columnar blocks checksummed with
 * XXH64.
 */
constexpr char kTraceFormatVersion = '4';

/** Structured outcome of trace-file validation, reads and writes. */
enum class TraceIoStatus
{
    Ok,               ///< file healthy / operation succeeded
    IoError,          ///< file cannot be opened or read at all
    ShortHeader,      ///< fewer bytes than the fixed header
    BadMagic,         ///< not a vpprof trace file at all
    VersionMismatch,  ///< vpprof trace, but an unsupported version
    Truncated,        ///< payload size disagrees with the header count
    TruncatedFile,    ///< tail block torn off / file shorter than mapped
    ChecksumMismatch, ///< stored checksum does not match the payload
    WriteFailed,      ///< a write or the commit rename failed
    NoSpace,          ///< the device is full (ENOSPC)
};

/** Human-readable name of a TraceIoStatus (for messages and tests). */
const char *traceIoStatusName(TraceIoStatus status);

/**
 * How much of a trace file tryOpen() validates. Full verifies the
 * checksum of every block — the integrity boundary, paid once per
 * file per process. HeaderOnly checks the
 * magic, the version and the block framing but skips the checksum
 * pass; it exists so repeated same-process replays of a file that
 * already passed Full verification (tracked by the TraceRepository)
 * avoid re-hashing tens of megabytes per replay. Use Full whenever
 * the file's history is unknown.
 */
enum class TraceVerify
{
    Full,
    HeaderOnly,
};

/**
 * A trace sink that streams records into a binary trace file through
 * a write-to-temp + flush + atomic-rename commit. Failures (including
 * a full disk) are latched into status() and surfaced by close();
 * nothing in the writer is fatal, so callers choose between loud
 * errors (the CLI) and graceful degradation (the trace cache).
 *
 * Records buffer into a columnar block encoder and are written one
 * encoded block at a time, so memory stays bounded by one block
 * however long the trace. The "trace_io.write" failpoint still fires
 * once per record.
 */
class TraceFileWriter : public TraceSink
{
  public:
    /**
     * Open the temp file for `path`. On failure the writer is inert:
     * record() drops and close() reports the latched status.
     */
    explicit TraceFileWriter(const std::string &path);

    /**
     * Closes if needed; a failure on this path is logged through
     * vpprof_warn_limited (a destructor cannot return status — call
     * close() when the outcome matters).
     */
    ~TraceFileWriter() override;

    void record(const TraceRecord &rec) override;

    /**
     * Commit: flush the tail block, fix up the header count, flush,
     * verify the stream, and atomically rename the temp file over
     * `path`.
     * Returns Ok on a durable commit; on any failure the temp file is
     * removed, `path` is untouched, and the first error (WriteFailed /
     * NoSpace / IoError) is returned. Idempotent.
     */
    TraceIoStatus close();

    /** First error latched by the constructor/record()/close(). */
    TraceIoStatus status() const { return status_; }

    uint64_t recordsWritten() const { return count_; }

  private:
    void flushBlock();

    std::string path_;
    std::string tmpPath_;
    std::ofstream out_;
    uint64_t count_ = 0;
    TraceBlockEncoder encoder_;
    std::vector<uint8_t> blockBuf_;    // encoded-block scratch
    uint64_t corruptPending_ = 0;      // injected flips owed to this block
    bool closed_ = false;
    TraceIoStatus status_ = TraceIoStatus::Ok;
};

/**
 * Persist an already-encoded columnar trace as a trace file through
 * the same temp + flush + atomic-rename commit protocol. This is the
 * TraceRepository's bulk path: capture encodes once, and committing
 * it to the cache is a framed buffer write instead of a second
 * per-record encode. The "trace_io.write" failpoint fires once per
 * block here (a trace is hundreds of blocks, so countdown specs still
 * land mid-file), "trace_io.commit" once at the rename.
 */
TraceIoStatus writeColumnarTraceFile(const std::string &path,
                                     const ColumnarTrace &trace);

/**
 * Stream a block span into `sink`, skipping its first `skip`
 * records and decoding every other block once into `scratch`. Blocks
 * are bounds-checked as they decode (not re-checksummed), so bytes
 * that changed since validation are a structured failure, never UB.
 *
 * On a file's span the "trace_io.read" failpoint keeps its
 * one-hit-per-record numbering: while any failpoint is armed it fires
 * once per delivered record, and a triggered hit hands the sink the
 * block's prefix before failing — the same records a record-at-a-time
 * reader would have delivered. Unarmed, the check is one relaxed load
 * per block. An in-memory span never fires it.
 *
 * A block holding a pc at or past `pcLimit` (the replayed program's
 * size: pcs are instruction indices) is Malformed, so the replay stops
 * with ChecksumMismatch before the sink sees any of that block: a
 * checksummed file with foreign pcs never reaches a consumer that
 * indexes the program by pc.
 *
 * @param[out] delivered Records handed to the sink (on failure too).
 * @param[out] blocks    Blocks decoded.
 * @param pcLimit        One past the largest pc the replay accepts.
 * @return Ok, or why the replay stopped early.
 */
TraceIoStatus replayTraceSpan(const ColumnarSpan &span, uint64_t skip,
                              TraceBlockScratch &scratch,
                              TraceBlockSink *sink, uint64_t *delivered,
                              uint64_t *blocks, uint64_t pcLimit);

/**
 * Reads a binary trace file. Records can be streamed into any
 * TraceSink (replay) or pulled one at a time; the blocks can also be
 * replayed straight from span() with replayTraceSpan, or copied out
 * as a ColumnarTrace.
 *
 * The file is opened once and mmap-ed (with a buffered-read
 * fallback); the header is read from that one mapping and the blocks
 * decode lazily, one per 4096 records. A mapped file is never modified
 * in place (see the file comment), so the reader can also hand its
 * whole payload out as a ColumnarSpan that lives as long as the
 * reader.
 *
 * Two opening modes:
 *  - The constructor is strict: any malformed file is fatal (a user
 *    handed us a broken file; the CLI wants the loud diagnostic).
 *  - tryOpen() is recoverable: it validates the header, the version,
 *    the block framing and (Full) the checksums, and returns
 *    nullptr plus a TraceIoStatus so callers (e.g. a trace cache
 *    probing for reusable files) can quarantine and regenerate.
 */
class TraceFileReader
{
  public:
    /** Open and validate; fatal on a malformed file. */
    explicit TraceFileReader(const std::string &path);

    ~TraceFileReader();

    /**
     * Open and validate a trace file without ever exiting.
     * @param[out] status Why the open failed (Ok on success).
     * @param verify How deep to validate (default: full checksum).
     * @return The reader, or nullptr when the file is unusable.
     */
    static std::unique_ptr<TraceFileReader>
    tryOpen(const std::string &path, TraceIoStatus *status = nullptr,
            TraceVerify verify = TraceVerify::Full);

    /** Records the header promises. */
    uint64_t recordCount() const { return count_; }

    /** Columnar blocks in the file. */
    uint64_t blockCount() const { return blockCount_; }

    /** Bytes of file this reader mapped (or buffered). */
    uint64_t mappedBytes() const { return mappedBytes_; }

    /**
     * Read the next record; false at end of trace. On an unexpected
     * short read the reader is fatal in strict mode and otherwise
     * stops, recording the error in status().
     */
    bool next(TraceRecord &rec);

    /** Stream every remaining record into a sink; returns how many. */
    uint64_t replay(TraceSink *sink);

    /**
     * The file's encoded payload as a block span into the reader's
     * mapping, valid while the reader lives.
     */
    ColumnarSpan span() const;

    /**
     * Copy the file's encoded payload into a ColumnarTrace (one buffer
     * copy, no decode). Always true: every file a reader opens holds
     * columnar blocks.
     */
    bool readColumnar(ColumnarTrace &out) const;

    /** Error state of the last operation (Ok while healthy). */
    TraceIoStatus status() const { return status_; }

  private:
    struct Unchecked
    {
    };

    TraceFileReader(const std::string &path, Unchecked);

    /**
     * Map (or buffer) the file, then validate its header and walk its
     * block framing (+ checksums when Full).
     */
    TraceIoStatus validate(TraceVerify verify);

    /** Map the open file `fd` of `size` bytes, or buffer it. */
    TraceIoStatus load(int fd, size_t size);

    /** Decode the block at the cursor into the scratch columns. */
    bool decodeNextBlock();

    /** Latch an error; fatal (with status name + path) when strict. */
    void fail(TraceIoStatus status);

    std::string path_;
    uint64_t count_ = 0;
    uint64_t read_ = 0;
    bool strict_ = true;
    TraceIoStatus status_ = TraceIoStatus::Ok;

    // The mapped file and the lazy block cursor.
    void *mapBase_ = nullptr;          // munmap target (nullptr: none)
    size_t mapSize_ = 0;
    std::vector<uint8_t> ownedBytes_;  // small files, or mmap failed
    const uint8_t *payload_ = nullptr; // blocks (file minus header)
    size_t payloadSize_ = 0;
    size_t blockOff_ = 0;              // next undecoded block
    uint64_t blockCount_ = 0;
    uint64_t mappedBytes_ = 0;
    std::unique_ptr<TraceBlockScratch> scratch_;
    TraceBlockView view_;
    uint32_t viewIdx_ = 0;             // consumed prefix of view_
};

} // namespace vpprof

#endif // VPPROF_VM_TRACE_IO_HH
