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
 * One writer, one reader: a trace is encoded in memory
 * (ColumnarTraceBuilder) and writeColumnarTraceFile frames its blocks
 * into a file; TraceFileReader::tryOpen maps and validates a file, and
 * replayTraceSpan walks the blocks of a file or of an in-memory trace.
 *
 * Durability: the writer writes `<path>.tmp.<pid>` and commits with
 * flush + atomic rename, so a crash at any point leaves either the
 * complete old file or the complete new file at `path` — never a torn
 * one. tryOpen validates the magic, the version, the block framing,
 * and (Full verify) every block checksum, reporting structured
 * TraceIoStatus errors instead of silently truncating. A file whose
 * tail block was torn off reports the distinct TruncatedFile status
 * so quarantine logs name the actual failure.
 *
 * Immutability: a committed file is never modified in place — the
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

/** Bytes of the file header before the first block; a committed file
 *  is this plus its ColumnarTrace::bytes. */
constexpr size_t kTraceFileHeaderBytes = 16;

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
 * Persist an encoded columnar trace (a ColumnarTraceBuilder's output)
 * as a trace file: the header, then the trace's blocks as they are,
 * through the temp + flush + atomic-rename commit. The whole trace is
 * in memory before the file is written. The "trace_io.write"
 * failpoint fires once per block (a trace is hundreds of blocks, so
 * countdown specs still land mid-file), "trace_io.commit" once at the
 * rename. Failures (including a full disk) are returned, never fatal,
 * so callers choose between loud errors (the CLI) and graceful
 * degradation (the trace cache); on failure `path` is untouched.
 */
TraceIoStatus writeColumnarTraceFile(const std::string &path,
                                     const ColumnarTrace &trace);

/** A replayTraceSpan pcLimit that accepts every pc. */
constexpr uint64_t kAnyPc = ~uint64_t{0};

/**
 * Stream a block span into `sink`, skipping its first `skip`
 * records and decoding every other block once into `scratch`. Blocks
 * are bounds-checked as they decode (not re-checksummed), so bytes
 * that changed since validation are a structured failure, never UB.
 * This is the one loop that walks blocks: file replays, cache replays
 * and in-memory replays (replayColumnarTrace) all run it.
 *
 * On a file's span the "trace_io.read" failpoint fires once per
 * delivered record while any failpoint is armed, and a triggered hit
 * hands the sink the block's prefix before failing, so hit N fails
 * the replay after exactly N - 1 records. Unarmed, the check is one
 * relaxed load per block. An in-memory span never fires it.
 *
 * A block holding a pc at or past `pcLimit` (the replayed program's
 * size: pcs are instruction indices) is Malformed, so the replay stops
 * with ChecksumMismatch before the sink sees any of that block: a
 * checksummed file with foreign pcs never reaches a consumer that
 * indexes the program by pc. kAnyPc skips the check.
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
 * Stream a ColumnarTrace's blocks through `sink` (replayTraceSpan over
 * trace.span(), any pc accepted). Returns records delivered. The
 * encoded bytes were produced in-process, so decoding is infallible
 * here (a failure panics — it would be memory corruption, not an I/O
 * condition).
 */
uint64_t replayColumnarTrace(const ColumnarTrace &trace,
                             TraceBlockScratch &scratch,
                             TraceBlockSink *sink);

/**
 * Reads a binary trace file. tryOpen() maps the file once (with a
 * buffered-read fallback) and validates the header, the version, the
 * block framing and (Full) the checksums; it returns nullptr plus a
 * TraceIoStatus for an unusable file, so a trace cache probing for
 * reusable files can quarantine and regenerate, and the CLI can name
 * the status and the path in its fatal line.
 *
 * A mapped file is never modified in place (see the file comment), so
 * the reader hands its whole payload out as a ColumnarSpan that lives
 * as long as the reader: replay() streams it into any TraceSink,
 * replayTraceSpan into a block sink, and readColumnar() copies it.
 */
class TraceFileReader
{
  public:
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
     * Stream every record, from the first, into a sink (replayTraceSpan
     * over span(), any pc accepted); returns how many were delivered.
     * A replay that stops early records why in status().
     */
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

    /** Outcome of the last replay() (Ok while healthy). */
    TraceIoStatus status() const { return status_; }

  private:
    explicit TraceFileReader(const std::string &path) : path_(path) {}

    /**
     * Map (or buffer) the file, then validate its header and walk its
     * block framing (+ checksums when Full).
     */
    TraceIoStatus validate(TraceVerify verify);

    /** Map the open file `fd` of `size` bytes, or buffer it. */
    TraceIoStatus load(int fd, size_t size);

    std::string path_;
    uint64_t count_ = 0;
    TraceIoStatus status_ = TraceIoStatus::Ok;

    // The mapped file.
    void *mapBase_ = nullptr;          // munmap target (nullptr: none)
    size_t mapSize_ = 0;
    std::vector<uint8_t> ownedBytes_;  // small files, or mmap failed
    const uint8_t *payload_ = nullptr; // blocks (file minus header)
    size_t payloadSize_ = 0;
    uint64_t blockCount_ = 0;
    uint64_t mappedBytes_ = 0;
};

} // namespace vpprof

#endif // VPPROF_VM_TRACE_IO_HH
