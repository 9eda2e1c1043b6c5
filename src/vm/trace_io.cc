#include "vm/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"

namespace vpprof
{

namespace
{

constexpr char kMagicPrefix[7] = {'V', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr size_t kHeaderBytes = 16;

/** Map the current errno of a failed write to a TraceIoStatus. */
TraceIoStatus
writeErrnoStatus()
{
    return errno == ENOSPC ? TraceIoStatus::NoSpace
                           : TraceIoStatus::WriteFailed;
}

/** The status an injected write-side fault stands for (Ok: none). */
TraceIoStatus
injectedWriteStatus(FailpointAction action)
{
    switch (action) {
      case FailpointAction::Fail: return TraceIoStatus::WriteFailed;
      case FailpointAction::NoSpace: return TraceIoStatus::NoSpace;
      default: return TraceIoStatus::Ok;
    }
}

std::string
tempPathFor(const std::string &path)
{
    return path + ".tmp." + std::to_string(::getpid());
}

/** Create `tmpPath` and write the header for `records` records. */
TraceIoStatus
beginTraceFile(std::ofstream &out, const std::string &tmpPath,
               uint64_t records)
{
    errno = 0;
    out.open(tmpPath, std::ios::binary | std::ios::trunc);
    if (!out)
        return TraceIoStatus::IoError;
    out.write(kMagicPrefix, sizeof(kMagicPrefix));
    out.write(&kTraceFormatVersion, 1);
    out.write(reinterpret_cast<const char *>(&records), 8);
    return out ? TraceIoStatus::Ok : writeErrnoStatus();
}

/**
 * The commit point of every trace file: flush `out`, fire the
 * "trace_io.commit" failpoint, close, and atomically rename `tmpPath`
 * over `path`, so the complete file replaces whatever was there in
 * one step. `status` carries any earlier failure; on any failure the
 * temp file is removed and `path` is untouched.
 */
TraceIoStatus
commitTraceFile(std::ofstream &out, const std::string &tmpPath,
                const std::string &path, TraceIoStatus status)
{
    if (status == TraceIoStatus::Ok) {
        errno = 0;
        out.flush();
        if (!out)
            status = writeErrnoStatus();
    }
    if (status == TraceIoStatus::Ok)
        status = injectedWriteStatus(
            FailpointRegistry::instance().fire("trace_io.commit"));
    out.close();
    if (status == TraceIoStatus::Ok && !out)
        status = writeErrnoStatus();
    if (status == TraceIoStatus::Ok) {
        errno = 0;
        if (std::rename(tmpPath.c_str(), path.c_str()) != 0)
            status = writeErrnoStatus();
    }
    if (status != TraceIoStatus::Ok)
        std::remove(tmpPath.c_str());  // never leave a torn temp
    return status;
}

} // namespace

const char *
traceIoStatusName(TraceIoStatus status)
{
    switch (status) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::IoError: return "io-error";
      case TraceIoStatus::ShortHeader: return "short-header";
      case TraceIoStatus::BadMagic: return "bad-magic";
      case TraceIoStatus::VersionMismatch: return "version-mismatch";
      case TraceIoStatus::Truncated: return "truncated";
      case TraceIoStatus::TruncatedFile: return "truncated-file";
      case TraceIoStatus::ChecksumMismatch: return "checksum-mismatch";
      case TraceIoStatus::WriteFailed: return "write-failed";
      case TraceIoStatus::NoSpace: return "no-space";
    }
    return "unknown";
}

TraceFileWriter::TraceFileWriter(const std::string &path)
    : path_(path), tmpPath_(tempPathFor(path))
{
    // The count is a placeholder until close() fixes it up.
    status_ = beginTraceFile(out_, tmpPath_, 0);
}

TraceFileWriter::~TraceFileWriter()
{
    if (!closed_ && close() != TraceIoStatus::Ok)
        vpprof_warn_limited(8, "trace file write failed (",
                            traceIoStatusName(status_), "): ", path_);
}

void
TraceFileWriter::flushBlock()
{
    if (encoder_.pending() == 0)
        return;
    blockBuf_.clear();
    encoder_.flush(blockBuf_);
    if (corruptPending_ > 0) {
        // The block checksum was computed over the bytes we *meant*
        // to write; damaging the payload now models a storage-level
        // flip that readers must catch.
        size_t payloadBytes = blockBuf_.size() - kTraceBlockHeaderBytes;
        for (uint64_t k = 0; k < corruptPending_; ++k)
            blockBuf_[kTraceBlockHeaderBytes + k % payloadBytes] ^= 0x5a;
        corruptPending_ = 0;
    }
    errno = 0;
    out_.write(reinterpret_cast<const char *>(blockBuf_.data()),
               static_cast<std::streamsize>(blockBuf_.size()));
    if (!out_)
        status_ = writeErrnoStatus();
}

void
TraceFileWriter::record(const TraceRecord &rec)
{
    if (closed_)
        vpprof_panic("TraceFileWriter::record after close");
    if (status_ != TraceIoStatus::Ok)
        return;  // error latched; close() surfaces it

    FailpointAction action =
        FailpointRegistry::instance().fire("trace_io.write");
    status_ = injectedWriteStatus(action);
    if (status_ != TraceIoStatus::Ok)
        return;
    if (action == FailpointAction::Corrupt)
        ++corruptPending_;
    encoder_.add(rec);
    if (encoder_.full())
        flushBlock();
    if (status_ == TraceIoStatus::Ok)
        ++count_;
}

TraceIoStatus
TraceFileWriter::close()
{
    if (closed_)
        return status_;
    closed_ = true;

    if (status_ == TraceIoStatus::Ok)
        flushBlock();  // the partial tail block
    if (status_ == TraceIoStatus::Ok) {
        errno = 0;
        out_.seekp(sizeof(kMagicPrefix) + 1);
        out_.write(reinterpret_cast<const char *>(&count_), 8);
        if (!out_)
            status_ = writeErrnoStatus();
    }
    status_ = commitTraceFile(out_, tmpPath_, path_, status_);
    return status_;
}

TraceIoStatus
writeColumnarTraceFile(const std::string &path, const ColumnarTrace &trace)
{
    std::string tmpPath = tempPathFor(path);
    std::ofstream out;
    TraceIoStatus status = beginTraceFile(out, tmpPath, trace.records);

    const uint8_t *data = trace.bytes.data();
    size_t remaining = trace.bytes.size();
    std::vector<uint8_t> damaged;  // only under injected corruption
    while (status == TraceIoStatus::Ok && remaining > 0) {
        size_t consumed = 0;
        uint32_t blockRecords = 0;
        if (probeTraceBlock(data, remaining, &consumed, &blockRecords,
                            false) != TraceBlockStatus::Ok)
            vpprof_panic("in-memory columnar trace has invalid framing "
                         "(memory corruption): ", path);
        const uint8_t *blockBytes = data;
        FailpointAction action =
            FailpointRegistry::instance().fire("trace_io.write");
        status = injectedWriteStatus(action);
        if (status != TraceIoStatus::Ok)
            break;
        if (action == FailpointAction::Corrupt) {
            damaged.assign(data, data + consumed);
            damaged[kTraceBlockHeaderBytes] ^= 0x5a;
            blockBytes = damaged.data();
        }
        errno = 0;
        out.write(reinterpret_cast<const char *>(blockBytes),
                  static_cast<std::streamsize>(consumed));
        if (!out)
            status = writeErrnoStatus();
        data += consumed;
        remaining -= consumed;
    }
    return commitTraceFile(out, tmpPath, path, status);
}

TraceIoStatus
replayTraceSpan(const ColumnarSpan &span, uint64_t skip,
                TraceBlockScratch &scratch, TraceBlockSink *sink,
                uint64_t *delivered, uint64_t *blocks, uint64_t pcLimit)
{
    auto blockFailure = [](TraceBlockStatus st) {
        return st == TraceBlockStatus::Truncated
                   ? TraceIoStatus::TruncatedFile
                   : TraceIoStatus::ChecksumMismatch;
    };
    FailpointRegistry &failpoints = FailpointRegistry::instance();
    const uint8_t *data = span.data;
    size_t remaining = span.size;
    uint64_t walked = 0;  // records in every block passed so far
    while (remaining > 0) {
        size_t consumed = 0;
        if (skip > 0) {
            // Hop whole blocks of an already-delivered prefix by their
            // framing alone.
            uint32_t count = 0;
            TraceBlockStatus st = probeTraceBlock(
                data, remaining, &consumed, &count, false);
            if (st != TraceBlockStatus::Ok)
                return blockFailure(st);
            if (count <= skip) {
                skip -= count;
                walked += count;
                data += consumed;
                remaining -= consumed;
                continue;
            }
        }
        TraceBlockView view;
        TraceBlockStatus st = decodeTraceBlock(data, remaining, scratch,
                                               view, &consumed, false);
        if (st != TraceBlockStatus::Ok)
            return blockFailure(st);
        ++*blocks;
        TraceBlockView block =
            view.slice(static_cast<uint32_t>(skip), view.count);
        skip = 0;
        uint64_t maxPc = 0;
        for (uint32_t i = 0; i < block.count; ++i)
            maxPc = std::max(maxPc, block.pc[i]);
        if (maxPc >= pcLimit)
            return blockFailure(TraceBlockStatus::Malformed);
        if (span.fromFile && failpoints.anyArmed()) {
            for (uint32_t i = 0; i < block.count; ++i) {
                FailpointAction action = failpoints.fire("trace_io.read");
                if (action != FailpointAction::Short &&
                    action != FailpointAction::Fail)
                    continue;
                if (i > 0)
                    sink->consumeBlock(block.slice(0, i));
                *delivered += i;
                return action == FailpointAction::Short
                           ? TraceIoStatus::Truncated
                           : TraceIoStatus::IoError;
            }
        }
        sink->consumeBlock(block);
        *delivered += block.count;
        walked += view.count;
        data += consumed;
        remaining -= consumed;
    }
    return walked == span.records ? TraceIoStatus::Ok
                                  : TraceIoStatus::Truncated;
}

TraceFileReader::TraceFileReader(const std::string &path, Unchecked)
    : path_(path)
{
}

TraceFileReader::~TraceFileReader()
{
    if (mapBase_ != nullptr)
        ::munmap(mapBase_, mapSize_);
}

TraceIoStatus
TraceFileReader::load(int fd, size_t size)
{
    if (size > kHeaderBytes) {
        void *base =
            ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (base != MAP_FAILED) {
            mapBase_ = base;
            mapSize_ = size;
            return TraceIoStatus::Ok;
        }
        // mmap can fail legitimately (map-count limits, exotic
        // filesystems); fall back to buffering the file.
    }
    ownedBytes_.resize(size);
    size_t got = 0;
    while (got < size) {
        ssize_t n = ::pread(fd, ownedBytes_.data() + got, size - got,
                            static_cast<off_t>(got));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return TraceIoStatus::IoError;
        got += static_cast<size_t>(n);
    }
    return TraceIoStatus::Ok;
}

TraceIoStatus
TraceFileReader::validate(TraceVerify verify)
{
    if (FailpointRegistry::instance().fire("trace_io.open") ==
        FailpointAction::Fail)
        return TraceIoStatus::IoError;
    int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        return TraceIoStatus::IoError;
    struct stat st;
    TraceIoStatus loaded = TraceIoStatus::IoError;
    size_t size = 0;
    if (::fstat(fd, &st) == 0) {
        size = static_cast<size_t>(st.st_size);
        loaded = load(fd, size);
    }
    ::close(fd);
    if (loaded != TraceIoStatus::Ok)
        return loaded;

    // The header, from the same bytes the blocks are read from.
    const uint8_t *bytes = mapBase_ != nullptr
                               ? static_cast<const uint8_t *>(mapBase_)
                               : ownedBytes_.data();
    if (size < sizeof(kMagicPrefix) + 1)
        return TraceIoStatus::ShortHeader;
    if (std::memcmp(bytes, kMagicPrefix, sizeof(kMagicPrefix)) != 0)
        return TraceIoStatus::BadMagic;
    if (bytes[sizeof(kMagicPrefix)] != kTraceFormatVersion)
        return TraceIoStatus::VersionMismatch;
    if (size < kHeaderBytes)
        return TraceIoStatus::ShortHeader;
    std::memcpy(&count_, bytes + sizeof(kMagicPrefix) + 1, 8);
    payload_ = bytes + kHeaderBytes;
    payloadSize_ = size - kHeaderBytes;
    mappedBytes_ = size;

    // Walk the block framing: every block must parse (and checksum,
    // under Full verification) and the per-block counts must sum to
    // exactly what the header promises. A writer that died before
    // close() leaves a torn tail block — the distinct TruncatedFile
    // status, so quarantine logs name the real failure. Bytes left
    // once the blocks hold every promised record are trailing
    // garbage, not a torn block: Truncated, however few they are.
    size_t off = 0;
    uint64_t total = 0;
    uint64_t blocks = 0;
    while (off < payloadSize_) {
        if (total == count_)
            return TraceIoStatus::Truncated;
        size_t consumed = 0;
        uint32_t blockRecords = 0;
        switch (probeTraceBlock(payload_ + off, payloadSize_ - off,
                                &consumed, &blockRecords,
                                verify == TraceVerify::Full)) {
          case TraceBlockStatus::Ok:
            break;
          case TraceBlockStatus::Truncated:
            vpprof_warn_limited(8, "trace file has a torn tail block (",
                                traceIoStatusName(
                                    TraceIoStatus::TruncatedFile),
                                "): ", path_);
            return TraceIoStatus::TruncatedFile;
          case TraceBlockStatus::ChecksumMismatch:
          case TraceBlockStatus::Malformed:
            // Framing fields that parse to nonsense are corruption,
            // same integrity boundary as a bad checksum.
            return TraceIoStatus::ChecksumMismatch;
        }
        total += blockRecords;
        blocks += 1;
        off += consumed;
        if (total > count_)
            return TraceIoStatus::Truncated;
    }
    if (total != count_)
        return TraceIoStatus::Truncated;
    blockCount_ = blocks;
    return TraceIoStatus::Ok;
}

TraceFileReader::TraceFileReader(const std::string &path)
    : TraceFileReader(path, Unchecked{})
{
    TraceIoStatus st = validate(TraceVerify::Full);
    switch (st) {
      case TraceIoStatus::Ok:
        return;
      case TraceIoStatus::IoError:
        vpprof_fatal("cannot open trace file (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::ShortHeader:
        vpprof_fatal("truncated trace header (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::BadMagic:
        vpprof_fatal("not a vpprof trace file (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::VersionMismatch:
        vpprof_fatal("unsupported trace file version (",
                     traceIoStatusName(st), "): ", path,
                     "; only version ", kTraceFormatVersion,
                     " is readable");
      case TraceIoStatus::Truncated:
        vpprof_fatal("truncated trace file (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::TruncatedFile:
        vpprof_fatal("torn trace file tail (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::ChecksumMismatch:
        vpprof_fatal("trace file checksum mismatch (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::WriteFailed:
      case TraceIoStatus::NoSpace:
        break;  // writer-side statuses; validate() never returns them
    }
    vpprof_panic("unexpected trace validation status");
}

std::unique_ptr<TraceFileReader>
TraceFileReader::tryOpen(const std::string &path, TraceIoStatus *status,
                         TraceVerify verify)
{
    std::unique_ptr<TraceFileReader> reader(
        new TraceFileReader(path, Unchecked{}));
    reader->strict_ = false;
    TraceIoStatus st = reader->validate(verify);
    if (status)
        *status = st;
    if (st != TraceIoStatus::Ok)
        return nullptr;
    return reader;
}

void
TraceFileReader::fail(TraceIoStatus status)
{
    status_ = status;
    if (strict_)
        vpprof_fatal("trace replay failed (",
                     traceIoStatusName(status), ") after ", read_,
                     " of ", count_, " records: ", path_);
}

bool
TraceFileReader::decodeNextBlock()
{
    // Allocated on first decode: a reader kept only for its span()
    // never pays for the decode columns.
    if (!scratch_)
        scratch_ = std::make_unique<TraceBlockScratch>();
    size_t consumed = 0;
    TraceBlockStatus st =
        decodeTraceBlock(payload_ + blockOff_, payloadSize_ - blockOff_,
                         *scratch_, view_, &consumed, false);
    if (st != TraceBlockStatus::Ok) {
        // Framing was validated at open, so reaching here means the
        // bytes changed underneath us (or HeaderOnly skipped a
        // damaged block) — an integrity failure either way.
        fail(st == TraceBlockStatus::Truncated
                 ? TraceIoStatus::TruncatedFile
                 : TraceIoStatus::ChecksumMismatch);
        return false;
    }
    blockOff_ += consumed;
    viewIdx_ = 0;
    return true;
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (status_ != TraceIoStatus::Ok || read_ >= count_)
        return false;

    switch (FailpointRegistry::instance().fire("trace_io.read")) {
      case FailpointAction::Short:
        fail(TraceIoStatus::Truncated);
        return false;
      case FailpointAction::Fail:
        fail(TraceIoStatus::IoError);
        return false;
      default:
        break;
    }

    if (viewIdx_ >= view_.count && !decodeNextBlock())
        return false;
    rec = view_.record(viewIdx_);
    ++viewIdx_;
    ++read_;
    return true;
}

uint64_t
TraceFileReader::replay(TraceSink *sink)
{
    uint64_t n = 0;
    TraceRecord rec;
    while (next(rec)) {
        sink->record(rec);
        ++n;
    }
    return n;
}

ColumnarSpan
TraceFileReader::span() const
{
    return {payload_, payloadSize_, count_, blockCount_, true};
}

bool
TraceFileReader::readColumnar(ColumnarTrace &out) const
{
    out.bytes.assign(payload_, payload_ + payloadSize_);
    out.records = count_;
    out.blocks = blockCount_;
    return true;
}

} // namespace vpprof
