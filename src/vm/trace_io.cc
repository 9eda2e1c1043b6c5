#include "vm/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
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

TraceIoStatus
writeColumnarTraceFile(const std::string &path, const ColumnarTrace &trace)
{
    std::string tmpPath = path + ".tmp." + std::to_string(::getpid());
    errno = 0;
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    if (!out)
        return TraceIoStatus::IoError;
    out.write(kMagicPrefix, sizeof(kMagicPrefix));
    out.write(&kTraceFormatVersion, 1);
    out.write(reinterpret_cast<const char *>(&trace.records), 8);
    TraceIoStatus status = out ? TraceIoStatus::Ok : writeErrnoStatus();

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
            // The block checksum covers the bytes we meant to write;
            // damaging the copy models a storage-level flip that
            // readers must catch.
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

    // The commit point: flush, fire "trace_io.commit", close, and
    // atomically rename the temp file over `path`, so the complete
    // file replaces whatever was there in one step. On any failure the
    // temp file is removed and `path` is untouched.
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
        if (pcLimit != kAnyPc) {
            uint64_t maxPc = 0;
            for (uint32_t i = 0; i < block.count; ++i)
                maxPc = std::max(maxPc, block.pc[i]);
            if (maxPc >= pcLimit)
                return blockFailure(TraceBlockStatus::Malformed);
        }
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

uint64_t
replayColumnarTrace(const ColumnarTrace &trace, TraceBlockScratch &scratch,
                    TraceBlockSink *sink)
{
    uint64_t delivered = 0, blocks = 0;
    TraceIoStatus status = replayTraceSpan(trace.span(), 0, scratch, sink,
                                           &delivered, &blocks, kAnyPc);
    if (status != TraceIoStatus::Ok)
        vpprof_panic("in-memory columnar trace failed to replay (",
                     traceIoStatusName(status), ", memory corruption) "
                     "after ", delivered, " of ", trace.records,
                     " records");
    return delivered;
}

TraceFileReader::~TraceFileReader()
{
    if (mapBase_ != nullptr)
        ::munmap(mapBase_, mapSize_);
}

TraceIoStatus
TraceFileReader::load(int fd, size_t size)
{
    if (size > kTraceFileHeaderBytes) {
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
    if (size < kTraceFileHeaderBytes)
        return TraceIoStatus::ShortHeader;
    std::memcpy(&count_, bytes + sizeof(kMagicPrefix) + 1, 8);
    payload_ = bytes + kTraceFileHeaderBytes;
    payloadSize_ = size - kTraceFileHeaderBytes;
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

std::unique_ptr<TraceFileReader>
TraceFileReader::tryOpen(const std::string &path, TraceIoStatus *status,
                         TraceVerify verify)
{
    std::unique_ptr<TraceFileReader> reader(new TraceFileReader(path));
    TraceIoStatus st = reader->validate(verify);
    if (status)
        *status = st;
    if (st != TraceIoStatus::Ok)
        return nullptr;
    return reader;
}

uint64_t
TraceFileReader::replay(TraceSink *sink)
{
    TraceBlockScratch scratch;
    RecordFanBlockSink fan(sink);
    uint64_t delivered = 0, blocks = 0;
    status_ = replayTraceSpan(span(), 0, scratch, &fan, &delivered,
                              &blocks, kAnyPc);
    return delivered;
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
