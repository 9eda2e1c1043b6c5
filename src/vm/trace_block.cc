#include "vm/trace_block.hh"

#include <cstring>

#include "common/checksum.hh"
#include "common/logging.hh"

namespace vpprof
{

namespace
{

// Block flag bits (header `flags` field).
constexpr uint32_t kFlagSeqExplicit = 1u << 0; ///< seq column present
constexpr uint32_t kFlagValueDense = 1u << 1;  ///< value for all records
constexpr uint32_t kFlagMemDense = 1u << 2;    ///< memAddr for all records
constexpr uint32_t kFlagKnownMask =
    kFlagSeqExplicit | kFlagValueDense | kFlagMemDense;

// Header field offsets within the 28-byte block header. The checksum
// is stored last and covers the preceding header bytes plus the
// payload, so corruption of the framing itself (count, size, firstSeq)
// is caught, not just payload damage.
constexpr size_t kOffCount = 0;
constexpr size_t kOffPayloadBytes = 4;
constexpr size_t kOffFirstSeq = 8;
constexpr size_t kOffFlags = 16;
constexpr size_t kOffChecksum = 20;

/** XXH64 of the header bytes before the checksum, then of the payload
 *  seeded with that. */
uint64_t
blockChecksum(const uint8_t *header, size_t payloadBytes)
{
    uint64_t sum = xxh64(header, kOffChecksum, kTraceBlockChecksumSeed);
    return xxh64(header + kTraceBlockHeaderBytes, payloadBytes, sum);
}

// The largest block the encoder can emit: per record four 10-byte
// varints (seq, pc, value, memAddr), two 8-bit dictionary indices,
// three raw register bytes and a flags nibble (rounded up to a byte);
// per block the header and two full 256-entry dictionaries with their
// u16 sizes.
constexpr size_t kMaxVarintBytes = 10;
constexpr size_t kMaxRecordBytes = 4 * kMaxVarintBytes + 2 + 3 + 1;
constexpr size_t kMaxDictBytes = 2 + 256;
constexpr size_t kMaxBlockBytes = kTraceBlockHeaderBytes +
                                  kTraceBlockCapacity * kMaxRecordBytes +
                                  2 * kMaxDictBytes;

void
putU32(uint8_t *out, uint32_t v)
{
    out[0] = uint8_t(v);
    out[1] = uint8_t(v >> 8);
    out[2] = uint8_t(v >> 16);
    out[3] = uint8_t(v >> 24);
}

void
putU64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = uint8_t(v >> (8 * i));
}

uint32_t
getU32(const uint8_t *in)
{
    return uint32_t(in[0]) | uint32_t(in[1]) << 8 | uint32_t(in[2]) << 16 |
           uint32_t(in[3]) << 24;
}

uint64_t
getU64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(in[i]) << (8 * i);
    return v;
}

// Zigzag maps small-magnitude signed deltas (positive or negative) to
// small unsigned varints. Deltas are computed in uint64 so wraparound
// is well defined for arbitrary 64-bit jumps.
uint64_t
zigzag(uint64_t delta)
{
    int64_t s = int64_t(delta);
    return (uint64_t(s) << 1) ^ uint64_t(s >> 63);
}

uint64_t
unzigzag(uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

/** Write `v` as an LEB128 varint at `p`; returns the byte after it. */
uint8_t *
putVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
}

// Bounds-checked byte cursor over untrusted payload bytes. Reads past
// the end latch `ok` false and return zeros; callers check once per
// column rather than per byte.
struct Cursor
{
    const uint8_t *p;
    const uint8_t *end;
    bool ok = true;

    uint64_t
    varint()
    {
        uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (p == end || shift > 63) {
                ok = false;
                return 0;
            }
            uint8_t b = *p++;
            v |= uint64_t(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    const uint8_t *
    bytes(size_t n)
    {
        if (size_t(end - p) < n) {
            ok = false;
            return nullptr;
        }
        const uint8_t *at = p;
        p += n;
        return at;
    }

    uint16_t
    u16()
    {
        const uint8_t *b = bytes(2);
        if (!b)
            return 0;
        return uint16_t(b[0]) | uint16_t(b[1]) << 8;
    }
};

int
bitsFor(size_t dictSize)
{
    int bits = 0;
    while ((size_t(1) << bits) < dictSize)
        ++bits;
    return bits;
}

// Dictionary-code one byte column at `p`: u16 dict size, the dict
// bytes in first-appearance order, then LSB-first bit-packed indices,
// stored 32 bits at a time. A column with one distinct value costs 3
// bytes for the whole block. Returns the byte after the column.
uint8_t *
encodeDictColumn(uint8_t *p, const uint8_t *col, uint32_t count)
{
    uint8_t index[256];
    uint8_t dict[256];
    bool seen[256] = {};
    size_t dictSize = 0;
    for (uint32_t i = 0; i < count; ++i) {
        uint8_t v = col[i];
        if (!seen[v]) {
            seen[v] = true;
            index[v] = uint8_t(dictSize);
            dict[dictSize++] = v;
        }
    }
    *p++ = uint8_t(dictSize);
    *p++ = uint8_t(dictSize >> 8);
    std::memcpy(p, dict, dictSize);
    p += dictSize;
    int width = bitsFor(dictSize);
    if (width == 0)
        return p;
    uint64_t acc = 0;
    int accBits = 0;
    for (uint32_t i = 0; i < count; ++i) {
        acc |= uint64_t(index[col[i]]) << accBits;
        accBits += width;
        if (accBits >= 32) {
            putU32(p, uint32_t(acc));
            p += 4;
            acc >>= 32;
            accBits -= 32;
        }
    }
    for (; accBits > 0; accBits -= 8) {
        *p++ = uint8_t(acc);
        acc >>= 8;
    }
    return p;
}

bool
decodeDictColumn(Cursor &cur, uint8_t *col, uint32_t count)
{
    uint16_t dictSize = cur.u16();
    if (!cur.ok || dictSize == 0 || dictSize > 256)
        return false;
    const uint8_t *dict = cur.bytes(dictSize);
    if (!dict)
        return false;
    int width = bitsFor(dictSize);
    if (width == 0) {
        std::memset(col, dict[0], count);
        return true;
    }
    size_t packed = (size_t(count) * width + 7) / 8;
    const uint8_t *bits = cur.bytes(packed);
    if (!bits)
        return false;
    uint64_t acc = 0;
    int accBits = 0;
    size_t next = 0;
    uint32_t mask = (1u << width) - 1;
    for (uint32_t i = 0; i < count; ++i) {
        while (accBits < width) {
            acc |= uint64_t(bits[next++]) << accBits;
            accBits += 8;
        }
        uint32_t idx = uint32_t(acc) & mask;
        acc >>= width;
        accBits -= width;
        if (idx >= dictSize)
            return false;
        col[i] = dict[idx];
    }
    return true;
}

} // namespace

TraceBlockScratch::TraceBlockScratch()
    : seq(kTraceBlockCapacity), pc(kTraceBlockCapacity),
      memAddr(kTraceBlockCapacity), value(kTraceBlockCapacity),
      op(kTraceBlockCapacity), directive(kTraceBlockCapacity),
      writesReg(kTraceBlockCapacity), isMem(kTraceBlockCapacity),
      numSrcs(kTraceBlockCapacity), dest(kTraceBlockCapacity),
      src0(kTraceBlockCapacity), src1(kTraceBlockCapacity)
{
}

TraceBlockView
TraceBlockScratch::view(uint32_t count, uint64_t firstSeq) const
{
    TraceBlockView v;
    v.count = count;
    v.firstSeq = firstSeq;
    v.seq = seq.data();
    v.pc = pc.data();
    v.op = op.data();
    v.directive = directive.data();
    v.writesReg = writesReg.data();
    v.dest = dest.data();
    v.value = value.data();
    v.numSrcs = numSrcs.data();
    v.src0 = src0.data();
    v.src1 = src1.data();
    v.isMem = isMem.data();
    v.memAddr = memAddr.data();
    return v;
}

TraceBlockEncoder::TraceBlockEncoder()
    : stage_(std::make_unique_for_overwrite<Stage>()),
      block_(std::make_unique_for_overwrite<uint8_t[]>(kMaxBlockBytes))
{
}

void
TraceBlockEncoder::add(const TraceRecord &rec)
{
    const uint32_t i = count_;
    if (i == kTraceBlockCapacity)
        vpprof_panic("trace block encoder overflow: flush() not called");
    if (rec.numSrcs > 3)
        vpprof_panic("trace record numSrcs ", int(rec.numSrcs),
                     " exceeds the v3 format limit of 3");
    if (i == 0) {
        firstSeq_ = rec.seq;
        seqContiguous_ = true;
        valueDense_ = false;
        memDense_ = false;
    } else if (rec.seq != firstSeq_ + i) {
        seqContiguous_ = false;
    }
    if (!rec.writesReg && rec.value != 0)
        valueDense_ = true;
    if (!rec.isMem && rec.memAddr != 0)
        memDense_ = true;
    count_ = i + 1;
    // Through a local pointer: the byte stores below may alias any
    // member, so each would otherwise reload the column address.
    Stage *s = stage_.get();
    s->seq[i] = rec.seq;
    s->pc[i] = rec.pc;
    s->value[i] = uint64_t(rec.value);
    s->memAddr[i] = rec.memAddr;
    s->op[i] = uint8_t(rec.op);
    s->directive[i] = uint8_t(rec.directive);
    s->flags[i] = uint8_t((rec.writesReg ? 1 : 0) | (rec.isMem ? 2 : 0) |
                          rec.numSrcs << 2);
    s->dest[i] = rec.dest;
    s->src0[i] = rec.srcs[0];
    s->src1[i] = rec.srcs[1];
}

void
TraceBlockEncoder::flush(std::vector<uint8_t> &out)
{
    const uint32_t count = count_;
    if (count == 0)
        vpprof_panic("flush() on an empty trace block encoder");
    const uint64_t firstSeq = firstSeq_;
    const bool valueDense = valueDense_;
    const bool memDense = memDense_;
    uint32_t flags = 0;
    if (!seqContiguous_)
        flags |= kFlagSeqExplicit;
    if (valueDense)
        flags |= kFlagValueDense;
    if (memDense)
        flags |= kFlagMemDense;

    const Stage *s = stage_.get();
    uint8_t *const header = block_.get();
    uint8_t *p = header + kTraceBlockHeaderBytes;

    // Payload columns, in fixed order.
    if (flags & kFlagSeqExplicit) {
        uint64_t prev = firstSeq;
        for (uint32_t i = 0; i < count; ++i) {
            p = putVarint(p, zigzag(s->seq[i] - prev));
            prev = s->seq[i];
        }
    }
    uint64_t prevPc = 0;
    for (uint32_t i = 0; i < count; ++i) {
        p = putVarint(p, zigzag(s->pc[i] - prevPc));
        prevPc = s->pc[i];
    }
    p = encodeDictColumn(p, s->op, count);
    p = encodeDictColumn(p, s->directive, count);
    // writesReg | isMem | numSrcs, two records per byte.
    for (uint32_t i = 0; i + 1 < count; i += 2)
        *p++ = uint8_t(s->flags[i] | s->flags[i + 1] << 4);
    if (count & 1)
        *p++ = s->flags[count - 1];
    std::memcpy(p, s->dest, count);
    std::memcpy(p + count, s->src0, count);
    std::memcpy(p + 2 * count, s->src1, count);
    p += 3 * count;
    uint64_t prevValue = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (!valueDense && !(s->flags[i] & 1))
            continue;
        p = putVarint(p, zigzag(s->value[i] - prevValue));
        prevValue = s->value[i];
    }
    uint64_t prevAddr = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (!memDense && !(s->flags[i] & 2))
            continue;
        p = putVarint(p, zigzag(s->memAddr[i] - prevAddr));
        prevAddr = s->memAddr[i];
    }

    size_t payloadBytes = size_t(p - header) - kTraceBlockHeaderBytes;
    putU32(header + kOffCount, count);
    putU32(header + kOffPayloadBytes, uint32_t(payloadBytes));
    putU64(header + kOffFirstSeq, firstSeq);
    putU32(header + kOffFlags, flags);
    putU64(header + kOffChecksum, blockChecksum(header, payloadBytes));
    out.insert(out.end(), header, p);

    count_ = 0;
}

TraceBlockStatus
probeTraceBlock(const uint8_t *data, size_t size, size_t *consumed,
                uint32_t *count, bool verifyChecksum)
{
    if (size < kTraceBlockHeaderBytes)
        return TraceBlockStatus::Truncated;
    uint32_t n = getU32(data + kOffCount);
    uint32_t payloadBytes = getU32(data + kOffPayloadBytes);
    uint32_t flags = getU32(data + kOffFlags);
    if (n == 0 || n > kTraceBlockCapacity || (flags & ~kFlagKnownMask))
        return TraceBlockStatus::Malformed;
    if (payloadBytes > size - kTraceBlockHeaderBytes)
        return TraceBlockStatus::Truncated;
    if (verifyChecksum &&
        blockChecksum(data, payloadBytes) != getU64(data + kOffChecksum))
        return TraceBlockStatus::ChecksumMismatch;
    *consumed = kTraceBlockHeaderBytes + payloadBytes;
    *count = n;
    return TraceBlockStatus::Ok;
}

TraceBlockStatus
decodeTraceBlock(const uint8_t *data, size_t size,
                 TraceBlockScratch &scratch, TraceBlockView &view,
                 size_t *consumed, bool verifyChecksum)
{
    uint32_t count = 0;
    TraceBlockStatus st =
        probeTraceBlock(data, size, consumed, &count, verifyChecksum);
    if (st != TraceBlockStatus::Ok)
        return st;
    uint64_t firstSeq = getU64(data + kOffFirstSeq);
    uint32_t flags = getU32(data + kOffFlags);
    uint32_t payloadBytes = getU32(data + kOffPayloadBytes);
    Cursor cur{data + kTraceBlockHeaderBytes,
               data + kTraceBlockHeaderBytes + payloadBytes};

    if (flags & kFlagSeqExplicit) {
        uint64_t prev = firstSeq;
        for (uint32_t i = 0; i < count; ++i) {
            prev += unzigzag(cur.varint());
            scratch.seq[i] = prev;
        }
    } else {
        for (uint32_t i = 0; i < count; ++i)
            scratch.seq[i] = firstSeq + i;
    }
    uint64_t prevPc = 0;
    for (uint32_t i = 0; i < count; ++i) {
        prevPc += unzigzag(cur.varint());
        scratch.pc[i] = prevPc;
    }
    if (!cur.ok || !decodeDictColumn(cur, scratch.op.data(), count) ||
        !decodeDictColumn(cur, scratch.directive.data(), count)) {
        return TraceBlockStatus::Malformed;
    }
    const uint8_t *nibbles = cur.bytes((count + 1) / 2);
    if (!nibbles)
        return TraceBlockStatus::Malformed;
    for (uint32_t i = 0; i < count; ++i) {
        uint8_t nib = nibbles[i / 2] >> (4 * (i & 1)) & 0x0f;
        scratch.writesReg[i] = nib & 1;
        scratch.isMem[i] = nib >> 1 & 1;
        scratch.numSrcs[i] = nib >> 2 & 3;
    }
    const uint8_t *destCol = cur.bytes(count);
    const uint8_t *src0Col = cur.bytes(count);
    const uint8_t *src1Col = cur.bytes(count);
    if (!src1Col)
        return TraceBlockStatus::Malformed;
    std::memcpy(scratch.dest.data(), destCol, count);
    std::memcpy(scratch.src0.data(), src0Col, count);
    std::memcpy(scratch.src1.data(), src1Col, count);
    bool valueDense = (flags & kFlagValueDense) != 0;
    uint64_t prevValue = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (valueDense || scratch.writesReg[i]) {
            prevValue += unzigzag(cur.varint());
            scratch.value[i] = int64_t(prevValue);
        } else {
            scratch.value[i] = 0;
        }
    }
    bool memDense = (flags & kFlagMemDense) != 0;
    uint64_t prevAddr = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (memDense || scratch.isMem[i]) {
            prevAddr += unzigzag(cur.varint());
            scratch.memAddr[i] = prevAddr;
        } else {
            scratch.memAddr[i] = 0;
        }
    }
    if (!cur.ok || cur.p != cur.end)
        return TraceBlockStatus::Malformed;
    view = scratch.view(count, firstSeq);
    return TraceBlockStatus::Ok;
}

} // namespace vpprof
