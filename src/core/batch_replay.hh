/**
 * @file
 * Batch replay: decode each cached trace block ONCE and fan it out to
 * many evaluators simultaneously — the paper's one-profile-serves-many
 * premise applied to our own replay layer. Where a configuration
 * sweep used to stream the same trace K times (once per evaluator,
 * each behind its own record-copying DirectiveOverrideSink), an
 * EvaluatorBank streams it once: the directive column is rewritten
 * per distinct annotation program (a column fill, not a per-record
 * copy), and each evaluator consumes the shared SoA view.
 *
 * Two consumer shapes share one fan-out:
 *  - block sinks (TraceBlockSink — the evaluators' native batch path)
 *    receive the column view directly;
 *  - record sinks (any existing TraceSink, e.g. the ILP dataflow
 *    engine) receive re-assembled records from the same decoded block.
 *
 * BlockAssembler is the bridge in the other direction: it turns any
 * record-level source (the repository's VM regeneration of a failed
 * replay's tail) into blocks feeding the same bank, so every replay
 * source — a mapped span or a fault-recovery tail — drives evaluators
 * through one code path and stays bit-identical to serial replay by
 * construction.
 */

#ifndef VPPROF_CORE_BATCH_REPLAY_HH
#define VPPROF_CORE_BATCH_REPLAY_HH

#include <memory>
#include <vector>

#include "isa/program.hh"
#include "vm/trace_block.hh"

namespace vpprof
{

/**
 * A set of trace consumers sharing one decode pass. Each slot
 * optionally names an annotation Program whose directives replace the
 * trace's own (the column form of DirectiveOverrideSink); slots
 * naming the same Program share one rewritten column per block.
 *
 * Not thread-safe: one bank drives one replay pass. Records are
 * delivered to every slot in registration order, in trace order —
 * exactly the stream a serial replay would deliver.
 */
class EvaluatorBank : public TraceBlockSink
{
  public:
    /** Add a record-level consumer (assembled per record). */
    void addRecordSink(TraceSink *sink,
                       const Program *annotation = nullptr);

    /** Add a column-level consumer (the fast path). */
    void addBlockSink(TraceBlockSink *sink,
                      const Program *annotation = nullptr);

    size_t size() const { return slots_.size(); }

    void consumeBlock(const TraceBlockView &block) override;

  private:
    struct Slot
    {
        TraceSink *sink = nullptr;       // exactly one of sink/block
        TraceBlockSink *block = nullptr;
        int dirColumn = -1;              // index into dirColumns_; -1 raw
    };

    int dirColumnFor(const Program *annotation);

    std::vector<Slot> slots_;
    std::vector<const Program *> programs_;
    std::vector<std::vector<uint8_t>> dirColumns_;
};

/**
 * TraceSink that regroups a record stream into blocks for a
 * TraceBlockSink (normally an EvaluatorBank). Call flush() after the
 * final record to deliver the partial tail block. Block boundaries
 * carry no meaning downstream, so a resumed recovery-ladder stream
 * re-blocked at different offsets is indistinguishable from the
 * original pass.
 */
class BlockAssembler : public TraceSink
{
  public:
    explicit BlockAssembler(TraceBlockSink *sink) : sink_(sink) {}

    ~BlockAssembler() override { flush(); }

    void
    record(const TraceRecord &rec) override
    {
        if (!scratch_)
            scratch_ = std::make_unique<TraceBlockScratch>();
        TraceBlockScratch &scratch = *scratch_;
        uint32_t i = count_;
        scratch.seq[i] = rec.seq;
        scratch.pc[i] = rec.pc;
        scratch.op[i] = static_cast<uint8_t>(rec.op);
        scratch.directive[i] = static_cast<uint8_t>(rec.directive);
        scratch.writesReg[i] = rec.writesReg ? 1 : 0;
        scratch.dest[i] = rec.dest;
        scratch.value[i] = rec.value;
        scratch.numSrcs[i] = rec.numSrcs;
        scratch.src0[i] = rec.srcs[0];
        scratch.src1[i] = rec.srcs[1];
        scratch.isMem[i] = rec.isMem ? 1 : 0;
        scratch.memAddr[i] = rec.memAddr;
        if (++count_ == kTraceBlockCapacity)
            flush();
    }

    /** Deliver buffered records as a (possibly partial) block. */
    void
    flush()
    {
        if (count_ == 0)
            return;
        sink_->consumeBlock(scratch_->view(count_, scratch_->seq[0]));
        count_ = 0;
    }

  private:
    TraceBlockSink *sink_;
    /** Allocated by the first record: an assembler that never
     *  receives one (a tee whose key was already produced) costs no
     *  staging columns. */
    std::unique_ptr<TraceBlockScratch> scratch_;
    uint32_t count_ = 0;
};

} // namespace vpprof

#endif // VPPROF_CORE_BATCH_REPLAY_HH
