/**
 * @file
 * The mini-ISA interpreter: executes a Program against a Memory and
 * emits a dynamic trace, fulfilling the tracing role the paper assigned
 * to the SHADE simulator.
 */

#ifndef VPPROF_VM_MACHINE_HH
#define VPPROF_VM_MACHINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "vm/memory.hh"
#include "vm/trace.hh"

namespace vpprof
{

/** Outcome of a Machine::run. */
struct RunResult
{
    uint64_t instructionsExecuted = 0;
    bool halted = false;  ///< true: reached Halt; false: hit the limit
};

/**
 * A single-program virtual machine.
 *
 * Semantics notes:
 *  - r0 reads as zero; writes to it are discarded (but still traced as
 *    value-producing, matching a real ISA where the value exists on the
 *    bypass even if architecturally dropped -- and matching SPARC %g0
 *    conventions the paper's SHADE traces would contain). Instructions
 *    that target r0 are rare in our workloads.
 *  - Integer division/remainder by zero yields 0 (deterministic, no
 *    trap), as does INT64_MIN / -1.
 *  - FP registers hold IEEE doubles; trace values carry the bit pattern.
 *  - Shift counts are masked to 0..63.
 */
class Machine
{
  public:
    /**
     * @param program Validated program to execute. The machine keeps
     *                its own copy, so temporaries (e.g. straight from
     *                ProgramBuilder::build()) are safe to pass.
     * @param image Initial memory/register contents.
     */
    Machine(Program program, const MemoryImage &image);

    /**
     * Execute from entry until Halt or max_insts retirements, calling
     * the sink through its virtual interface; a null sink builds no
     * record at all.
     */
    RunResult run(TraceSink *sink, uint64_t max_insts = kDefaultMaxInsts);

    /**
     * run() on a concrete sink type: the one interpreter loop is
     * compiled for `Sink`, so a `final` sink's record() inlines into
     * it. `Sink` needs only `void record(const TraceRecord &)`. The
     * loop is defined in vm/machine_loop.hh, which a translation unit
     * that instantiates it for a new sink type includes.
     */
    template <class Sink>
    RunResult runInto(Sink &sink, uint64_t max_insts = kDefaultMaxInsts);

    /** Architectural register read (r0 reads zero). */
    int64_t reg(RegId r) const { return r == kZeroReg ? 0 : regs_[r]; }

    /** Architectural register write (writes to r0 are dropped). */
    void
    setReg(RegId r, int64_t v)
    {
        if (r != kZeroReg)
            regs_[r] = v;
    }

    /** FP view of a register. */
    double regDouble(RegId r) const;

    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

    uint64_t pc() const { return pc_; }

    static constexpr uint64_t kDefaultMaxInsts = 400'000'000ull;

  private:
    /** The opcode traits the loop needs, decoded once per static
     *  instruction when the machine is built. */
    struct StaticTraits
    {
        bool writesReg = false;
        uint8_t numSrcs = 0;
    };

    Program program_;
    std::vector<StaticTraits> traits_;  ///< indexed by pc
    Memory memory_;
    std::array<int64_t, kNumRegs> regs_{};
    uint64_t pc_ = 0;
    uint64_t seq_ = 0;
};

} // namespace vpprof

#endif // VPPROF_VM_MACHINE_HH
