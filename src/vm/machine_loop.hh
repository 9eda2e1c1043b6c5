/**
 * @file
 * The interpreter loop, a template over the sink type. It is the
 * Machine's only interpreter body: machine.cc instantiates it on the
 * virtual TraceSink and on a no-op sink (Machine::run), and a caller
 * with a `final` sink (Session::collectProfile's ProfileCollector)
 * includes this header to instantiate it on that type, so the sink's
 * record() inlines and the record fields it never reads are never
 * built.
 */

#ifndef VPPROF_VM_MACHINE_LOOP_HH
#define VPPROF_VM_MACHINE_LOOP_HH

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "vm/machine.hh"

namespace vpprof
{

namespace machine_detail
{

/** Two's-complement wrapping add/sub/mul (no signed-overflow UB). */
inline int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

/** Signed division with deterministic handling of the UB cases. */
inline int64_t
safeDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a / b;
}

/** Signed remainder with deterministic handling of the UB cases. */
inline int64_t
safeRem(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a % b;
}

/** Truncating double->int64 conversion; NaN/out-of-range map to 0. */
inline int64_t
safeFtoi(double d)
{
    if (std::isnan(d) || d >= 9.223372036854776e18 ||
        d <= -9.223372036854776e18) {
        return 0;
    }
    return static_cast<int64_t>(d);
}

inline double
asDouble(int64_t bits)
{
    return std::bit_cast<double>(bits);
}

inline int64_t
asBits(double d)
{
    return std::bit_cast<int64_t>(d);
}

} // namespace machine_detail

template <class Sink>
RunResult
Machine::runInto(Sink &sink, uint64_t max_insts)
{
    using namespace machine_detail;

    RunResult result;
    const Instruction *insts = program_.instructions().data();
    const StaticTraits *traits = traits_.data();
    const uint64_t size = program_.size();
    // The pc and the counters live in locals while the loop runs: a
    // store to memory or a register is an int64_t write, which the
    // compiler would otherwise have to assume may alias them.
    uint64_t pc = pc_;
    uint64_t seq = seq_;
    uint64_t executed = 0;

    while (executed < max_insts) {
        if (pc >= size)
            vpprof_fatal("pc ", pc, " fell off program '",
                         program_.name(), "'");
        const Instruction &inst = insts[pc];
        const StaticTraits decoded = traits[pc];

        TraceRecord rec;
        rec.seq = seq;
        rec.pc = pc;
        rec.op = inst.op;
        rec.directive = inst.directive;
        rec.writesReg = decoded.writesReg;
        rec.dest = inst.dest;
        rec.numSrcs = decoded.numSrcs;
        rec.srcs = {inst.src1, inst.src2};

        uint64_t next_pc = pc + 1;
        int64_t a = reg(inst.src1);
        int64_t b = reg(inst.src2);
        int64_t value = 0;

        switch (inst.op) {
          case Opcode::Add: value = wrapAdd(a, b); break;
          case Opcode::Sub: value = wrapSub(a, b); break;
          case Opcode::Mul: value = wrapMul(a, b); break;
          case Opcode::Div: value = safeDiv(a, b); break;
          case Opcode::Rem: value = safeRem(a, b); break;
          case Opcode::And: value = a & b; break;
          case Opcode::Or: value = a | b; break;
          case Opcode::Xor: value = a ^ b; break;
          case Opcode::Shl:
            value = static_cast<int64_t>(
                static_cast<uint64_t>(a) << (b & 63));
            break;
          case Opcode::Shr:
            value = static_cast<int64_t>(
                static_cast<uint64_t>(a) >> (b & 63));
            break;
          case Opcode::Sar: value = a >> (b & 63); break;
          case Opcode::Slt: value = a < b ? 1 : 0; break;
          case Opcode::Sltu:
            value = static_cast<uint64_t>(a) < static_cast<uint64_t>(b)
                ? 1 : 0;
            break;

          case Opcode::Addi: value = wrapAdd(a, inst.imm); break;
          case Opcode::Subi: value = wrapSub(a, inst.imm); break;
          case Opcode::Muli: value = wrapMul(a, inst.imm); break;
          case Opcode::Divi: value = safeDiv(a, inst.imm); break;
          case Opcode::Remi: value = safeRem(a, inst.imm); break;
          case Opcode::Andi: value = a & inst.imm; break;
          case Opcode::Ori: value = a | inst.imm; break;
          case Opcode::Xori: value = a ^ inst.imm; break;
          case Opcode::Shli:
            value = static_cast<int64_t>(
                static_cast<uint64_t>(a) << (inst.imm & 63));
            break;
          case Opcode::Shri:
            value = static_cast<int64_t>(
                static_cast<uint64_t>(a) >> (inst.imm & 63));
            break;
          case Opcode::Sari: value = a >> (inst.imm & 63); break;
          case Opcode::Slti: value = a < inst.imm ? 1 : 0; break;

          case Opcode::Mov: value = a; break;
          case Opcode::Movi: value = inst.imm; break;

          case Opcode::Ld:
            rec.isMem = true;
            rec.memAddr = static_cast<uint64_t>(wrapAdd(a, inst.imm));
            value = memory_.load(rec.memAddr);
            break;
          case Opcode::St:
            rec.isMem = true;
            rec.memAddr = static_cast<uint64_t>(wrapAdd(a, inst.imm));
            memory_.store(rec.memAddr, b);
            break;

          case Opcode::Fadd:
            value = asBits(asDouble(a) + asDouble(b));
            break;
          case Opcode::Fsub:
            value = asBits(asDouble(a) - asDouble(b));
            break;
          case Opcode::Fmul:
            value = asBits(asDouble(a) * asDouble(b));
            break;
          case Opcode::Fdiv:
            value = asBits(asDouble(a) / asDouble(b));
            break;
          case Opcode::Fmov: value = a; break;
          case Opcode::Fneg: value = asBits(-asDouble(a)); break;
          case Opcode::Fabs: value = asBits(std::fabs(asDouble(a))); break;
          case Opcode::Fmin:
            value = asBits(std::fmin(asDouble(a), asDouble(b)));
            break;
          case Opcode::Fmax:
            value = asBits(std::fmax(asDouble(a), asDouble(b)));
            break;
          case Opcode::Fsqrt:
            value = asBits(std::sqrt(asDouble(a)));
            break;
          case Opcode::Itof:
            value = asBits(static_cast<double>(a));
            break;
          case Opcode::Ftoi:
            value = safeFtoi(asDouble(a));
            break;

          case Opcode::Fld:
            rec.isMem = true;
            rec.memAddr = static_cast<uint64_t>(wrapAdd(a, inst.imm));
            value = memory_.load(rec.memAddr);
            break;
          case Opcode::Fst:
            rec.isMem = true;
            rec.memAddr = static_cast<uint64_t>(wrapAdd(a, inst.imm));
            memory_.store(rec.memAddr, b);
            break;

          case Opcode::Beq:
            if (a == b)
                next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Bne:
            if (a != b)
                next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Blt:
            if (a < b)
                next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Bge:
            if (a >= b)
                next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Bltu:
            if (static_cast<uint64_t>(a) < static_cast<uint64_t>(b))
                next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Fblt:
            if (asDouble(a) < asDouble(b))
                next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Jmp:
            next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::Call:
            value = static_cast<int64_t>(pc + 1);
            next_pc = static_cast<uint64_t>(inst.imm);
            break;
          case Opcode::JmpR:
            next_pc = static_cast<uint64_t>(a);
            break;

          case Opcode::Nop:
            break;
          case Opcode::Halt:
            result.halted = true;
            break;

          case Opcode::NumOpcodes:
            vpprof_panic("executing NumOpcodes");
        }

        if (rec.writesReg) {
            rec.value = value;
            setReg(inst.dest, value);
        }

        ++seq;
        ++executed;
        sink.record(rec);

        if (result.halted)
            break;
        pc = next_pc;
    }

    pc_ = pc;
    seq_ = seq;
    result.instructionsExecuted = executed;
    return result;
}

} // namespace vpprof

#endif // VPPROF_VM_MACHINE_LOOP_HH
