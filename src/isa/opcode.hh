/**
 * @file
 * The vpprof mini-ISA opcode set and its static traits.
 *
 * The ISA is a small load/store RISC machine rich enough to express the
 * nine SPEC95-like workloads: integer ALU ops (register and immediate
 * forms), 64-bit word-addressed loads/stores, IEEE double FP ops, and
 * compare-and-branch control flow with call/return.
 *
 * Traits answer the questions the paper's measurements need: does an
 * instruction write a destination register (only those participate in
 * value prediction), and which Table 2.1 category does it belong to
 * (integer ALU / integer load / FP computation / FP load)?
 */

#ifndef VPPROF_ISA_OPCODE_HH
#define VPPROF_ISA_OPCODE_HH

#include <cstdint>
#include <string_view>

namespace vpprof
{

enum class Opcode : uint8_t
{
    // Integer ALU, register-register.
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Sar, Slt, Sltu,
    // Integer ALU, register-immediate.
    Addi, Subi, Muli, Divi, Remi, Andi, Ori, Xori, Shli, Shri, Sari, Slti,
    // Register moves and constants.
    Mov, Movi,
    // Integer memory: Ld rd, [rs1 + imm]; St [rs1 + imm], rs2.
    Ld, St,
    // Floating point (operands are FP registers holding doubles).
    Fadd, Fsub, Fmul, Fdiv, Fmov, Fneg, Fabs, Fmin, Fmax, Fsqrt,
    // FP/int conversion: Itof fd, rs1; Ftoi rd, fs1 (truncating).
    Itof, Ftoi,
    // FP memory: Fld fd, [rs1 + imm]; Fst [rs1 + imm], fs2.
    Fld, Fst,
    // Control flow. Branch targets are absolute instruction indices
    // carried in imm. Fblt compares two FP registers.
    Beq, Bne, Blt, Bge, Bltu, Fblt, Jmp,
    // Call saves the return index into the dest register (conventionally
    // the link register); JmpR jumps to the index held in src1.
    Call, JmpR,
    Nop, Halt,

    NumOpcodes
};

/** Table 2.1's instruction categories, plus the non-producing kinds. */
enum class OpClass : uint8_t
{
    IntAlu,   ///< integer ALU producing a register value
    IntLoad,  ///< integer load
    FpAlu,    ///< FP computation producing a register value
    FpLoad,   ///< FP load
    Store,    ///< memory store (no destination register)
    Control,  ///< branches, jumps, call/return
    Other     ///< Nop/Halt
};

/** Number of source register operands (0..2) read by an opcode. */
unsigned numSources(Opcode op);

/** True when the opcode writes a destination register. */
bool writesRegister(Opcode op);

/** True for Ld/Fld. */
constexpr bool
isLoad(Opcode op)
{
    return op == Opcode::Ld || op == Opcode::Fld;
}

/** True for St/Fst. */
constexpr bool
isStore(Opcode op)
{
    return op == Opcode::St || op == Opcode::Fst;
}

/** True when destination and sources are FP registers. */
constexpr bool
isFp(Opcode op)
{
    switch (op) {
      case Opcode::Fadd: case Opcode::Fsub: case Opcode::Fmul:
      case Opcode::Fdiv: case Opcode::Fmov: case Opcode::Fneg:
      case Opcode::Fabs: case Opcode::Fmin: case Opcode::Fmax:
      case Opcode::Fsqrt: case Opcode::Fld: case Opcode::Fst:
      case Opcode::Itof: case Opcode::Fblt:
        return true;
      default:
        return false;
    }
}

/** True for all control-flow opcodes (branches, jumps, call). */
constexpr bool
isControl(Opcode op)
{
    switch (op) {
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Fblt:
      case Opcode::Jmp: case Opcode::Call: case Opcode::JmpR:
        return true;
      default:
        return false;
    }
}

/** True for conditional branches only. */
bool isConditionalBranch(Opcode op);

/** The Table 2.1 category of an opcode. */
constexpr OpClass
classOf(Opcode op)
{
    if (op == Opcode::Ld)
        return OpClass::IntLoad;
    if (op == Opcode::Fld)
        return OpClass::FpLoad;
    if (isStore(op))
        return OpClass::Store;
    if (isControl(op)) {
        // Call writes a register but is classified as control; its link
        // value is still eligible for value prediction.
        return OpClass::Control;
    }
    if (op == Opcode::Nop || op == Opcode::Halt)
        return OpClass::Other;
    if (isFp(op))
        return OpClass::FpAlu;
    return OpClass::IntAlu;
}

/** Mnemonic string, e.g. "addi". */
std::string_view mnemonic(Opcode op);

} // namespace vpprof

#endif // VPPROF_ISA_OPCODE_HH
