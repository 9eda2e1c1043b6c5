#include "isa/opcode.hh"

#include "common/logging.hh"

namespace vpprof
{

unsigned
numSources(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Rem: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sar: case Opcode::Slt:
      case Opcode::Sltu:
      case Opcode::Fadd: case Opcode::Fsub: case Opcode::Fmul:
      case Opcode::Fdiv: case Opcode::Fmin: case Opcode::Fmax:
      case Opcode::St: case Opcode::Fst:
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Fblt:
        return 2;
      case Opcode::Addi: case Opcode::Subi: case Opcode::Muli:
      case Opcode::Divi: case Opcode::Remi: case Opcode::Andi:
      case Opcode::Ori: case Opcode::Xori: case Opcode::Shli:
      case Opcode::Shri: case Opcode::Sari: case Opcode::Slti:
      case Opcode::Mov: case Opcode::Ld: case Opcode::Fld:
      case Opcode::Fmov: case Opcode::Fneg: case Opcode::Fabs:
      case Opcode::Fsqrt: case Opcode::Itof: case Opcode::Ftoi:
      case Opcode::JmpR:
        return 1;
      case Opcode::Movi: case Opcode::Jmp: case Opcode::Call:
      case Opcode::Nop: case Opcode::Halt:
        return 0;
      case Opcode::NumOpcodes:
        break;
    }
    vpprof_panic("numSources: bad opcode");
}

bool
writesRegister(Opcode op)
{
    switch (op) {
      case Opcode::St: case Opcode::Fst:
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Fblt:
      case Opcode::Jmp: case Opcode::JmpR:
      case Opcode::Nop: case Opcode::Halt:
        return false;
      default:
        return true;
    }
}

bool
isConditionalBranch(Opcode op)
{
    switch (op) {
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Fblt:
        return true;
      default:
        return false;
    }
}

std::string_view
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Sar: return "sar";
      case Opcode::Slt: return "slt";
      case Opcode::Sltu: return "sltu";
      case Opcode::Addi: return "addi";
      case Opcode::Subi: return "subi";
      case Opcode::Muli: return "muli";
      case Opcode::Divi: return "divi";
      case Opcode::Remi: return "remi";
      case Opcode::Andi: return "andi";
      case Opcode::Ori: return "ori";
      case Opcode::Xori: return "xori";
      case Opcode::Shli: return "shli";
      case Opcode::Shri: return "shri";
      case Opcode::Sari: return "sari";
      case Opcode::Slti: return "slti";
      case Opcode::Mov: return "mov";
      case Opcode::Movi: return "movi";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::Fadd: return "fadd";
      case Opcode::Fsub: return "fsub";
      case Opcode::Fmul: return "fmul";
      case Opcode::Fdiv: return "fdiv";
      case Opcode::Fmov: return "fmov";
      case Opcode::Fneg: return "fneg";
      case Opcode::Fabs: return "fabs";
      case Opcode::Fmin: return "fmin";
      case Opcode::Fmax: return "fmax";
      case Opcode::Fsqrt: return "fsqrt";
      case Opcode::Itof: return "itof";
      case Opcode::Ftoi: return "ftoi";
      case Opcode::Fld: return "fld";
      case Opcode::Fst: return "fst";
      case Opcode::Beq: return "beq";
      case Opcode::Bne: return "bne";
      case Opcode::Blt: return "blt";
      case Opcode::Bge: return "bge";
      case Opcode::Bltu: return "bltu";
      case Opcode::Fblt: return "fblt";
      case Opcode::Jmp: return "jmp";
      case Opcode::Call: return "call";
      case Opcode::JmpR: return "jmpr";
      case Opcode::Nop: return "nop";
      case Opcode::Halt: return "halt";
      case Opcode::NumOpcodes: break;
    }
    vpprof_panic("mnemonic: bad opcode");
}

} // namespace vpprof
