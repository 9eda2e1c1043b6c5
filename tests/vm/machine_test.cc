/**
 * @file
 * Unit tests for the VM interpreter: per-opcode semantics (via a
 * parameterized ALU sweep), control flow, memory, FP, r0 semantics,
 * and run limits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "isa/program_builder.hh"
#include "vm/machine.hh"

namespace vpprof
{
namespace
{

/** Run a 3-op ALU program computing `op r3, r1, r2` and return r3. */
int64_t
runAlu(Opcode op, int64_t a, int64_t b2)
{
    Program p("alu");
    Instruction i1;
    i1.op = op;
    i1.dest = R(3);
    i1.src1 = R(1);
    i1.src2 = R(2);
    p.append(i1);
    Instruction h;
    h.op = Opcode::Halt;
    p.append(h);

    MemoryImage image;
    image.setRegister(R(1), a);
    image.setRegister(R(2), b2);
    Machine m(p, image);
    m.run(nullptr);
    return m.reg(R(3));
}

/** One ALU case. ctest names each case after the param's raw bytes,
 *  so the struct must have no padding (its bytes would be whatever
 *  the stack or heap held, and the names would change per build):
 *  the opcode is widened to a full word, zero above its low byte. */
struct AluCase
{
    AluCase(Opcode o, int64_t a_, int64_t b_, int64_t expected_)
        : op(static_cast<uint64_t>(o)), a(a_), b(b_), expected(expected_)
    {
    }

    uint64_t op;
    int64_t a, b, expected;
};
static_assert(sizeof(AluCase) == 4 * sizeof(int64_t),
              "AluCase must have no padding bytes");

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, ComputesExpectedValue)
{
    const AluCase &c = GetParam();
    EXPECT_EQ(runAlu(static_cast<Opcode>(c.op), c.a, c.b), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    IntegerAlu, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::Add, 2, 3, 5},
        AluCase{Opcode::Add, INT64_MAX, 1, INT64_MIN},  // wraps
        AluCase{Opcode::Sub, 2, 3, -1},
        AluCase{Opcode::Sub, INT64_MIN, 1, INT64_MAX},  // wraps
        AluCase{Opcode::Mul, -4, 6, -24},
        AluCase{Opcode::Div, 7, 2, 3},
        AluCase{Opcode::Div, -7, 2, -3},   // truncates toward zero
        AluCase{Opcode::Div, 7, 0, 0},     // deterministic div-by-zero
        AluCase{Opcode::Div, INT64_MIN, -1, 0},
        AluCase{Opcode::Rem, 7, 3, 1},
        AluCase{Opcode::Rem, -7, 3, -1},
        AluCase{Opcode::Rem, 7, 0, 0},
        AluCase{Opcode::And, 0b1100, 0b1010, 0b1000},
        AluCase{Opcode::Or, 0b1100, 0b1010, 0b1110},
        AluCase{Opcode::Xor, 0b1100, 0b1010, 0b0110},
        AluCase{Opcode::Shl, 1, 4, 16},
        AluCase{Opcode::Shl, 1, 64, 1},    // count masked to 0..63
        AluCase{Opcode::Shr, -1, 60, 15},  // logical
        AluCase{Opcode::Sar, -16, 2, -4},  // arithmetic
        AluCase{Opcode::Slt, -1, 0, 1},
        AluCase{Opcode::Slt, 3, 3, 0},
        AluCase{Opcode::Sltu, -1, 0, 0},   // unsigned compare
        AluCase{Opcode::Sltu, 0, -1, 1}));

TEST(Machine, ImmediateFormsMatchRegisterForms)
{
    ProgramBuilder b("imm");
    b.movi(R(1), 10);
    b.addi(R(2), R(1), 5);
    b.subi(R(3), R(1), 5);
    b.muli(R(4), R(1), -3);
    b.divi(R(5), R(1), 4);
    b.remi(R(6), R(1), 4);
    b.andi(R(7), R(1), 6);
    b.ori(R(8), R(1), 5);
    b.xori(R(9), R(1), 3);
    b.shli(R(10), R(1), 2);
    b.shri(R(11), R(1), 1);
    b.sari(R(12), R(1), 1);
    b.slti(R(13), R(1), 11);
    b.halt();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(2)), 15);
    EXPECT_EQ(m.reg(R(3)), 5);
    EXPECT_EQ(m.reg(R(4)), -30);
    EXPECT_EQ(m.reg(R(5)), 2);
    EXPECT_EQ(m.reg(R(6)), 2);
    EXPECT_EQ(m.reg(R(7)), 2);
    EXPECT_EQ(m.reg(R(8)), 15);
    EXPECT_EQ(m.reg(R(9)), 9);
    EXPECT_EQ(m.reg(R(10)), 40);
    EXPECT_EQ(m.reg(R(11)), 5);
    EXPECT_EQ(m.reg(R(12)), 5);
    EXPECT_EQ(m.reg(R(13)), 1);
}

TEST(Machine, ZeroRegisterReadsZeroAndDropsWrites)
{
    ProgramBuilder b("zero");
    b.movi(R(0), 42);          // write to r0 is dropped
    b.addi(R(1), R(0), 7);     // r1 = 0 + 7
    b.halt();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(0)), 0);
    EXPECT_EQ(m.reg(R(1)), 7);
}

TEST(Machine, LoadStoreRoundTrip)
{
    ProgramBuilder b("mem");
    b.movi(R(1), 100);
    b.movi(R(2), -555);
    b.st(R(1), R(2), 5);      // mem[105] = -555
    b.ld(R(3), R(1), 5);      // r3 = mem[105]
    b.halt();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(3)), -555);
    EXPECT_EQ(m.memory().load(105), -555);
}

TEST(Machine, UntouchedMemoryReadsZero)
{
    ProgramBuilder b("cold");
    b.ld(R(1), R(0), 12345);
    b.halt();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(1)), 0);
}

TEST(Machine, MemoryImageSeedsMemoryAndRegisters)
{
    ProgramBuilder b("img");
    b.ld(R(2), R(0), 50);
    b.halt();
    MemoryImage image;
    image.store(50, 777);
    image.setRegister(R(9), 33);
    Machine m(b.build(), image);
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(2)), 777);
    EXPECT_EQ(m.reg(R(9)), 33);
}

TEST(Machine, ConditionalBranchesFollowComparisons)
{
    ProgramBuilder b("br");
    b.movi(R(1), 5);
    b.movi(R(2), 10);
    b.blt(R(1), R(2), "taken");
    b.movi(R(3), 111);         // skipped
    b.halt();
    b.label("taken");
    b.movi(R(3), 222);
    b.halt();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(3)), 222);
}

TEST(Machine, BltuIsUnsigned)
{
    ProgramBuilder b("bltu");
    b.movi(R(1), -1);          // max unsigned
    b.movi(R(2), 1);
    b.bltu(R(1), R(2), "taken");
    b.movi(R(3), 1);           // fall through expected
    b.halt();
    b.label("taken");
    b.movi(R(3), 2);
    b.halt();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(3)), 1);
}

TEST(Machine, CallSavesReturnAddressAndRetReturns)
{
    ProgramBuilder b("call");
    b.movi(R(1), 0);
    b.call("sub");
    b.addi(R(1), R(1), 100);   // executed after return
    b.halt();
    b.label("sub");
    b.addi(R(1), R(1), 1);
    b.ret();
    Machine m(b.build(), MemoryImage{});
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(1)), 101);
    EXPECT_EQ(m.reg(kLinkReg), 2);  // address after the call
}

TEST(Machine, LoopExecutesExpectedIterations)
{
    ProgramBuilder b("loop");
    b.movi(R(1), 0);
    b.movi(R(2), 10);
    b.label("top");
    b.addi(R(1), R(1), 1);
    b.blt(R(1), R(2), "top");
    b.halt();
    Machine m(b.build(), MemoryImage{});
    RunResult r = m.run(nullptr);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.reg(R(1)), 10);
    // movi*2 + 10*(addi+blt) + halt
    EXPECT_EQ(r.instructionsExecuted, 2u + 20u + 1u);
}

TEST(Machine, InstructionLimitStopsWithoutHalt)
{
    ProgramBuilder b("spin");
    b.label("top");
    b.jmp("top");
    b.halt();
    Machine m(b.build(), MemoryImage{});
    RunResult r = m.run(nullptr, 100);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instructionsExecuted, 100u);
}

TEST(Machine, FpArithmetic)
{
    ProgramBuilder b("fp");
    b.fld(F(1), R(0), 10);
    b.fld(F(2), R(0), 11);
    b.fadd(F(3), F(1), F(2));
    b.fsub(F(4), F(1), F(2));
    b.fmul(F(5), F(1), F(2));
    b.fdiv(F(6), F(1), F(2));
    b.fsqrt(F(7), F(1));
    b.fneg(F(8), F(1));
    b.fabs_(F(9), F(8));
    b.fmin(F(10), F(1), F(2));
    b.fmax(F(11), F(1), F(2));
    b.halt();
    MemoryImage image;
    image.storeDouble(10, 9.0);
    image.storeDouble(11, 2.0);
    Machine m(b.build(), image);
    m.run(nullptr);
    EXPECT_DOUBLE_EQ(m.regDouble(F(3)), 11.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(4)), 7.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(5)), 18.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(6)), 4.5);
    EXPECT_DOUBLE_EQ(m.regDouble(F(7)), 3.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(8)), -9.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(9)), 9.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(10)), 2.0);
    EXPECT_DOUBLE_EQ(m.regDouble(F(11)), 9.0);
}

TEST(Machine, IntFpConversions)
{
    ProgramBuilder b("cvt");
    b.movi(R(1), -7);
    b.itof(F(1), R(1));
    b.ftoi(R(2), F(1));
    b.fld(F(2), R(0), 10);
    b.ftoi(R(3), F(2));        // truncation toward zero
    b.halt();
    MemoryImage image;
    image.storeDouble(10, 2.9);
    Machine m(b.build(), image);
    m.run(nullptr);
    EXPECT_DOUBLE_EQ(m.regDouble(F(1)), -7.0);
    EXPECT_EQ(m.reg(R(2)), -7);
    EXPECT_EQ(m.reg(R(3)), 2);
}

TEST(Machine, FtoiOfNanIsZero)
{
    ProgramBuilder b("nan");
    b.fld(F(1), R(0), 10);
    b.ftoi(R(1), F(1));
    b.halt();
    MemoryImage image;
    image.storeDouble(10, std::nan(""));
    Machine m(b.build(), image);
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(1)), 0);
}

TEST(Machine, FbltComparesDoubles)
{
    ProgramBuilder b("fblt");
    b.fld(F(1), R(0), 10);
    b.fld(F(2), R(0), 11);
    b.fblt(F(1), F(2), "less");
    b.movi(R(1), 0);
    b.halt();
    b.label("less");
    b.movi(R(1), 1);
    b.halt();
    MemoryImage image;
    image.storeDouble(10, 1.5);
    image.storeDouble(11, 2.5);
    Machine m(b.build(), image);
    m.run(nullptr);
    EXPECT_EQ(m.reg(R(1)), 1);
}

TEST(Machine, PcFallingOffProgramIsFatal)
{
    Program p("falls");
    Instruction nop;
    nop.op = Opcode::Nop;
    p.append(nop);
    Machine m(p, MemoryImage{});
    EXPECT_DEATH(m.run(nullptr), "fell off");
}

TEST(Machine, TraceRecordsCarryValuesAndAddresses)
{
    ProgramBuilder b("trace");
    b.movi(R(1), 10);
    b.st(R(1), R(1), 5);
    b.ld(R(2), R(1), 5);
    b.halt();
    VectorTraceSink sink;
    Machine m(b.build(), MemoryImage{});
    m.run(&sink);
    ASSERT_EQ(sink.trace().size(), 4u);

    const TraceRecord &movi = sink.trace()[0];
    EXPECT_EQ(movi.pc, 0u);
    EXPECT_TRUE(movi.writesReg);
    EXPECT_EQ(movi.value, 10);

    const TraceRecord &st = sink.trace()[1];
    EXPECT_TRUE(st.isMem);
    EXPECT_EQ(st.memAddr, 15u);
    EXPECT_FALSE(st.writesReg);

    const TraceRecord &ld = sink.trace()[2];
    EXPECT_TRUE(ld.isMem);
    EXPECT_EQ(ld.memAddr, 15u);
    EXPECT_TRUE(ld.writesReg);
    EXPECT_EQ(ld.value, 10);

    const TraceRecord &halt = sink.trace()[3];
    EXPECT_EQ(halt.op, Opcode::Halt);
    EXPECT_EQ(halt.seq, 3u);
}

} // namespace
} // namespace vpprof
