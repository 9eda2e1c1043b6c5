#include "vm/machine.hh"

#include "vm/machine_loop.hh"

namespace vpprof
{

namespace
{

/** The sink of a run with no consumer: the record it is handed is
 *  dead, so the inlined loop never builds one. */
struct NoTraceSink
{
    void record(const TraceRecord &) {}
};

} // namespace

Machine::Machine(Program program, const MemoryImage &image)
    : program_(std::move(program))
{
    traits_.reserve(program_.size());
    for (const Instruction &inst : program_.instructions()) {
        traits_.push_back(
            {writesRegister(inst.op),
             static_cast<uint8_t>(numSources(inst.op))});
    }
    for (const auto &[addr, value] : image.words())
        memory_.store(addr, value);
    for (const auto &[reg, value] : image.registers())
        setReg(reg, value);
}

double
Machine::regDouble(RegId r) const
{
    return machine_detail::asDouble(reg(r));
}

RunResult
Machine::run(TraceSink *sink, uint64_t max_insts)
{
    if (sink)
        return runInto(*sink, max_insts);
    NoTraceSink none;
    return runInto(none, max_insts);
}

} // namespace vpprof
