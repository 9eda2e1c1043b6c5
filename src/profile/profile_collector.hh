/**
 * @file
 * ProfileCollector: the profiling phase of the methodology (Phase #2 of
 * Figure 3.1). It consumes a dynamic trace, emulates an infinite stride
 * predictor and an infinite last-value predictor side by side, and
 * accumulates the per-instruction statistics that form the profile
 * image: prediction accuracy and stride efficiency ratio.
 */

#ifndef VPPROF_PROFILE_PROFILE_COLLECTOR_HH
#define VPPROF_PROFILE_PROFILE_COLLECTOR_HH

#include <string>
#include <vector>

#include "profile/profile_image.hh"
#include "vm/trace.hh"

namespace vpprof
{

/**
 * One pc's entry in the infinite stride table of Section 5.1 (the
 * direct-indexed SVP entry without a tag or a counter: the table never
 * evicts and profiling trains no FSM). The infinite last-value
 * predictor's entry would hold the same `last`, so it has none.
 */
struct StrideState
{
    int64_t last = 0;    ///< most recent value
    int64_t stride = 0;  ///< difference of the two most recent values
    bool seen = false;   ///< a value was observed (predictions start)
};

/**
 * The profiling step for one value producer: update the pc's profile
 * counters from the predictions its stride state makes, then train the
 * state on the actual value. Record for record identical to feeding an
 * infinite StridePredictor and LastValuePredictor (predict, then update
 * with the outcome): both predict only once a value has been observed,
 * the stride prediction is last + stride, and the last-value prediction
 * is last.
 */
inline void
profileStep(PcProfile &prof, StrideState &state, const TraceRecord &rec)
{
    prof.opClass = classOf(rec.op);
    ++prof.executions;
    if (state.seen) {
        int64_t stride_pred = static_cast<int64_t>(
            static_cast<uint64_t>(state.last) +
            static_cast<uint64_t>(state.stride));
        ++prof.attempts;
        if (stride_pred == rec.value) {
            ++prof.correct;
            if (state.stride != 0)
                ++prof.correctNonZeroStride;
        }
        ++prof.lastValueAttempts;
        if (state.last == rec.value)
            ++prof.lastValueCorrect;
        state.stride = static_cast<int64_t>(
            static_cast<uint64_t>(rec.value) -
            static_cast<uint64_t>(state.last));
    }
    state.last = rec.value;
    state.seen = true;
}

/**
 * A trace sink that builds a ProfileImage. Only value-producing
 * instructions (those writing a destination register) are observed, per
 * the paper's convention.
 *
 * An instruction's pc is its index in the program, so the per-pc state
 * lives in a flat array indexed by pc, grown on demand: one indexed
 * step per record, no hash or tree lookup. The ordered image is built
 * only when asked for.
 *
 * The class is `final` and record() is inline, so the VM loop
 * instantiated on it (Machine::runInto, as Session::collectProfile
 * runs it) inlines the step and builds only the record fields it
 * reads; fed through a TraceSink pointer, it is an ordinary sink.
 */
class ProfileCollector final : public TraceSink
{
  public:
    /** @param program_name Name recorded into the produced image. */
    explicit ProfileCollector(std::string program_name);

    void
    record(const TraceRecord &rec) override
    {
        if (!rec.writesReg)
            return;
        ++producersSeen_;
        if (rec.pc >= slots_.size())
            grow(rec.pc);
        PcSlot &slot = slots_[rec.pc];
        profileStep(slot.profile, slot.stride, rec);
    }

    /** A copy of the image accumulated so far. */
    ProfileImage snapshot() const;

    /**
     * Move the image out and reset to a pristine collector: the next
     * record starts a fresh image under the same program name, with
     * cold predictors and producersSeen() == 0. Safe to reuse for
     * another run (per-phase or per-epoch profiling).
     */
    ProfileImage takeImage();

    /** Value-producing records observed since the last takeImage(). */
    uint64_t producersSeen() const { return producersSeen_; }

  private:
    struct PcSlot
    {
        PcProfile profile;  ///< executions == 0: pc not profiled
        StrideState stride;
    };

    /** Make slots_ cover `pc` (geometric growth). */
    void grow(uint64_t pc);

    std::string program_;
    std::vector<PcSlot> slots_;  ///< indexed by pc
    uint64_t producersSeen_ = 0;
};

} // namespace vpprof

#endif // VPPROF_PROFILE_PROFILE_COLLECTOR_HH
