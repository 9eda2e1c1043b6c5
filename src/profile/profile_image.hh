/**
 * @file
 * The profile image: per-instruction value-predictability statistics
 * collected during a profiling run (Section 3.2, Table 3.1).
 *
 * The paper's profile image file holds, per instruction address, the
 * prediction accuracy and the stride efficiency ratio. We persist the
 * underlying counters instead of the ratios so images from multiple
 * training runs can be merged exactly; the ratios are derived views.
 */

#ifndef VPPROF_PROFILE_PROFILE_IMAGE_HH
#define VPPROF_PROFILE_PROFILE_IMAGE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "isa/directive.hh"
#include "isa/opcode.hh"

namespace vpprof
{

/** Per-instruction profiling counters and their derived ratios. */
struct PcProfile
{
    uint64_t executions = 0;  ///< dynamic occurrences (value producers)
    uint64_t attempts = 0;    ///< stride-predictor predictions attempted
    uint64_t correct = 0;     ///< correct stride-predictor predictions
    /** Correct predictions formed with a non-zero stride. */
    uint64_t correctNonZeroStride = 0;
    /** Correct predictions of the companion last-value predictor. */
    uint64_t lastValueCorrect = 0;
    /** Last-value predictions attempted. */
    uint64_t lastValueAttempts = 0;
    OpClass opClass = OpClass::IntAlu;

    /** Exact counter equality (bit-identical profiles in tests). */
    bool
    operator==(const PcProfile &o) const
    {
        return executions == o.executions && attempts == o.attempts &&
               correct == o.correct &&
               correctNonZeroStride == o.correctNonZeroStride &&
               lastValueCorrect == o.lastValueCorrect &&
               lastValueAttempts == o.lastValueAttempts &&
               opClass == o.opClass;
    }

    /** Stride-predictor prediction accuracy in percent (0 if untried). */
    double
    accuracyPercent() const
    {
        return attempts == 0
            ? 0.0 : 100.0 * static_cast<double>(correct)
                        / static_cast<double>(attempts);
    }

    /** Last-value-predictor accuracy in percent. */
    double
    lastValueAccuracyPercent() const
    {
        return lastValueAttempts == 0
            ? 0.0 : 100.0 * static_cast<double>(lastValueCorrect)
                        / static_cast<double>(lastValueAttempts);
    }

    /**
     * Stride efficiency ratio in percent: the share of correct
     * predictions that used a non-zero stride (Subsection 2.5).
     * 0 when the instruction never predicted correctly.
     */
    double
    strideEfficiencyPercent() const
    {
        return correct == 0
            ? 0.0 : 100.0 * static_cast<double>(correctNonZeroStride)
                        / static_cast<double>(correct);
    }
};

/**
 * The paper's Section 3.2 classification rule, decoupled from the
 * compiler pass so profile-level consumers (convergence tracking,
 * fidelity comparison) can ask "what directive would this profile
 * earn?" without a Program in hand. The compiler's InserterConfig
 * mirrors these fields and delegates here.
 */
struct DirectiveRule
{
    /** Tag predictable at or above this prediction accuracy (%). */
    double accuracyThresholdPercent = 90.0;

    /** Above this stride efficiency ratio (%): "stride", else
     *  "last-value". */
    double strideThresholdPercent = 50.0;

    /** Minimum profiled attempts before an instruction may be tagged. */
    uint64_t minAttempts = 4;

    /**
     * The rule to judge a profile that observed only `keptFraction`
     * of the trace: the accuracy and stride-ratio thresholds carry
     * over unchanged (they are ratios), but the attempt-support floor
     * scales with the observed fraction — demanding the full-trace
     * support from a 1-in-N profile would strip tags from every
     * moderately-hot instruction for lack of samples, not for lack of
     * predictability. Clamped below at 2 attempts so a single lucky
     * prediction can never tag an instruction.
     */
    DirectiveRule scaledToSampling(double keptFraction) const;
};

/** The directive a profile earns under a rule (None if below it). */
Directive classifyDirective(const PcProfile &profile,
                            const DirectiveRule &rule);

/**
 * A profile image: the per-pc table produced by one (or several merged)
 * profiling runs of one program.
 *
 * The table is one vector of (pc, profile) pairs sorted by pc: a
 * memoized image costs its entries and no per-node overhead, and
 * iteration runs in ascending pc order as the text format and
 * profileDigest expect. Lookups are binary searches.
 */
class ProfileImage
{
  public:
    using Entry = std::pair<uint64_t, PcProfile>;

    ProfileImage() = default;

    /** @param program Name of the profiled program. */
    explicit ProfileImage(std::string program)
        : program_(std::move(program))
    {
    }

    const std::string &programName() const { return program_; }

    /**
     * Mutable per-pc record, created on first touch. A pc above every
     * profiled one is appended; any other new pc is inserted in order.
     * The reference stays valid until the next at() that creates an
     * entry, or the next merge() or load() into this image: each may
     * move the entries. at() on an existing pc moves nothing.
     */
    PcProfile &at(uint64_t pc);

    /** Make room for `n` entries (an image built in one pass). */
    void reserve(size_t n) { entries_.reserve(n); }

    /** Lookup; nullptr when the pc was never profiled. */
    const PcProfile *find(uint64_t pc) const;

    /** Number of distinct profiled instructions. */
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** The (pc, profile) pairs in ascending pc order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /**
     * Merge another image of the same program by summing counters
     * (multi-run profiling, Section 3.2: "the program can be run either
     * single or multiple times").
     */
    void merge(const ProfileImage &other);

    /** Bit-identical image contents (name ignored; tests, fidelity). */
    bool
    operator==(const ProfileImage &o) const
    {
        return entries_ == o.entries_;
    }

    /** Serialize as the text profile-image file format. */
    void save(std::ostream &os) const;
    void saveFile(const std::string &path) const;

    /** Parse a text profile-image file; fatal on malformed input. */
    static ProfileImage load(std::istream &is);
    static ProfileImage loadFile(const std::string &path);

  private:
    std::string program_;
    std::vector<Entry> entries_;  ///< sorted by pc, pcs distinct
};

/**
 * The set of pcs profiled in every one of the given images — Section 4
 * keeps only instructions that appear in all runs when building its
 * metric vectors.
 */
std::vector<uint64_t> commonPcs(const std::vector<ProfileImage> &images);

} // namespace vpprof

#endif // VPPROF_PROFILE_PROFILE_IMAGE_HH
