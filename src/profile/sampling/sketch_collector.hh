/**
 * @file
 * SketchProfileCollector: a memory-bounded profiling sink. Where
 * ProfileCollector keeps one slot for every pc up to the highest it
 * ever sees, this collector
 * holds full per-instruction statistics only for a bounded set of
 * "hot" instructions and pushes the cold tail into a count-min sketch
 * that costs fixed memory regardless of how many distinct pcs flow by.
 *
 * Promotion: an unresident pc is counted in the sketch; once its
 * (never-undercounting) estimate reaches `promoteThreshold` and a hot
 * slot is free, it is promoted and profiled exactly from then on. A
 * hot instruction executing millions of times loses only its first
 * ~promoteThreshold observations — noise at profiling scale — while
 * memory stays O(capacity + sketch), not O(distinct pcs).
 *
 * The emitted ProfileImage is the same type every downstream consumer
 * (directive inserter, classifiers, hybrid tables, ILP evaluation)
 * already takes, so bounded-memory profiles are drop-in.
 */

#ifndef VPPROF_PROFILE_SAMPLING_SKETCH_COLLECTOR_HH
#define VPPROF_PROFILE_SAMPLING_SKETCH_COLLECTOR_HH

#include <string>
#include <unordered_map>

#include "profile/profile_collector.hh"
#include "profile/profile_image.hh"
#include "profile/sampling/count_min_sketch.hh"
#include "vm/trace.hh"

namespace vpprof
{

/** Memory knobs for a SketchProfileCollector. */
struct SketchConfig
{
    /** Max resident fully-profiled instructions (> 0). */
    size_t capacity = 4096;

    /** Sketch estimate at which a pc earns a hot slot. */
    uint64_t promoteThreshold = 8;

    /** Count-min sketch geometry for the cold tail. */
    size_t sketchWidth = 4096;
    size_t sketchDepth = 4;
};

/**
 * A trace sink that builds a ProfileImage within a fixed memory
 * budget. Observes value-producing records only, like
 * ProfileCollector, and matches its statistics exactly for every pc
 * resident from that pc's first observation (both run profileStep).
 */
class SketchProfileCollector : public TraceSink
{
  public:
    SketchProfileCollector(std::string program_name,
                           const SketchConfig &config = {});

    void record(const TraceRecord &rec) override;

    /**
     * Emit the image of the hot set and reset to a pristine, reusable
     * collector (same contract as ProfileCollector::takeImage()).
     */
    ProfileImage takeImage();

    /** Value-producing records observed since the last takeImage(). */
    uint64_t producersSeen() const { return producersSeen_; }

    /** Producers observed while their pc was unresident (cold). */
    uint64_t coldProducers() const { return coldProducers_; }

    /** Resident fully-profiled pcs (<= capacity, always). */
    size_t hotPcs() const { return hot_.size(); }

    /** Sketch estimate of a pc's execution count (cold tail view). */
    uint64_t coldEstimate(uint64_t pc) const
    {
        return sketch_.estimate(pc);
    }

    /** Approximate resident footprint in bytes (bound checked by
     *  tests against a synthetic long-tail trace). */
    size_t memoryBytes() const;

  private:
    /** Full stats plus infinite-predictor state for one pc. */
    struct HotEntry
    {
        PcProfile profile;
        StrideState stride;
    };

    std::string program_;
    SketchConfig config_;
    std::unordered_map<uint64_t, HotEntry> hot_;
    CountMinSketch sketch_;
    uint64_t producersSeen_ = 0;
    uint64_t coldProducers_ = 0;
};

} // namespace vpprof

#endif // VPPROF_PROFILE_SAMPLING_SKETCH_COLLECTOR_HH
