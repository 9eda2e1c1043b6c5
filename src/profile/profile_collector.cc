#include "profile/profile_collector.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vpprof
{

namespace
{

/**
 * Pcs are instruction indices, so a real program stays far below this;
 * a pc past it is a corrupt record, refused before the flat array
 * would try to cover it.
 */
constexpr uint64_t kMaxDensePc = uint64_t{1} << 24;

} // namespace

ProfileCollector::ProfileCollector(std::string program_name)
    : program_(std::move(program_name))
{
}

void
ProfileCollector::grow(uint64_t pc)
{
    if (pc >= kMaxDensePc)
        vpprof_panic("ProfileCollector: pc ", pc,
                     " is beyond any program (pcs are instruction "
                     "indices)");
    slots_.resize(std::max<size_t>(pc + 1, 2 * slots_.size()));
}

ProfileImage
ProfileCollector::snapshot() const
{
    ProfileImage image(program_);
    image.reserve(static_cast<size_t>(std::count_if(
        slots_.begin(), slots_.end(),
        [](const PcSlot &slot) { return slot.profile.executions > 0; })));
    for (size_t pc = 0; pc < slots_.size(); ++pc) {
        if (slots_[pc].profile.executions > 0)
            image.at(pc) = slots_[pc].profile;
    }
    return image;
}

ProfileImage
ProfileCollector::takeImage()
{
    ProfileImage out = snapshot();
    slots_.clear();
    producersSeen_ = 0;
    return out;
}

} // namespace vpprof
