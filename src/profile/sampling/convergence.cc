#include "profile/sampling/convergence.hh"

namespace vpprof
{

ConvergenceTracker::ConvergenceTracker(ProfileCollector &collector,
                                       const ConvergenceConfig &config)
    : collector_(collector), config_(config)
{
}

void
ConvergenceTracker::record(const TraceRecord &rec)
{
    if (converged_ && config_.earlyExit) {
        ++skipped_;
        return;
    }
    collector_.record(rec);
    if (!rec.writesReg)
        return;
    ++producers_;
    if (producers_ % config_.checkIntervalProducers == 0)
        snapshot();
}

void
ConvergenceTracker::snapshot()
{
    ++snapshots_;
    std::map<uint64_t, Directive> current;
    const ProfileImage image = collector_.snapshot();
    for (const auto &[pc, prof] : image.entries()) {
        Directive d = classifyDirective(prof, config_.rule);
        if (d != Directive::None)
            current.emplace(pc, d);
    }

    // Agreement over the union of tagged pcs: a pc tagged in only one
    // snapshot counts as a disagreement (the assignment changed).
    size_t agree = 0, unionSize = prev_.size();
    for (const auto &[pc, d] : current) {
        auto it = prev_.find(pc);
        if (it == prev_.end())
            ++unionSize;
        else if (it->second == d)
            ++agree;
    }
    lastAgreement_ =
        unionSize == 0 ? 100.0
                       : 100.0 * static_cast<double>(agree) /
                             static_cast<double>(unionSize);

    if (snapshots_ > 1 &&
        lastAgreement_ >= config_.stableAgreementPercent)
        ++stableRun_;
    else
        stableRun_ = 0;

    if (!converged_ && stableRun_ >= config_.stableChecks) {
        converged_ = true;
        producersAtConvergence_ = producers_;
    }
    prev_ = std::move(current);
}

} // namespace vpprof
