#include "profile/profile_image.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace vpprof
{

Directive
classifyDirective(const PcProfile &profile, const DirectiveRule &rule)
{
    if (profile.attempts < rule.minAttempts)
        return Directive::None;
    if (profile.accuracyPercent() < rule.accuracyThresholdPercent)
        return Directive::None;
    return profile.strideEfficiencyPercent() > rule.strideThresholdPercent
               ? Directive::Stride
               : Directive::LastValue;
}

DirectiveRule
DirectiveRule::scaledToSampling(double keptFraction) const
{
    DirectiveRule scaled = *this;
    if (keptFraction > 0.0 && keptFraction < 1.0) {
        auto floor_attempts = static_cast<uint64_t>(
            static_cast<double>(minAttempts) * keptFraction + 0.5);
        scaled.minAttempts = floor_attempts < 2 ? 2 : floor_attempts;
    }
    return scaled;
}

namespace
{

/** The first entry whose pc is not below `pc`. */
template <class Entries>
auto
lowerBound(Entries &entries, uint64_t pc)
{
    return std::lower_bound(
        entries.begin(), entries.end(), pc,
        [](const ProfileImage::Entry &e, uint64_t key) {
            return e.first < key;
        });
}

} // namespace

PcProfile &
ProfileImage::at(uint64_t pc)
{
    if (entries_.empty() || entries_.back().first < pc)
        return entries_.emplace_back(pc, PcProfile{}).second;
    auto it = lowerBound(entries_, pc);
    if (it->first != pc)
        it = entries_.emplace(it, pc, PcProfile{});
    return it->second;
}

const PcProfile *
ProfileImage::find(uint64_t pc) const
{
    auto it = lowerBound(entries_, pc);
    return it == entries_.end() || it->first != pc ? nullptr
                                                   : &it->second;
}

void
ProfileImage::merge(const ProfileImage &other)
{
    // Both tables are sorted: one pass counts the pcs only `other`
    // has, a second builds the union into exactly that much room.
    size_t fresh = 0;
    size_t i = 0;
    for (const auto &entry : other.entries_) {
        while (i < entries_.size() && entries_[i].first < entry.first)
            ++i;
        if (i == entries_.size() || entries_[i].first != entry.first)
            ++fresh;
    }

    std::vector<Entry> merged;
    merged.reserve(entries_.size() + fresh);
    i = 0;
    for (const auto &[pc, prof] : other.entries_) {
        while (i < entries_.size() && entries_[i].first < pc)
            merged.push_back(entries_[i++]);
        PcProfile mine;
        if (i < entries_.size() && entries_[i].first == pc)
            mine = entries_[i++].second;
        mine.executions += prof.executions;
        mine.attempts += prof.attempts;
        mine.correct += prof.correct;
        mine.correctNonZeroStride += prof.correctNonZeroStride;
        mine.lastValueCorrect += prof.lastValueCorrect;
        mine.lastValueAttempts += prof.lastValueAttempts;
        mine.opClass = prof.opClass;
        merged.emplace_back(pc, mine);
    }
    merged.insert(merged.end(), entries_.begin() + i, entries_.end());
    entries_ = std::move(merged);
}

void
ProfileImage::save(std::ostream &os) const
{
    os << "# vpprof profile image v1\n";
    os << "program " << program_ << '\n';
    os << "# pc executions attempts correct correctNonZeroStride"
          " lvAttempts lvCorrect opclass\n";
    for (const auto &[pc, p] : entries_) {
        os << pc << ' ' << p.executions << ' ' << p.attempts << ' '
           << p.correct << ' ' << p.correctNonZeroStride << ' '
           << p.lastValueAttempts << ' ' << p.lastValueCorrect << ' '
           << static_cast<unsigned>(p.opClass) << '\n';
    }
}

void
ProfileImage::saveFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        vpprof_fatal("cannot open profile image for writing: ", path);
    save(os);
}

ProfileImage
ProfileImage::load(std::istream &is)
{
    ProfileImage image;
    std::string line;
    bool saw_header = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string first;
        ls >> first;
        if (first == "program") {
            std::string name;
            ls >> name;
            image.program_ = name;
            saw_header = true;
            continue;
        }
        uint64_t pc = 0;
        try {
            pc = std::stoull(first);
        } catch (const std::exception &) {
            vpprof_fatal("malformed profile image line: ", line);
        }
        PcProfile p;
        unsigned cls = 0;
        ls >> p.executions >> p.attempts >> p.correct
           >> p.correctNonZeroStride >> p.lastValueAttempts
           >> p.lastValueCorrect >> cls;
        if (!ls)
            vpprof_fatal("malformed profile image line: ", line);
        if (p.correct > p.attempts || p.correctNonZeroStride > p.correct ||
            p.lastValueCorrect > p.lastValueAttempts) {
            vpprof_fatal("inconsistent counters in profile image line: ",
                         line);
        }
        p.opClass = static_cast<OpClass>(cls);
        image.at(pc) = p;
    }
    if (!saw_header)
        vpprof_fatal("profile image missing 'program' header");
    return image;
}

ProfileImage
ProfileImage::loadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        vpprof_fatal("cannot open profile image: ", path);
    return load(is);
}

std::vector<uint64_t>
commonPcs(const std::vector<ProfileImage> &images)
{
    std::vector<uint64_t> common;
    if (images.empty())
        return common;
    for (const auto &[pc, prof] : images[0].entries()) {
        if (prof.attempts == 0)
            continue;
        bool in_all = true;
        for (size_t j = 1; j < images.size(); ++j) {
            const PcProfile *other = images[j].find(pc);
            if (!other || other->attempts == 0) {
                in_all = false;
                break;
            }
        }
        if (in_all)
            common.push_back(pc);
    }
    return common;
}

} // namespace vpprof
