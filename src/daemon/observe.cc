#include "daemon/observe.hh"

#include <algorithm>
#include <sstream>

#include "report/json.hh"

namespace vpprof
{
namespace daemon
{

const char *
jobEventKindName(JobEventKind kind)
{
    switch (kind) {
      case JobEventKind::Received: return "received";
      case JobEventKind::Admitted: return "admitted";
      case JobEventKind::Started: return "started";
      case JobEventKind::Completed: return "completed";
      case JobEventKind::Failed: return "failed";
      case JobEventKind::Rejected: return "rejected";
      case JobEventKind::Cancelled: return "cancelled";
      case JobEventKind::Deadline: return "deadline";
    }
    return "?";
}

void
writeJobEventFields(std::ostream &os, const JobEvent &event)
{
    os << "\"seq\": " << event.seq
       << ", \"ts_ns\": " << event.tsNs
       << ", \"kind\": \"" << jobEventKindName(event.kind) << "\"";
    if (event.requestId > 0)
        os << ", \"id\": " << event.requestId;
    if (event.traceId > 0)
        os << ", \"trace_id\": " << event.traceId;
    if (event.clientSerial > 0)
        os << ", \"client\": " << event.clientSerial;
    if (event.requestId > 0)
        os << ", \"cmd\": \"" << commandName(event.cmd) << "\"";
    if (!event.workload.empty())
        os << ", \"workload\": "
           << report::quoteJsonString(event.workload);
    if (!event.detail.empty())
        os << ", \"detail\": " << report::quoteJsonString(event.detail);
    os << ", \"queued\": " << event.queued;
}

std::string
jobEventJson(const JobEvent &event)
{
    std::ostringstream os;
    os << "{\"event\": \"telemetry\", ";
    writeJobEventFields(os, event);
    os << "}";
    return os.str();
}

EventRing::EventRing(size_t cap) : cap_(std::max<size_t>(cap, 1)) {}

void
EventRing::push(JobEvent event)
{
    event.seq = ++total_;
    if (events_.size() >= cap_)
        events_.pop_front();
    events_.push_back(std::move(event));
}

const JobEvent &
EventRing::at(uint64_t seq) const
{
    return events_[seq - oldestSeq()];
}

std::string
EventRing::renderJsonArray(size_t limit) const
{
    size_t count = events_.size();
    if (limit > 0)
        count = std::min(count, limit);
    size_t start = events_.size() - count;
    std::ostringstream os;
    os << "[";
    for (size_t i = start; i < events_.size(); ++i) {
        if (i != start)
            os << ", ";
        os << "{";
        writeJobEventFields(os, events_[i]);
        os << "}";
    }
    os << "]";
    return os.str();
}

bool
parseEventFilter(std::string_view spec, std::string *error)
{
    if (spec.empty())
        return true;
    size_t pos = 0;
    for (;;) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        std::string_view token = spec.substr(pos, comma - pos);
        if (token != "lifecycle") {
            if (error)
                *error = "unknown event class '" + std::string(token) +
                         "' (expected lifecycle)";
            return false;
        }
        if (comma == spec.size())
            return true;
        pos = comma + 1;
    }
}

std::optional<SloConfig>
parseSloSpec(std::string_view spec, std::string *error)
{
    SloConfig config;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        std::string_view token = spec.substr(pos, comma - pos);
        size_t eq = token.find('=');
        if (eq == std::string_view::npos) {
            if (error)
                *error = "SLO term '" + std::string(token) +
                         "' is not a key=value assignment";
            return std::nullopt;
        }
        std::string_view key = token.substr(0, eq);
        std::string value(token.substr(eq + 1));
        char *end = nullptr;
        double parsed = std::strtod(value.c_str(), &end);
        bool numeric = end && *end == '\0' && !value.empty();
        if (key == "p99_ms") {
            if (!numeric || parsed <= 0) {
                if (error)
                    *error = "p99_ms needs a positive number, got '" +
                             value + "'";
                return std::nullopt;
            }
            config.p99Ms = parsed;
        } else if (key == "error_rate") {
            if (!numeric || parsed < 0 || parsed > 1) {
                if (error)
                    *error = "error_rate needs a number in [0, 1], "
                             "got '" + value + "'";
                return std::nullopt;
            }
            config.errorRate = parsed;
        } else {
            if (error)
                *error = "unknown SLO key '" + std::string(key) +
                         "' (expected p99_ms|error_rate)";
            return std::nullopt;
        }
        pos = comma + 1;
        if (comma == spec.size())
            break;
    }
    if (!config.configured()) {
        if (error)
            *error = "empty SLO spec (expected p99_ms=...,"
                     "error_rate=...)";
        return std::nullopt;
    }
    return config;
}

void
SloTracker::configure(const SloConfig &config, size_t window)
{
    config_ = config;
    window_ = std::max<size_t>(1, window);
}

size_t
SloTracker::minSamples() const
{
    return std::min<size_t>(8, window_);
}

void
SloTracker::observe(double latency_ms, bool ok)
{
    if (!config_.configured())
        return;
    ++observed_;
    samples_.push_back({latency_ms, ok});
    if (!ok)
        ++windowErrors_;
    if (samples_.size() > window_) {
        if (!samples_.front().ok)
            --windowErrors_;
        samples_.pop_front();
    }
    if (samples_.size() < minSamples())
        return;
    if (config_.p99Ms > 0 && windowP99Ms() > config_.p99Ms)
        latencyBurns_.add();
    if (config_.errorRate >= 0 && windowErrorRate() > config_.errorRate)
        errorBurns_.add();
}

double
SloTracker::windowP99Ms() const
{
    if (samples_.size() < minSamples())
        return 0;
    std::vector<double> latencies;
    latencies.reserve(samples_.size());
    for (const Sample &s : samples_)
        latencies.push_back(s.latencyMs);
    // Nearest-rank p99 over the window (matches the bench percentile).
    size_t rank = static_cast<size_t>(
        0.99 * static_cast<double>(latencies.size() - 1) + 0.5);
    std::nth_element(latencies.begin(), latencies.begin() + rank,
                     latencies.end());
    return latencies[rank];
}

double
SloTracker::windowErrorRate() const
{
    if (samples_.size() < minSamples())
        return 0;
    return static_cast<double>(windowErrors_) /
           static_cast<double>(samples_.size());
}

void
SloTracker::writeJsonFields(std::ostream &os) const
{
    os << "\"configured\": " << (config_.configured() ? "true" : "false")
       << ", \"objective_p99_ms\": "
       << report::formatJsonNumber(config_.p99Ms)
       << ", \"objective_error_rate\": "
       << report::formatJsonNumber(config_.errorRate < 0
                                       ? -1.0
                                       : config_.errorRate)
       << ", \"window\": " << window_
       << ", \"samples\": " << samples_.size()
       << ", \"observed\": " << observed_
       << ", \"window_p99_ms\": "
       << report::formatJsonNumber(windowP99Ms())
       << ", \"window_error_rate\": "
       << report::formatJsonNumber(windowErrorRate())
       << ", \"latency_burns\": " << latencyBurns()
       << ", \"error_burns\": " << errorBurns();
}

} // namespace daemon
} // namespace vpprof
