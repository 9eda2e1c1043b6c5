#include "common/telemetry/prometheus.hh"

#include <cmath>
#include <ostream>
#include <sstream>

namespace vpprof
{
namespace telemetry
{

namespace
{

/** The `le` edge of log2 bucket i: 1 for bucket 0, else 2^i. Printed
 *  as an integer up to 2^63, then in scientific notation (the edges
 *  are exact powers of two, so the double is exact either way). */
void
writeBucketEdge(std::ostream &os, size_t i)
{
    if (i < 64) {
        os << (uint64_t{1} << (i == 0 ? 0 : i));
        return;
    }
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << std::ldexp(1.0, static_cast<int>(i));
    os << tmp.str();
}

} // namespace

std::string
prometheusName(const std::string &name)
{
    std::string out = "vpprof_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

void
writePrometheusText(const MetricsSnapshot &snap, std::ostream &os)
{
    os << "# vpprof metrics (Prometheus text format 0.0.4)\n";

    for (const auto &[name, value] : snap.counters) {
        std::string prom = prometheusName(name) + "_total";
        os << "# TYPE " << prom << " counter\n"
           << prom << ' ' << value << '\n';
    }
    for (const auto &[name, value] : snap.gauges) {
        std::string prom = prometheusName(name);
        os << "# TYPE " << prom << " gauge\n"
           << prom << ' ' << value << '\n';
    }
    for (const auto &[name, hist] : snap.histograms) {
        std::string prom = prometheusName(name);
        os << "# TYPE " << prom << " histogram\n";
        // Native histogram series: cumulative counts per `le` edge
        // (bucket 0 holds values <= 1, bucket i holds (2^(i-1), 2^i]),
        // then the mandatory +Inf bucket equal to _count.
        uint64_t cumulative = 0;
        for (size_t i = 0; i < hist.buckets.size(); ++i) {
            cumulative += hist.buckets[i];
            os << prom << "_bucket{le=\"";
            writeBucketEdge(os, i);
            os << "\"} " << cumulative << '\n';
        }
        os << prom << "_bucket{le=\"+Inf\"} " << hist.count << '\n'
           << prom << "_sum " << hist.sum << '\n'
           << prom << "_count " << hist.count << '\n';
    }
}

std::string
prometheusText(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    writePrometheusText(snap, os);
    return os.str();
}

} // namespace telemetry
} // namespace vpprof
