/**
 * @file
 * Prometheus text exposition (format version 0.0.4) of a metrics
 * snapshot: counters as `vpprof_<name>_total`, gauges as
 * `vpprof_<name>`, log2-bucket histograms as native Prometheus
 * histograms with CUMULATIVE `le` buckets over powers of two plus
 * `+Inf`, `_sum` and `_count`.
 *
 * Metric names are sanitized to the Prometheus grammar
 * ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and any other illegal characters
 * become underscores, and everything is prefixed `vpprof_`. The
 * serializer is pure over MetricsSnapshot: an empty snapshot emits
 * only the header comment.
 */

#ifndef VPPROF_COMMON_TELEMETRY_PROMETHEUS_HH
#define VPPROF_COMMON_TELEMETRY_PROMETHEUS_HH

#include <iosfwd>
#include <string>

#include "common/telemetry/metrics.hh"

namespace vpprof
{
namespace telemetry
{

/** Sanitize one dotted metric name into a Prometheus identifier
 *  (prefixed `vpprof_`; a `_total` suffix is the caller's concern). */
std::string prometheusName(const std::string &name);

/** Serialize the snapshot in Prometheus text exposition format. */
void writePrometheusText(const MetricsSnapshot &snap, std::ostream &os);

/** writePrometheusText into a string. */
std::string prometheusText(const MetricsSnapshot &snap);

} // namespace telemetry
} // namespace vpprof

#endif // VPPROF_COMMON_TELEMETRY_PROMETHEUS_HH
