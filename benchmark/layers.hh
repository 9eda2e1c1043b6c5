/**
 * @file
 * vpbench's layer pass: after the load, time calls into each module's
 * public functions on a fresh Session in the state the workload's
 * daemon started from. Every workload times the same keys, so the
 * seed moves no per-layer work.
 */

#ifndef VPBENCH_LAYERS_HH
#define VPBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "harness.hh"
#include "workloads/workload.hh"

namespace vpbench
{

/**
 * Run the layer pass over every program on input 0 (evaluates at
 * Traffic::kThreshold) and return the per-layer metrics (README.md
 * lists them with the end-to-end metric each should move). Each timed
 * call is a span named after its metric while the tracer is enabled.
 *
 * @param cache_dir   Trace cache for the fresh Session: the populated
 *                    cache, or an empty directory for cold_start.
 * @param scratch_dir Where trace_io writes and re-reads its test file.
 */
std::vector<Metric> layerPass(const vpprof::WorkloadSuite &suite,
                              const std::string &cache_dir,
                              const std::string &scratch_dir);

/**
 * The protocol layer's cost on the run's own traffic: mean ns per
 * parseRequest over the first (up to 1000) request lines the run sent
 * (`sent` of them), and per okResponseLine over the answers the daemon
 * gave them, as recorded in `book`. Stats answers change with every
 * call and are left out.
 */
std::vector<Metric> protocolPass(const Traffic &traffic, Mix workload,
                                 uint64_t sent, const ResultBook &book);

} // namespace vpbench

#endif // VPBENCH_LAYERS_HH
