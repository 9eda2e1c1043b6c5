/**
 * @file
 * Command dispatch for vpprofd: turns parsed protocol Requests into
 * work against the daemon's one shared Session, with the results
 * rendered as JSON object members for the protocol layer.
 *
 * The dispatcher is deliberately socket-free: the server hands it
 * admitted jobs from ExperimentRunner worker lanes, and the tests
 * drive it directly to pin the serving results bit-identical to the
 * CLI-batch pipelines. Every job is VM passes: profile and the
 * training profiles behind annotatedProgram are Session's memoized
 * VM-direct profiles, evaluate runs the test input once into both
 * classifiers, and verify runs it bare. No job captures, reads or
 * writes a trace, so the daemon keeps no files.
 *
 * Thread safety: execute() may be called concurrently from several
 * runner lanes. Session entry points are internally synchronized;
 * every classifier/machine the dispatcher constructs is per-call.
 */

#ifndef VPPROF_DAEMON_DISPATCH_HH
#define VPPROF_DAEMON_DISPATCH_HH

#include <string>

#include "core/session.hh"
#include "daemon/protocol.hh"
#include "workloads/workload.hh"

namespace vpprof
{
namespace daemon
{

/** Outcome of executing one job request. */
struct JobOutcome
{
    bool ok = false;
    /** ok: pre-rendered JSON members of the `result` object. */
    std::string resultFields;
    /** !ok: structured failure. */
    ErrorCode code = ErrorCode::Internal;
    std::string error;
};

class Dispatcher
{
  public:
    Dispatcher(Session &session, const WorkloadSuite &suite)
        : session_(session), suite_(suite)
    {
    }

    /**
     * Execute one job command (profile / evaluate / verify). Blocking;
     * runs on a worker lane. Non-job commands are a caller bug.
     */
    JobOutcome execute(const Request &req);

    Session &session() { return session_; }
    const WorkloadSuite &suite() const { return suite_; }

  private:
    JobOutcome runProfile(const Workload &w, const Request &req);
    JobOutcome runEvaluate(const Workload &w, const Request &req);
    JobOutcome runVerify(const Workload &w, const Request &req);

    Session &session_;
    const WorkloadSuite &suite_;
};

/**
 * Order-sensitive FNV-1a digest over a profile image's counters: two
 * equal digests mean counter-for-counter identical profiles. The
 * protocol reports it so a client (or the CI smoke) can assert the
 * daemon path produced the exact image the batch path would.
 */
uint64_t profileDigest(const ProfileImage &image);

} // namespace daemon
} // namespace vpprof

#endif // VPPROF_DAEMON_DISPATCH_HH
