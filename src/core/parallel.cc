#include "core/parallel.hh"

#include "common/telemetry/telemetry.hh"

namespace vpprof
{

namespace
{

/** Set while the current thread executes a cell: nested forEach runs
 *  inline instead of re-entering the pool (which would deadlock the
 *  waiting outer batch). */
thread_local bool tls_in_cell = false;

} // namespace

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs != 0 ? jobs
                      : std::max(1u, std::thread::hardware_concurrency()))
{
    // jobs_ - 1 workers: the thread calling forEach is the last lane.
    for (unsigned i = 1; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ExperimentRunner::~ExperimentRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ExperimentRunner::drainBatch()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (next_ < n_) {
        size_t i = next_++;
        lock.unlock();
        tls_in_cell = true;
        {
            // One coarse span per cell, never per instruction: a sweep
            // runs thousands of cells at most, so the trace stays small
            // and every worker lane shows up in Perfetto.
            VPPROF_SPAN("runner.cell");
            (*fn_)(i);
        }
        tls_in_cell = false;
        lock.lock();
        ++completed_;
        if (completed_ == n_)
            done_.notify_all();
    }
}

void
ExperimentRunner::workerLoop()
{
    static const telemetry::HistogramMetric queue_wait(
        "runner.queue_wait.us");
    uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ || (generation_ != seen && next_ < n_);
            });
            if (shutdown_)
                return;
            seen = generation_;
            // Publish-to-pickup latency of this worker for the batch:
            // how long cells sat queued before a lane started pulling.
            queue_wait.observe((telemetry::nowNs() - batchPublishNs_) /
                               1000);
        }
        drainBatch();
    }
}

void
ExperimentRunner::forEach(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs_ <= 1 || n == 1 || tls_in_cell) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn_ = &fn;
        n_ = n;
        next_ = 0;
        completed_ = 0;
        ++generation_;
        batchPublishNs_ = telemetry::nowNs();
    }
    wake_.notify_all();
    drainBatch();

    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return completed_ == n_; });
    fn_ = nullptr;
    n_ = 0;
}

} // namespace vpprof
