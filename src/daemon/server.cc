#include "daemon/server.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/telemetry/prometheus.hh"
#include "common/telemetry/telemetry.hh"

namespace vpprof
{
namespace daemon
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** A lane's start stamp once the watchdog has flagged its job. */
constexpr uint64_t kFlaggedJob = UINT64_MAX;

/** Base of the retry_after_ms hint on shedding rejections; the hint
 *  scales with the backlog (base + 2*queued). */
constexpr uint64_t kRetryHintBaseMs = 25;

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** A lifecycle event for request `req` of client `client_serial`. */
JobEvent
jobEvent(JobEventKind kind, uint64_t client_serial, const Request &req)
{
    JobEvent event;
    event.kind = kind;
    event.requestId = req.id;
    event.traceId = req.traceId;
    event.clientSerial = client_serial;
    event.cmd = req.cmd;
    event.workload = req.workload;
    return event;
}

/**
 * Split "host:port", resolve the host (dotted quad or "localhost"),
 * bind a non-blocking AF_INET listener. Port 0 asks the kernel for a
 * free one; the bound port is reported through `port_out`.
 */
int
openTcpListener(const std::string &address, uint16_t *port_out,
                std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg + " (" + std::strerror(errno) + ")";
        return -1;
    };
    size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= address.size()) {
        if (error)
            *error = "--listen needs host:port, got '" + address + "'";
        return -1;
    }
    std::string host = address.substr(0, colon);
    if (host == "localhost")
        host = "127.0.0.1";
    char *end = nullptr;
    unsigned long port = std::strtoul(address.c_str() + colon + 1,
                                      &end, 10);
    if (*end != '\0' || port > 65535) {
        if (error)
            *error = "bad listen port in '" + address + "'";
        return -1;
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "cannot resolve listen host '" + host +
                     "' (use a dotted quad or localhost)";
        return -1;
    }

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return fail("cannot create TCP socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(fd);
        return fail("cannot bind " + address);
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        return fail("cannot listen on " + address);
    }
    if (!setNonBlocking(fd)) {
        ::close(fd);
        return fail("cannot make TCP listener non-blocking");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0 && port_out)
        *port_out = ntohs(bound.sin_port);
    return fd;
}

} // namespace

DaemonServer::DaemonServer(DaemonConfig config)
    : config_(std::move(config)),
      session_(config_.session),
      dispatcher_(session_, suite_),
      events_(config_.eventRingCap),
      laneStartNs_(session_.runner().jobs())
{
    slo_.configure(config_.slo, config_.sloWindow);
}

DaemonServer::~DaemonServer()
{
    // run() normally tears everything down; this path covers start()
    // without run() (a failed test setup) and start() failures.
    if (executor_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            executorStop_ = true;
        }
        jobCv_.notify_all();
        executor_.join();
    }
    for (auto &[fd, client] : clients_)
        ::close(fd);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    int wfd = wakeWrite_.exchange(-1);
    if (wfd >= 0)
        ::close(wfd);
    if (socketBound_)
        ::unlink(config_.socketPath.c_str());
}

bool
DaemonServer::start(std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg + " (" + std::strerror(errno) + ")";
        return false;
    };

    if (config_.socketPath.empty()) {
        if (error)
            *error = "daemon needs a socket path";
        return false;
    }
    if (config_.shards != 1) {
        if (error)
            *error = "daemon runs one event loop; shards must be 1, got " +
                     std::to_string(config_.shards);
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + config_.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    // Writes to a client that vanished must be an error return on the
    // write, never a process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("cannot create socket");
    ::unlink(config_.socketPath.c_str());  // replace a stale socket
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("cannot bind " + config_.socketPath);
    socketBound_ = true;
    if (::listen(listenFd_, 64) != 0)
        return fail("cannot listen on " + config_.socketPath);
    if (!setNonBlocking(listenFd_))
        return fail("cannot make listener non-blocking");

    if (!config_.listenAddress.empty()) {
        tcpListenFd_ = openTcpListener(config_.listenAddress, &tcpPort_,
                                       error);
        if (tcpListenFd_ < 0)
            return false;
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return fail("cannot create wake pipe");
    wakeRead_ = pipe_fds[0];
    wakeWrite_.store(pipe_fds[1]);
    setNonBlocking(wakeRead_);
    setNonBlocking(pipe_fds[1]);

    // One long forEach: every runner thread, the executor thread
    // included, becomes a lane for the daemon's lifetime, and a job
    // that calls forEach itself runs it inline on its own lane.
    executor_ = std::thread([this] {
        session_.runner().forEach(laneStartNs_.size(), [this](size_t lane) {
            laneLoop(lane);
        });
    });
    started_ = true;
    return true;
}

void
DaemonServer::requestShutdown()
{
    // Async-signal-safe; a full pipe already holds a pending wake.
    wake('T');
}

void
DaemonServer::wake(char tag)
{
    int fd = wakeWrite_.load(std::memory_order_relaxed);
    if (fd < 0)
        return;
    [[maybe_unused]] ssize_t n = ::write(fd, &tag, 1);
}

// ---------------------------------------------------------------- //
//                          runner lanes                            //
// ---------------------------------------------------------------- //

void
DaemonServer::laneLoop(size_t lane)
{
    for (;;) {
        Completion done;
        {
            std::unique_lock<std::mutex> lock(jobMutex_);
            jobCv_.wait(lock, [&] {
                return executorStop_ || !jobQueue_.empty();
            });
            if (jobQueue_.empty())
                return;  // stopping, and every admitted job has run
            done.job = std::move(jobQueue_.front());
            jobQueue_.pop_front();
            ++runningJobs_;
        }
        const Job &job = done.job;
        uint64_t start = nowNs();
        counters_.queueWaitUs.observe((start - job.admitNs) / 1000);
        JobOutcome &outcome = done.outcome.emplace();
        if (job.deadlineNs != 0 && start >= job.deadlineNs) {
            // Never run a job already past its deadline: the lane
            // double-checks what the timer sweep may have missed
            // between poll wakeups.
            outcome.code = ErrorCode::DeadlineExceeded;
            outcome.error = "deadline exceeded while queued";
        } else {
            // The Started notice rides the completion FIFO ahead of
            // the result: the event loop owns the ring.
            {
                std::lock_guard<std::mutex> lock(completionMutex_);
                completions_.push_back(
                    {job, std::nullopt, telemetry::nowNs()});
            }
            laneStartNs_[lane].store(start, std::memory_order_relaxed);
            // Nudge the event loop: it may be blocked in poll() with a
            // timeout computed before this job's watchdog deadline.
            wake('C');
            // Every span recorded while this job runs — vm.interpret,
            // trace.replay, eval.* — carries its trace id, so one
            // request's full span tree falls out of the Perfetto trace
            // by filtering args.trace_id.
            telemetry::ScopedTraceId trace_scope(job.req.traceId);
            VPPROF_TIMED_SPAN("daemon.job");
            // Latency/fault injection per dispatched job: Delay makes
            // fire() itself sleep (the job runs late but correct).
            if (FailpointRegistry::instance().fire("daemon.dispatch") !=
                FailpointAction::None) {
                outcome.code = ErrorCode::Internal;
                outcome.error = "injected dispatch fault";
            } else {
                outcome = dispatcher_.execute(job.req);
            }
            laneStartNs_[lane].store(0, std::memory_order_relaxed);
        }

        // The completion posts BEFORE running drops, so a loop that
        // sees runningJobs_ == 0 under jobMutex_ cannot miss a
        // completion still in flight (drainComplete checks in that
        // order).
        {
            std::lock_guard<std::mutex> lock(completionMutex_);
            completions_.push_back(std::move(done));
        }
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            --runningJobs_;
        }
        wake('C');
    }
}

// ---------------------------------------------------------------- //
//                         event loop                               //
// ---------------------------------------------------------------- //

int
DaemonServer::run()
{
    if (!started_)
        vpprof_panic("DaemonServer::run() before start()");

    std::vector<pollfd> fds;
    std::vector<int> client_fds;
    while (true) {
        fds.clear();
        client_fds.clear();
        fds.push_back({wakeRead_, POLLIN, 0});
        size_t unix_idx = SIZE_MAX, tcp_idx = SIZE_MAX;
        if (!draining_) {
            if (listenFd_ >= 0) {
                unix_idx = fds.size();
                fds.push_back({listenFd_, POLLIN, 0});
            }
            if (tcpListenFd_ >= 0) {
                tcp_idx = fds.size();
                fds.push_back({tcpListenFd_, POLLIN, 0});
            }
        }
        size_t clients_base = fds.size();
        for (auto &[fd, client] : clients_) {
            short events = POLLIN;
            if (client.outOff < client.outBuf.size())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
            client_fds.push_back(fd);
        }

        uint64_t now = nowNs();
        int rc = ::poll(fds.data(),
                        static_cast<nfds_t>(fds.size()),
                        computeTimeoutMs(now));
        if (rc < 0 && errno != EINTR)
            vpprof_panic("poll failed: ", std::strerror(errno));
        now = nowNs();

        if (fds[0].revents & POLLIN) {
            char buf[64];
            ssize_t n;
            bool drain_requested = false;
            while ((n = ::read(wakeRead_, buf, sizeof(buf))) > 0)
                for (ssize_t i = 0; i < n; ++i)
                    drain_requested |= buf[i] == 'T';
            if (drain_requested)
                beginDrain();
        }

        drainCompletions();

        if (unix_idx != SIZE_MAX && (fds[unix_idx].revents & POLLIN))
            acceptClients(listenFd_);
        if (tcp_idx != SIZE_MAX && (fds[tcp_idx].revents & POLLIN))
            acceptClients(tcpListenFd_);

        for (size_t i = 0; i < client_fds.size(); ++i) {
            int fd = client_fds[i];
            short revents = fds[clients_base + i].revents;
            if (revents == 0 || !clients_.count(fd))
                continue;
            if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
                // POLLHUP with readable data still delivers POLLIN
                // first on Linux; by the time HUP arrives alone the
                // peer is gone for good.
                if (!(revents & POLLIN)) {
                    closeClient(fd);
                    continue;
                }
            }
            if (revents & POLLOUT) {
                flushClient(clients_.at(fd));
                // Freed backlog may admit pending telemetry lines.
                if (clients_.count(fd))
                    pumpSubscriber(clients_.at(fd));
            }
            if (clients_.count(fd) && (revents & POLLIN))
                readClient(fd);
        }

        handleTimers(now);

        if (draining_) {
            // Keep forcing pending lifecycle events toward the socket
            // while quiescing: the drain contract includes every
            // subscriber's cursor.
            forEachSubscriber([&](Client &c) { pumpSubscriber(c, false); });
            if (drainComplete())
                break;
        }
    }

    // Quiesced: every admitted job was answered (or its client
    // vanished), every buffer flushed and every cursor at the head.
    while (!clients_.empty())
        closeClient(clients_.begin()->first);
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        executorStop_ = true;
    }
    jobCv_.notify_all();
    executor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (tcpListenFd_ >= 0) {
        ::close(tcpListenFd_);
        tcpListenFd_ = -1;
    }
    if (socketBound_) {
        ::unlink(config_.socketPath.c_str());
        socketBound_ = false;
    }
    // The whole point of a *graceful* drain: a SIGTERM-initiated exit
    // still writes complete --metrics-out / --trace-json files even
    // though no atexit handler will run before _exit in some
    // embeddings.
    telemetry::flushOutputs();
    return 0;
}

void
DaemonServer::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    size_t queued;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        queued = jobQueue_.size();
    }
    vpprof_inform("vpprofd: draining (", queued, " queued jobs)");
    // Refuse new connections immediately: close + unlink so fresh
    // connects fail fast instead of queueing in the backlog.
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (tcpListenFd_ >= 0) {
        ::close(tcpListenFd_);
        tcpListenFd_ = -1;
    }
    if (socketBound_) {
        ::unlink(config_.socketPath.c_str());
        socketBound_ = false;
    }
}

bool
DaemonServer::drainComplete() const
{
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        if (runningJobs_ != 0 || !jobQueue_.empty())
            return false;
    }
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        if (!completions_.empty())
            return false;
    }
    for (const auto &[fd, client] : clients_) {
        if (client.outOff < client.outBuf.size())
            return false;
        if (client.sub && client.sub->nextSeq != events_.headSeq())
            return false;
    }
    return true;
}

int
DaemonServer::computeTimeoutMs(uint64_t now_ns) const
{
    // While draining, completions and writability drive the loop; a
    // short tick only backstops the final quiescence check.
    if (draining_)
        return 20;

    uint64_t next = UINT64_MAX;
    for (const auto &[fd, client] : clients_)
        if (config_.idleTimeoutMs > 0 && client.inflight == 0)
            next = std::min(next, client.lastActivityNs +
                                      config_.idleTimeoutMs * 1'000'000);
    {
        // Queued deadlines must wake the loop even when no socket is
        // readable — an expired job is answered by the timer sweep.
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (const Job &job : jobQueue_)
            if (job.deadlineNs != 0)
                next = std::min(next, job.deadlineNs);
    }
    if (config_.watchdogMs > 0)
        for (const auto &stamp : laneStartNs_) {
            // A flagged job sets no deadline: the loop would otherwise
            // spin at timeout 0 until that job ends.
            uint64_t start = stamp.load(std::memory_order_relaxed);
            if (start != 0 && start != kFlaggedJob)
                next = std::min(next,
                                start + config_.watchdogMs * 1'000'000);
        }
    if (next == UINT64_MAX)
        return -1;
    if (next <= now_ns)
        return 0;
    return static_cast<int>(
        std::min<uint64_t>((next - now_ns) / 1'000'000 + 1, 60'000));
}

void
DaemonServer::acceptClients(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == ECONNABORTED)
                break;
            counters_.acceptFailures.add();
            vpprof_warn_limited(4, "vpprofd: accept failed: ",
                                std::strerror(errno));
            break;
        }
        // Deterministic socket-level fault: a connection the kernel
        // accepted but the daemon could not adopt.
        if (FailpointRegistry::instance().fire("daemon.accept") !=
            FailpointAction::None) {
            counters_.acceptFailures.add();
            ::close(fd);
            continue;
        }
        if (!setNonBlocking(fd)) {
            counters_.acceptFailures.add();
            ::close(fd);
            continue;
        }
        Client client;
        client.fd = fd;
        client.serial = nextClientSerial_++;
        client.lastActivityNs = nowNs();
        clientFdBySerial_[client.serial] = fd;
        clients_.emplace(fd, std::move(client));
        counters_.connections.add();
    }
}

void
DaemonServer::readClient(int fd)
{
    Client &client = clients_.at(fd);
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            client.inBuf.append(buf, static_cast<size_t>(n));
            client.lastActivityNs = nowNs();
            if (static_cast<ssize_t>(sizeof(buf)) != n)
                break;
            continue;
        }
        if (n == 0) {
            closeClient(fd);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeClient(fd);
        return;
    }

    // Frame complete lines; a request longer than maxLineBytes is a
    // protocol violation answered, then the connection is dropped.
    size_t start = 0;
    for (;;) {
        if (!clients_.count(fd))
            return;  // handleLine drained into a close
        size_t nl = client.inBuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = client.inBuf.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line.size() > config_.maxLineBytes) {
            counters_.badRequests.add();
            sendLine(client,
                     errorResponseLine(0, ErrorCode::BadRequest,
                                       "request line too long"));
            closeClient(fd);
            return;
        }
        handleLine(client, line);
    }
    client.inBuf.erase(0, start);
    if (client.inBuf.size() > config_.maxLineBytes) {
        counters_.badRequests.add();
        sendLine(client,
                 errorResponseLine(0, ErrorCode::BadRequest,
                                   "request line too long"));
        closeClient(fd);
    }
}

void
DaemonServer::handleLine(Client &client, const std::string &line)
{
    counters_.requests.add();
    std::string error;
    uint64_t id = 0;
    std::optional<Request> req = parseRequest(line, &error, &id);
    if (!req) {
        counters_.badRequests.add();
        sendLine(client,
                 errorResponseLine(id, ErrorCode::BadRequest, error));
        return;
    }

    // Every request carries a trace id from here on: the client's own
    // if it sent one, a daemon-minted one otherwise. It is echoed on
    // every line emitted for this request and tags the job's spans.
    if (req->traceId == 0)
        req->traceId = nextTraceId_++;

    if (!commandIsJob(req->cmd)) {
        counters_.immediate.add();
        switch (req->cmd) {
          case Command::Ping:
            sendLine(client,
                     okResponseLine(req->id, req->cmd, "",
                                    req->traceId));
            break;
          case Command::Stats:
            sendLine(client,
                     okResponseLine(req->id, req->cmd, statsFields(),
                                    req->traceId));
            break;
          case Command::Shutdown:
            sendLine(client,
                     okResponseLine(req->id, req->cmd, "",
                                    req->traceId));
            // Drain synchronously: a job pipelined behind `shutdown`
            // in the same read burst must already see `draining`.
            beginDrain();
            break;
          case Command::Cancel:
            handleCancel(client, *req);
            break;
          case Command::Subscribe:
            handleSubscribe(client, *req);
            break;
          case Command::Metrics:
            handleMetrics(client, *req);
            break;
          case Command::Journal:
            handleJournal(client, *req);
            break;
          default:
            break;
        }
        return;
    }

    {
        recordJobEvent(
            jobEvent(JobEventKind::Received, client.serial, *req));
    }
    handleJobRequest(client, *req);
}

void
DaemonServer::rejectShedding(Client &client, const Request &req,
                             ErrorCode code, const std::string &detail)
{
    size_t queued;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        queued = jobQueue_.size() + runningJobs_;
    }
    switch (code) {
      case ErrorCode::Overloaded:
        counters_.rejectedOverloaded.add();
        break;
      case ErrorCode::Quota:
        counters_.rejectedQuota.add();
        break;
      case ErrorCode::Draining:
        counters_.rejectedDraining.add();
        break;
      default:
        break;
    }
    {
        JobEvent event =
            jobEvent(JobEventKind::Rejected, client.serial, req);
        event.detail = errorCodeName(code);
        event.queued = queued;
        recordJobEvent(std::move(event));
    }
    // The hint scales with the backlog the daemon can actually see:
    // an empty queue says "come right back", a deep one says wait.
    uint64_t hint = kRetryHintBaseMs + 2 * queued;
    sendLine(client,
             rejectionResponseLine(
                 req.id, code,
                 detail + " (" + std::to_string(queued) +
                     " admitted); retry with backoff",
                 hint, queued, req.traceId));
}

void
DaemonServer::handleCancel(Client &client, const Request &req)
{
    // Only the caller's own QUEUED job is cancellable; a running job
    // finishes (its completion still settles quota).
    std::optional<Job> removed;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (auto it = jobQueue_.begin(); it != jobQueue_.end(); ++it) {
            if (it->clientSerial == client.serial &&
                it->req.id == req.cancelTarget) {
                removed = std::move(*it);
                jobQueue_.erase(it);
                break;
            }
        }
    }
    // Answer the cancel FIRST: a synchronous client is waiting for
    // this id, and the cancelled target's error line follows it.
    sendLine(client,
             okResponseLine(req.id, req.cmd,
                            removed ? "\"cancelled\": true"
                                    : "\"cancelled\": false",
                            req.traceId));
    if (removed)
        settleDeadJob(*removed, ErrorCode::Cancelled,
                      "cancelled by client");
}

void
DaemonServer::handleSubscribe(Client &client, const Request &req)
{
    std::string error;
    if (!parseEventFilter(req.subEvents, &error)) {
        counters_.badRequests.add();
        sendLine(client,
                 errorResponseLine(req.id, ErrorCode::BadRequest, error,
                                   req.traceId));
        return;
    }
    Subscription sub;
    sub.sampleRate = req.sampleRate;
    sub.nextSeq = events_.headSeq();
    client.sub.emplace(sub);
    counters_.subscribes.add();
    std::ostringstream os;
    os << "\"subscribed\": true, \"events\": \"lifecycle\", "
          "\"sample_rate\": "
       << report::formatJsonNumber(req.sampleRate)
       << ", \"ring\": " << config_.eventRingCap;
    sendLine(client,
             okResponseLine(req.id, req.cmd, os.str(), req.traceId));
}

void
DaemonServer::handleMetrics(Client &client, const Request &req)
{
    // A live snapshot: merged across every thread's slots, never
    // flushed or reset — scraping is free of observable side effects.
    std::ostringstream os;
    os << "\"telemetry_enabled\": true, ";
    if (req.format == "prometheus") {
        os << "\"text\": "
           << report::quoteJsonString(
                  telemetry::prometheusText(
                      telemetry::snapshotMetrics()));
    } else {
        os << "\"metrics\": ";
        telemetry::snapshotMetrics().writeJson(os);
    }
    sendLine(client,
             okResponseLine(req.id, req.cmd, os.str(), req.traceId));
}

void
DaemonServer::handleJournal(Client &client, const Request &req)
{
    std::ostringstream os;
    os << "\"total\": " << events_.total()
       << ", \"retained\": " << events_.size()
       << ", \"events\": " << events_.renderJsonArray(req.limit);
    sendLine(client,
             okResponseLine(req.id, req.cmd, os.str(), req.traceId));
}

void
DaemonServer::recordJobEvent(JobEvent event)
{
    if (event.tsNs == 0)
        event.tsNs = telemetry::nowNs();
    counters_.eventsEmitted.add();
    // Mirror into the Perfetto trace as an instant event when tracing
    // is armed: the job's lifecycle markers sit on the same time axis
    // as its executor spans, joined by trace_id.
    if (telemetry::SpanTracer::instance().enabled())
        telemetry::SpanTracer::instance().recordInstant(
            std::string("job.") + jobEventKindName(event.kind),
            event.tsNs, event.traceId);
    events_.push(std::move(event));
    forEachSubscriber([&](Client &c) { pumpSubscriber(c); });
}

template <typename Fn>
void
DaemonServer::forEachSubscriber(Fn fn)
{
    std::vector<int> fds;
    for (const auto &[fd, c] : clients_)
        if (c.sub)
            fds.push_back(fd);
    for (int fd : fds) {
        auto it = clients_.find(fd);
        if (it != clients_.end())  // an earlier fn may have closed it
            fn(it->second);
    }
}

void
DaemonServer::pumpSubscriber(Client &client, bool bounded)
{
    if (!client.sub)
        return;
    Subscription &sub = *client.sub;
    // The ring evicted events this cursor never reached: each one the
    // sampler passes is a gap the subscriber sees (counted in
    // events_dropped and its own `dropped`), never a stalled daemon
    // or unbounded memory.
    uint64_t dropped = 0;
    for (uint64_t n = events_.overtaken(sub.nextSeq); n > 0; --n)
        dropped += sub.sample();
    if (dropped > 0) {
        sub.dropped += dropped;
        counters_.eventsDropped.add(dropped);
    }
    sub.nextSeq = std::max(sub.nextSeq, events_.oldestSeq());

    int fd = client.fd;
    bool appended = false;
    while (sub.nextSeq < events_.headSeq()) {
        // Subscription::sample(), committed only once the event fits.
        double acc = sub.sampleAcc + sub.sampleRate;
        if (acc >= 1.0) {
            std::string line = jobEventJson(events_.at(sub.nextSeq));
            size_t backlog = client.outBuf.size() - client.outOff;
            if (bounded &&
                backlog + line.size() + 1 > config_.maxClientOutBufBytes) {
                // Telemetry never pushes the backlog past the
                // slow-reader bound: the event WAITS in the ring (until
                // eviction) instead of growing outBuf into a
                // disconnect. A flush that empties the backlog makes
                // room; otherwise POLLOUT pumps again.
                if (backlog == 0)
                    return;  // a line over the bound never fits
                flushClient(client);
                if (!clients_.count(fd) ||
                    client.outOff < client.outBuf.size())
                    return;
                appended = false;
                continue;
            }
            client.outBuf += line;
            client.outBuf += '\n';
            ++sub.delivered;
            appended = true;
            acc -= 1.0;
        }
        sub.sampleAcc = acc;
        ++sub.nextSeq;
    }
    if (appended)
        flushClient(client);
}

void
DaemonServer::settleDeadJob(const Job &job, ErrorCode code,
                            const std::string &detail)
{
    if (code == ErrorCode::Cancelled)
        counters_.cancelled.add();
    else if (code == ErrorCode::DeadlineExceeded)
        counters_.deadlineExceeded.add();
    {
        JobEvent event = jobEvent(code == ErrorCode::Cancelled
                                      ? JobEventKind::Cancelled
                                      : JobEventKind::Deadline,
                                  job.clientSerial, job.req);
        event.detail = detail;
        recordJobEvent(std::move(event));
    }
    auto it = clientFdBySerial_.find(job.clientSerial);
    if (it == clientFdBySerial_.end())
        return;
    Client &client = clients_.at(it->second);
    if (client.inflight > 0)
        --client.inflight;
    sendLine(client,
             errorResponseLine(job.req.id, code, detail,
                               job.req.traceId));
}

void
DaemonServer::handleJobRequest(Client &client, const Request &req)
{
    if (draining_) {
        rejectShedding(client, req, ErrorCode::Draining,
                       "daemon is shutting down");
        return;
    }
    if (client.inflight >= config_.maxInflightPerClient) {
        rejectShedding(client, req, ErrorCode::Quota,
                       "client in-flight quota reached (" +
                           std::to_string(
                               config_.maxInflightPerClient) +
                           ")");
        return;
    }
    bool enqueued = false;
    size_t admitted = 0;
    uint64_t now = nowNs();
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        admitted = jobQueue_.size() + runningJobs_;
        if (admitted < config_.maxQueue) {
            // Saturate: a deadline past the clock's range never
            // expires rather than wrapping to "already expired".
            uint64_t deadline = 0;
            if (req.deadlineMs > 0)
                deadline =
                    req.deadlineMs < (UINT64_MAX - now) / 1'000'000
                        ? now + req.deadlineMs * 1'000'000
                        : UINT64_MAX;
            jobQueue_.push_back({client.serial, req, now, deadline});
            ++admitted;
            enqueued = true;
        }
    }
    if (!enqueued) {
        rejectShedding(client, req, ErrorCode::Overloaded,
                       "admission queue full (" +
                           std::to_string(config_.maxQueue) +
                           " jobs)");
        return;
    }
    ++client.inflight;
    counters_.jobsAdmitted.add();
    {
        JobEvent event =
            jobEvent(JobEventKind::Admitted, client.serial, req);
        event.queued = admitted;
        recordJobEvent(std::move(event));
    }
    jobCv_.notify_one();
}

void
DaemonServer::drainCompletions()
{
    std::deque<Completion> done;
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        done.swap(completions_);
    }
    for (Completion &c : done) {
        const Job &job = c.job;
        if (!c.outcome) {
            JobEvent event =
                jobEvent(JobEventKind::Started, job.clientSerial, job.req);
            event.tsNs = c.startedNs;
            recordJobEvent(std::move(event));
            continue;
        }
        JobOutcome &outcome = *c.outcome;
        // A result arriving past its deadline is not served late: the
        // client contracted for an answer by deadline_ms and gets the
        // structured failure instead (the work itself still warmed
        // the shared caches).
        if (outcome.ok && job.deadlineNs != 0 &&
            nowNs() >= job.deadlineNs) {
            outcome.ok = false;
            outcome.code = ErrorCode::DeadlineExceeded;
            outcome.error = "completed after deadline";
            outcome.resultFields.clear();
        }
        if (outcome.ok)
            counters_.jobsCompleted.add();
        else if (outcome.code == ErrorCode::DeadlineExceeded)
            counters_.deadlineExceeded.add();
        else
            counters_.jobsFailed.add();
        uint64_t latency_ns = nowNs() - job.admitNs;
        counters_.jobLatencyUs.observe(latency_ns / 1000);
        slo_.observe(static_cast<double>(latency_ns) / 1e6, outcome.ok);
        {
            JobEvent event = jobEvent(
                outcome.ok ? JobEventKind::Completed
                           : (outcome.code == ErrorCode::DeadlineExceeded
                                  ? JobEventKind::Deadline
                                  : JobEventKind::Failed),
                job.clientSerial, job.req);
            if (!outcome.ok)
                event.detail = outcome.error;
            recordJobEvent(std::move(event));
        }

        auto it = clientFdBySerial_.find(job.clientSerial);
        if (it == clientFdBySerial_.end())
            continue;  // client vanished; the job still ran to completion
        Client &client = clients_.at(it->second);
        if (client.inflight > 0)
            --client.inflight;
        if (outcome.ok)
            sendLine(client,
                     okResponseLine(job.req.id, job.req.cmd,
                                    outcome.resultFields, job.req.traceId));
        else
            sendLine(client,
                     errorResponseLine(job.req.id, outcome.code,
                                       outcome.error, job.req.traceId));
    }
}

void
DaemonServer::expireQueuedJobs(uint64_t now_ns)
{
    // Deadline sweep over the admission queue: expired jobs are
    // answered deadline_exceeded HERE: an expired request must not
    // consume a runner lane.
    std::vector<Job> expired;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (auto it = jobQueue_.begin(); it != jobQueue_.end();) {
            if (it->deadlineNs != 0 && now_ns >= it->deadlineNs) {
                expired.push_back(std::move(*it));
                it = jobQueue_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const Job &job : expired)
        settleDeadJob(job, ErrorCode::DeadlineExceeded,
                      "deadline exceeded while queued (" +
                          std::to_string(job.req.deadlineMs) + " ms)");
}

void
DaemonServer::handleTimers(uint64_t now_ns)
{
    expireQueuedJobs(now_ns);

    // Watchdog: flag a job running longer than watchdogMs once, by
    // swapping its lane's stamp for kFlaggedJob, so a stuck job shows
    // up in telemetry without spamming the log every tick. The swap
    // fails when the lane finished or moved on since the load.
    if (config_.watchdogMs > 0)
        for (size_t lane = 0; lane < laneStartNs_.size(); ++lane) {
            uint64_t start =
                laneStartNs_[lane].load(std::memory_order_relaxed);
            if (start != 0 && now_ns > start &&
                now_ns - start > config_.watchdogMs * 1'000'000 &&
                laneStartNs_[lane].compare_exchange_strong(
                    start, kFlaggedJob, std::memory_order_relaxed)) {
                counters_.watchdogFlags.add();
                vpprof_warn("vpprofd: job on lane ", lane, " running > ",
                            config_.watchdogMs, " ms (stuck job?)");
            }
        }

    // Idle closes: no complete request and nothing in flight.
    if (config_.idleTimeoutMs == 0)
        return;
    std::vector<int> idle;
    for (auto &[fd, client] : clients_) {
        // A subscriber is a deliberate long-lived listener, never
        // idle; lastActivityNs can postdate now_ns (accepted after
        // this loop iteration captured the clock): not idle.
        if (!client.sub && client.inflight == 0 &&
            client.outOff >= client.outBuf.size() &&
            now_ns > client.lastActivityNs &&
            now_ns - client.lastActivityNs >
                config_.idleTimeoutMs * 1'000'000)
            idle.push_back(fd);
    }
    for (int fd : idle)
        closeClient(fd, /*counted_idle=*/true);
}

void
DaemonServer::sendLine(Client &client, const std::string &line)
{
    client.outBuf += line;
    client.outBuf += '\n';
    flushClient(client);
}

void
DaemonServer::flushClient(Client &client)
{
    int fd = client.fd;
    while (client.outOff < client.outBuf.size()) {
        // Deterministic socket-level write fault.
        if (FailpointRegistry::instance().fire("daemon.write") !=
            FailpointAction::None) {
            counters_.writeErrors.add();
            closeClient(fd);
            return;
        }
        ssize_t n = ::write(fd, client.outBuf.data() + client.outOff,
                            client.outBuf.size() - client.outOff);
        if (n > 0) {
            client.outOff += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Slow reader: the kernel buffer is full AND our backlog
            // for this client exceeds the bound. Waiting longer only
            // grows daemon memory at the reader's pace — drop it.
            if (client.outBuf.size() - client.outOff >
                config_.maxClientOutBufBytes) {
                counters_.slowReaderCloses.add();
                vpprof_warn_limited(
                    4, "vpprofd: dropping slow reader (",
                    client.outBuf.size() - client.outOff,
                    " bytes unflushed)");
                closeClient(fd);
                return;
            }
            return;  // wait for POLLOUT
        }
        if (n < 0 && errno == EINTR)
            continue;
        counters_.writeErrors.add();
        closeClient(fd);
        return;
    }
    client.outBuf.clear();
    client.outOff = 0;
}

void
DaemonServer::closeClient(int fd, bool counted_idle)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    uint64_t serial = it->second.serial;
    clientFdBySerial_.erase(serial);
    // Count before closing: the peer may read the counters as soon as
    // it sees EOF.
    counters_.disconnects.add();
    if (counted_idle)
        counters_.idleCloses.add();
    ::close(fd);
    clients_.erase(it);

    // Cancel the departed client's QUEUED jobs: nobody is left to
    // read the answers, so running them only burns lanes other
    // clients are waiting for. Running jobs finish (their lanes own
    // them); their completions are dropped on arrival.
    std::vector<Job> purged;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (auto jit = jobQueue_.begin(); jit != jobQueue_.end();) {
            if (jit->clientSerial == serial) {
                purged.push_back(std::move(*jit));
                jit = jobQueue_.erase(jit);
            } else {
                ++jit;
            }
        }
    }
    for (const Job &job : purged) {
        counters_.cancelled.add();
        JobEvent event = jobEvent(JobEventKind::Cancelled, serial, job.req);
        event.detail = "client disconnected";
        recordJobEvent(std::move(event));
    }
}

std::string
DaemonServer::statsFields()
{
    // ONE serializer for every stats surface (`stats`, vpprofd
    // --stats): the daemon block is the live counters themselves, and
    // the trace block reuses TraceRepoStats::writeJsonFields — exactly
    // what --stats-json and BENCH_session.json print.
    constexpr std::string_view kPrefix = "daemon.";
    size_t queued, running;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        queued = jobQueue_.size();
        running = runningJobs_;
    }
    TraceRepoStats repo_stats = session_.traces().stats();
    std::ostringstream os;
    os << "\"daemon\": {";
    for (const telemetry::ScopedCounter *c : counters_.served())
        os << "\"" << c->name().substr(kPrefix.size()) << "\": "
           << c->value() << ", ";
    os << "\"queued\": " << queued << ", \"running\": " << running
       << ", \"clients\": " << clients_.size() << "}, \"slo\": {";
    slo_.writeJsonFields(os);
    os << "}, \"log\": {\"warnings_emitted\": " << warningsEmitted()
       << ", \"warnings_suppressed\": " << warningsSuppressed()
       << "}, \"trace\": " << repoStatsJson(repo_stats);
    return os.str();
}

} // namespace daemon
} // namespace vpprof
