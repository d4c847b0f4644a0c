#include "service/daemon.hh"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/result_store.hh"
#include "service/planner.hh"
#include "service/protocol.hh"

namespace tensordash {
namespace service {

namespace {

/** Seconds a freshly accepted client gets to send its JobRequest
 * before the accept loop gives up on it (a stalled client must not
 * park the daemon). */
constexpr int kRequestTimeoutSec = 10;

/** Stream a Progress frame every this many finished layer tasks (plus
 * always the final one): fine enough to tail, coarse enough that a
 * thousand-task grid doesn't flood the socket. */
constexpr uint64_t kProgressStride = 16;

/** Async-signal state: handlers only set the flag and poke the
 * self-pipe; everything else happens on normal threads. */
std::atomic<bool> g_stop{false};
int g_stop_pipe[2] = {-1, -1};

void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    if (g_stop_pipe[1] >= 0) {
        char byte = 1;
        // The pipe is only a wakeup; a full pipe already wakes.
        [[maybe_unused]] ssize_t n =
            ::write(g_stop_pipe[1], &byte, 1);
    }
}

void
installStopHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: blocking waitpid/poll must return EINTR so the
    // drain logic runs promptly.
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

/** One accepted, parsed job waiting for the dispatcher. */
struct PendingJob
{
    int fd = -1;
    JobSpec spec;
};

/** FIFO handoff between the accept loop and the dispatcher thread. */
struct JobQueue
{
    std::mutex mu;
    std::condition_variable cv;
    std::deque<PendingJob> jobs;
    bool closed = false;

    void
    push(PendingJob job)
    {
        {
            std::lock_guard<std::mutex> g(mu);
            jobs.push_back(std::move(job));
        }
        cv.notify_one();
    }

    void
    close()
    {
        {
            std::lock_guard<std::mutex> g(mu);
            closed = true;
        }
        cv.notify_all();
    }

    /** Pop the next job; false when closed and drained.  When closed
     * with jobs still queued, they are returned one by one so the
     * dispatcher can error them out. */
    bool
    pop(PendingJob *out)
    {
        std::unique_lock<std::mutex> g(mu);
        cv.wait(g, [&] { return closed || !jobs.empty(); });
        if (jobs.empty())
            return false;
        *out = std::move(jobs.front());
        jobs.pop_front();
        return true;
    }
};

void
sendError(int fd, const std::string &message)
{
    sendFrame(fd, MsgType::Error, errorPayload(message));
}

/** A live worker process and where its shard blob will appear. */
struct WorkerProc
{
    pid_t pid = -1;
    size_t shard = 0;
    std::string blob_path;
    bool done = false;
};

/** Fork/exec one --worker process; -1 on failure. */
pid_t
spawnWorker(const DaemonOptions &opts, const std::string &job_path,
            const std::string &cells_path,
            const std::string &blob_path)
{
    std::string threads = std::to_string(opts.worker_threads);
    std::vector<std::string> args = {
        opts.self_exe, "--worker",
        "--job",       job_path,
        "--cells",     cells_path,
        "--out",       blob_path,
        "--cache-dir", opts.cache_dir,
        "--threads",   threads,
    };
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        TD_WARN("cannot fork worker: %s", std::strerror(errno));
        return -1;
    }
    if (pid == 0) {
        ::execv(opts.self_exe.c_str(), argv.data());
        // Only reached when exec failed; _exit skips atexit state
        // inherited from the daemon.
        ::_exit(127);
    }
    return pid;
}

/**
 * Run one job end to end: plan, serve warm cells in-process,
 * dispatch cold shards to workers (or run them inline with
 * workers == 0), merge, stream progress and the final result.
 */
void
processJob(const DaemonOptions &opts, const PendingJob &job)
{
    const int fd = job.fd;
    std::string reason = job.spec.validate();
    if (!reason.empty()) {
        sendError(fd, "invalid job: " + reason);
        return;
    }

    SweepSpec spec = job.spec.toSweepSpec();
    RunConfig base = job.spec.baseConfig();
    base.threads = opts.threads;
    base.cache_dir = opts.cache_dir;
    ModelRunner runner(base);

    // Plan: enumerate the grid, probe the cache, pack cold cells into
    // estimator-sized shards.  In-process mode still plans two shards
    // so the merge path is exercised the same way a fleet would.
    const std::vector<GridCellInfo> plan = runner.planSweep(spec);
    const std::string cache_dir =
        ResultStore::resolveDir(opts.cache_dir);
    const size_t max_shards =
        opts.workers > 0 ? (size_t)opts.workers : 2;
    const ShardPlan shard_plan = planJob(plan, cache_dir, max_shards);

    TD_INFORM("[job] cells=%zu warm=%zu shards=%zu split_tasks=%zu",
              plan.size(), shard_plan.warm_cells.size(),
              shard_plan.shards.size(), shard_plan.split_tasks);

    // The client may vanish mid-job; keep simulating (results land in
    // the shared cache either way) but stop writing to the dead fd.
    bool client_alive = true;
    ProgressMsg progress;
    progress.total_cells = plan.size();
    progress.warm_cells = shard_plan.warm_cells.size();
    progress.shards_total = (uint32_t)shard_plan.shards.size();
    auto sendProgress = [&] {
        if (!client_alive)
            return;
        ByteWriter w;
        progress.serialize(w);
        client_alive = sendFrame(fd, MsgType::Progress, w.data());
    };
    sendProgress();

    // Warm pass: every cached cell is served in-process — a repeat
    // query completes right here without spawning a single worker.
    // The same call builds the fingerprinted shell the worker shards
    // merge into.
    RunHooks hooks;
    hooks.cancel = &g_stop;
    hooks.progress = [&](const SweepProgress &p) {
        progress.done_tasks = p.done_tasks;
        progress.total_tasks = p.total_tasks;
        progress.simulated = p.simulated;
        if (p.done_tasks % kProgressStride == 0 ||
            p.done_tasks == p.total_tasks)
            sendProgress();
    };
    SweepResult merged =
        runner.runSweepCells(spec, shard_plan.warm_cells, hooks);

    bool cancelled = g_stop.load(std::memory_order_relaxed);
    bool worker_failed = false;
    size_t shards_done = 0;

    if (!shard_plan.shards.empty() && !cancelled &&
        opts.workers == 0) {
        // In-process execution of the planned shards (tests, single
        // machine): same plan, same merge, no processes.
        for (const ShardAssignment &shard : shard_plan.shards) {
            if (g_stop.load(std::memory_order_relaxed))
                break;
            merged.merge(runner.runSweepCells(spec, shard.cells,
                                              hooks));
            progress.shards_done = (uint32_t)++shards_done;
            sendProgress();
        }
        cancelled = g_stop.load(std::memory_order_relaxed);
    } else if (!shard_plan.shards.empty() && !cancelled) {
        // Worker fleet: one process per shard, all concurrent (the
        // planner already capped the shard count at the fleet size).
        namespace fs = std::filesystem;
        static std::atomic<uint64_t> job_seq{0};
        fs::path scratch =
            fs::path(cache_dir) /
            (".sweepd-job-" + std::to_string((long)::getpid()) + "-" +
             std::to_string(job_seq.fetch_add(1)));
        std::error_code ec;
        fs::create_directories(scratch, ec);

        ByteWriter spec_bytes;
        job.spec.serialize(spec_bytes);
        const std::string job_path = (scratch / "job.bin").string();
        writeFileBytes(job_path, spec_bytes.data());

        std::vector<WorkerProc> workers;
        for (size_t s = 0; s < shard_plan.shards.size(); ++s) {
            const std::string cells_path =
                (scratch / ("cells-" + std::to_string(s) + ".bin"))
                    .string();
            const std::string blob_path =
                (scratch / ("shard-" + std::to_string(s) + ".tdsw"))
                    .string();
            writeFileBytes(cells_path,
                           serializeCells(shard_plan.shards[s].cells));
            WorkerProc w;
            w.shard = s;
            w.blob_path = blob_path;
            w.pid = spawnWorker(opts, job_path, cells_path, blob_path);
            if (w.pid < 0)
                worker_failed = true;
            else
                workers.push_back(w);
        }

        // Reap loop: merge each worker's blob as it lands.  A stop
        // signal forwards SIGTERM to the fleet once, then keeps
        // draining — cancelled workers still deliver their partial
        // blobs (exit code kWorkerExitCancelled).
        bool forwarded = false;
        size_t live = workers.size();
        while (live > 0) {
            if (g_stop.load(std::memory_order_relaxed) &&
                !forwarded) {
                forwarded = true;
                cancelled = true;
                for (const WorkerProc &w : workers)
                    if (!w.done)
                        ::kill(w.pid, SIGTERM);
            }
            int status = 0;
            pid_t pid = ::waitpid(-1, &status, 0);
            if (pid < 0) {
                if (errno == EINTR)
                    continue;
                break; // no children left (unexpected)
            }
            for (WorkerProc &w : workers) {
                if (w.pid != pid || w.done)
                    continue;
                w.done = true;
                --live;
                const int code = WIFEXITED(status)
                    ? WEXITSTATUS(status) : -1;
                if (code == kWorkerExitCancelled)
                    cancelled = true;
                else if (code != 0)
                    worker_failed = true;
                std::vector<uint8_t> bytes;
                SweepResult shard_sweep;
                if (readFileBytes(w.blob_path, &bytes) &&
                    SweepResult::deserialize(bytes, &shard_sweep) &&
                    shard_sweep.fingerprint == merged.fingerprint &&
                    shard_sweep.taskCount() == merged.taskCount()) {
                    merged.merge(shard_sweep);
                } else if (code == 0) {
                    TD_WARN("worker shard %zu produced no valid "
                            "blob ('%s')", w.shard,
                            w.blob_path.c_str());
                    worker_failed = true;
                }
                progress.shards_done = (uint32_t)++shards_done;
                progress.simulated = merged.simulated;
                sendProgress();
            }
        }
        fs::remove_all(scratch, ec);
    }

    if (merged.complete()) {
        if (client_alive)
            client_alive = sendFrame(fd, MsgType::JobResult,
                                     merged.serialize());
        return;
    }
    if (client_alive) {
        const char *why = cancelled
            ? "job interrupted by daemon shutdown (partial results "
              "were cached; resubmit to resume)"
            : worker_failed
                ? "a worker failed; the merged sweep is incomplete"
                : "incomplete sweep";
        sendError(fd, why);
    }
}

struct FdCloser
{
    int fd;
    ~FdCloser()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

} // namespace

SweepDaemon::SweepDaemon(const DaemonOptions &opts) : opts_(opts) {}

void
SweepDaemon::requestStop()
{
    onStopSignal(0);
}

int
SweepDaemon::serve()
{
    TD_ASSERT(!opts_.cache_dir.empty(),
              "the sweep daemon needs a cache directory: it is both "
              "the warm-serving path and the worker handoff");
    if (opts_.workers > 0)
        TD_ASSERT(!opts_.self_exe.empty(),
                  "worker mode needs the daemon binary's own path "
                  "(self_exe) to re-exec");
    std::error_code ec;
    std::filesystem::create_directories(opts_.cache_dir, ec);

    g_stop.store(false, std::memory_order_relaxed);
    if (g_stop_pipe[0] < 0) {
        if (::pipe(g_stop_pipe) != 0) {
            TD_WARN("cannot create stop pipe: %s",
                    std::strerror(errno));
            return 1;
        }
        // Non-blocking on both ends: the handler's write never stalls
        // on a full pipe, and the drain below never stalls on empty.
        ::fcntl(g_stop_pipe[0], F_SETFL, O_NONBLOCK);
        ::fcntl(g_stop_pipe[1], F_SETFL, O_NONBLOCK);
    }
    installStopHandlers();

    int listen_fd = listenUnix(opts_.socket_path);
    if (listen_fd < 0)
        return 1;
    TD_INFORM("[sweepd] listening on %s (workers=%d, cache=%s)",
              opts_.socket_path.c_str(), opts_.workers,
              opts_.cache_dir.c_str());

    JobQueue queue;
    std::thread dispatcher([&] {
        PendingJob job;
        while (queue.pop(&job)) {
            FdCloser closer{job.fd};
            if (g_stop.load(std::memory_order_relaxed)) {
                sendError(job.fd, "daemon shutting down");
                continue;
            }
            processJob(opts_, job);
        }
    });

    // Accept loop: poll the listening socket next to the stop pipe so
    // a signal wakes it immediately even with no client around.
    while (!g_stop.load(std::memory_order_relaxed)) {
        pollfd fds[2] = {{listen_fd, POLLIN, 0},
                         {g_stop_pipe[0], POLLIN, 0}};
        int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            TD_WARN("poll failed: %s", std::strerror(errno));
            break;
        }
        if (fds[1].revents & POLLIN)
            break; // stop byte
        if (!(fds[0].revents & POLLIN))
            continue;
        int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0)
            continue;
        // Bound how long a connected-but-silent client can hold the
        // accept loop hostage.
        timeval tv{kRequestTimeoutSec, 0};
        ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof(tv));
        Frame frame;
        if (!recvFrame(client, &frame) ||
            frame.type != MsgType::JobRequest) {
            sendError(client, "expected a JobRequest frame");
            ::close(client);
            continue;
        }
        PendingJob job;
        job.fd = client;
        ByteReader r(frame.payload);
        if (!job.spec.deserialize(r)) {
            sendError(client, "malformed JobSpec payload");
            ::close(client);
            continue;
        }
        queue.push(std::move(job));
    }

    // Drain: the dispatcher finishes (or cancels) the job in flight,
    // then errors out everything still queued.
    queue.close();
    dispatcher.join();
    ::close(listen_fd);
    ::unlink(opts_.socket_path.c_str());
    // Swallow the wakeup byte(s) so a future serve() starts clean.
    char buf[16];
    while (::read(g_stop_pipe[0], buf, sizeof(buf)) > 0) {
    }
    TD_INFORM("[sweepd] drained; exiting");
    return 0;
}

std::vector<uint8_t>
serializeCells(const std::vector<size_t> &cells)
{
    ByteWriter w;
    w.u64(cells.size());
    for (size_t c : cells)
        w.u64(c);
    return w.data();
}

bool
deserializeCells(const std::vector<uint8_t> &bytes,
                 std::vector<size_t> *out)
{
    ByteReader r(bytes);
    uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining() / 8 || n * 8 != r.remaining())
        return false;
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i)
        out->push_back((size_t)r.u64());
    return r.ok() && r.atEnd();
}

namespace {

std::atomic<bool> g_worker_cancel{false};

void
onWorkerSignal(int)
{
    g_worker_cancel.store(true, std::memory_order_relaxed);
}

} // namespace

int
runWorker(const WorkerOptions &opts)
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onWorkerSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::vector<uint8_t> job_bytes, cell_bytes;
    if (!readFileBytes(opts.job_path, &job_bytes) ||
        !readFileBytes(opts.cells_path, &cell_bytes)) {
        TD_WARN("worker cannot read job inputs ('%s', '%s')",
                opts.job_path.c_str(), opts.cells_path.c_str());
        return 1;
    }
    JobSpec spec;
    ByteReader r(job_bytes);
    std::vector<size_t> cells;
    if (!spec.deserialize(r) ||
        !deserializeCells(cell_bytes, &cells)) {
        TD_WARN("worker received a corrupt job or cell list");
        return 1;
    }
    std::string reason = spec.validate();
    if (!reason.empty()) {
        TD_WARN("worker received an invalid job: %s", reason.c_str());
        return 1;
    }

    RunConfig base = spec.baseConfig();
    base.threads = opts.threads;
    base.cache_dir = opts.cache_dir;
    ModelRunner runner(base);
    RunHooks hooks;
    hooks.cancel = &g_worker_cancel;
    SweepResult sweep =
        runner.runSweepCells(spec.toSweepSpec(), cells, hooks);

    // Atomic (temp + rename) blob write: the daemon either sees the
    // whole shard — partial-on-cancel included — or nothing, never a
    // torn file.  The sweep's cells went to the shared cache dir the
    // same way, as one pack flushed when its claim loop ended: a
    // SIGTERM-cancelled sweep still flushed every finished cell, and
    // a SIGKILLed worker loses its unflushed cells but never leaves a
    // torn pack.
    if (!writeFileBytes(opts.out_path, sweep.serialize())) {
        TD_WARN("worker cannot write shard blob '%s'",
                opts.out_path.c_str());
        return 1;
    }
    return g_worker_cancel.load(std::memory_order_relaxed)
        ? kWorkerExitCancelled : 0;
}

} // namespace service
} // namespace tensordash
