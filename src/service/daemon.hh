#ifndef TENSORDASH_SERVICE_DAEMON_HH_
#define TENSORDASH_SERVICE_DAEMON_HH_

/**
 * @file
 * The sweep daemon: accepts JobRequest frames on a Unix-domain
 * socket, plans each job's task grid into estimator-sized shards,
 * dispatches cold shards to worker processes, merges the shard blobs
 * and streams Progress + JobResult frames back to the client.
 *
 * Jobs run strictly FIFO through an explicit queue: the accept loop
 * keeps accepting and parsing requests while the dispatcher thread
 * works, so a queued client learns about a malformed job immediately
 * instead of after the jobs ahead of it.
 *
 * Workers are fork/exec'd copies of the daemon binary in --worker
 * mode.  Each worker reads the job spec and its cell list from files
 * under a per-job scratch directory, simulates exactly those cells
 * via ModelRunner::runSweepCells(), and writes a versioned shard blob
 * atomically (temp + rename).  The daemon merges blobs under the
 * sweep fingerprint, so a blob from the wrong job or a truncated
 * write is rejected, never mis-merged.
 *
 * Warm cells never reach a worker: the daemon probes the shared
 * result cache while planning and serves every warm cell in-process.
 * A fully warm job — the repeat-query case — spawns no workers at
 * all.
 *
 * Shutdown (SIGINT/SIGTERM or requestStop()) drains: live workers
 * get SIGTERM, finish their in-flight layer tasks, flush their cache
 * pack and partial blobs atomically and exit; the daemon merges what
 * arrived, reports the interruption to the current client, fails
 * queued jobs with an Error frame, unlinks the socket and exits 0.
 * Because every cache and blob write in the system is temp + rename,
 * a killed daemon or worker never leaves a torn file behind (a
 * SIGKILLed worker loses the cells it had not flushed yet).
 */

#include <cstdint>
#include <string>

#include "service/job_spec.hh"

namespace tensordash {
namespace service {

/** Worker exit code: cancelled mid-job, partial shard blob written. */
inline constexpr int kWorkerExitCancelled = 3;

struct DaemonOptions
{
    /** Unix-domain socket path to listen on. */
    std::string socket_path;

    /** Shared result-cache directory (required: it is both the warm
     * path and how worker results survive for repeat queries). */
    std::string cache_dir;

    /** Path of this binary, re-exec'd for --worker mode (pass
     * /proc/self/exe or argv[0]). */
    std::string self_exe;

    /** Worker fleet size; 0 runs every shard in-process (tests and
     * single-machine debugging). */
    int workers = 2;

    /** Threads per worker process (0 = TD_THREADS / hardware). */
    int worker_threads = 0;

    /** Threads for the daemon's own in-process passes. */
    int threads = 0;
};

class SweepDaemon
{
  public:
    explicit SweepDaemon(const DaemonOptions &opts);

    /**
     * Bind the socket and serve until a termination signal or
     * requestStop().  Returns the process exit code (0 on a clean
     * drain, 1 when the socket could not be bound).
     */
    int serve();

    /** Ask a serve() running on another thread to drain and return
     * (the test harness's SIGTERM stand-in; also what the signal
     * handlers call). */
    static void requestStop();

  private:
    DaemonOptions opts_;
};

struct WorkerOptions
{
    std::string job_path;   ///< serialized JobSpec file
    std::string cells_path; ///< owned-cell list file
    std::string out_path;   ///< shard blob to write
    std::string cache_dir;
    int threads = 0;
};

/**
 * --worker entry: simulate the owned cells and write the shard blob.
 * Installs SIGTERM/SIGINT handlers that cancel the sweep; a cancelled
 * worker still writes its partial blob atomically and returns
 * kWorkerExitCancelled.  Returns 0 on success, 1 on bad inputs.
 */
int runWorker(const WorkerOptions &opts);

/** Serialize a cell list for a worker's --cells file. */
std::vector<uint8_t> serializeCells(const std::vector<size_t> &cells);

/** Parse a --cells file; false on corruption. */
bool deserializeCells(const std::vector<uint8_t> &bytes,
                      std::vector<size_t> *out);

} // namespace service
} // namespace tensordash

#endif // TENSORDASH_SERVICE_DAEMON_HH_
