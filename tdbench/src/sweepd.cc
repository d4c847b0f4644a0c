/**
 * @file
 * The sweepd workload: the real td-sweepd daemon, started as
 *
 *   td-sweepd --workers 2 --worker-threads 2 --threads 2
 *
 * on a fresh cache dir, driven by one closed-loop client speaking TDSP
 * (one request in flight, the next sent when the reply is parsed).
 * Each daemon instance serves, in order:
 *
 *   one cold fig13 job            (no reuse; forks two workers)
 *   estimate-tier fig13 jobs      (each at a new training point, so
 *                                  each one is planned and forked cold)
 *   warm fig13 repeats            (full reuse; no worker)
 *   one fig23-shaped job          (paper cells warm, recommenders cold)
 *
 * and is then stopped with SIGTERM; instances repeat until --seconds
 * has passed (at least five, so the warm repeats reach p95 with 200+
 * samples).  Every reply is checked: fig13 against the golden at seed
 * 7 and every warm reply against the cold one byte for byte.
 */

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/planner.hh"
#include "service/protocol.hh"
#include "workload.hh"

namespace tdbench {

using namespace tensordash;
using namespace tensordash::service;

namespace {

/** Seconds a reply may take before the request counts as failed. */
constexpr int kReplyTimeoutSec = 60;

/** Warm repeats and estimate jobs per daemon instance. */
constexpr int kWarmPerInstance = 40;
constexpr int kEstimatePerInstance = 3;

/** Daemon instances per run at least (5 x 40 warm repeats reach p95
 * with ten samples beyond it), and extra spawn-and-stop cycles before
 * each, sampling set-up time alone across the whole run.  A spawn takes
 * about 2 ms and drifts with the host from one second to the next, so
 * the median rests on a few hundred of them. */
constexpr int kMinInstances = 5;
constexpr int kSetupProbesPerInstance = 40;

/**
 * One td-sweepd child process on its own socket and cache dir.  The
 * destructor always stops it (SIGTERM, then SIGKILL after a grace
 * period), reaps it, and removes its socket and directory.
 */
class Daemon
{
  public:
    Daemon(const Options &o, const std::string &dir)
        : sweepd_(o.sweepd), dir_(dir), socket_(dir + "/sweepd.sock"),
          cache_(dir + "/cache")
    {
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Spawn the daemon and connect to it.  @return the connected fd
     * (or -1) and, in @p setup_s, the time from spawn until the socket
     * accepted.
     */
    int
    start(double *setup_s)
    {
        freshDir(dir_);
        freshDir(cache_);
        // The daemon logs to a file: the benchmark's stdout carries the
        // verdict.
        const std::string log = dir_ + "/sweepd.log";
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const char *argv[] = {sweepd_.c_str(),  "--socket",
                              socket_.c_str(),  "--cache-dir",
                              cache_.c_str(),   "--workers",
                              "2",              "--worker-threads",
                              "2",              "--threads",
                              "2",              nullptr};
        const Clock::time_point t0 = Clock::now();
        const int rc = ::posix_spawn(&pid_, sweepd_.c_str(), &actions,
                                     nullptr, const_cast<char **>(argv),
                                     environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            return -1;
        }
        // Spin rather than sleep between attempts: the daemon listens
        // within a few milliseconds, and a sleeping poller would time
        // the host's timer wake-up granularity instead.
        while (secondsSince(t0) < 10.0) {
            int fd = connectUnix(socket_);
            if (fd >= 0) {
                *setup_s = secondsSince(t0);
                return fd;
            }
            if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
                pid_ = -1;
                return -1;
            }
            std::this_thread::yield();
        }
        return -1;
    }

    /** Stop, reap and clean up.  @return true on a clean exit 0. */
    bool
    stop()
    {
        bool clean = false;
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            const Clock::time_point t0 = Clock::now();
            pid_t r = 0;
            while ((r = ::waitpid(pid_, &status_, WNOHANG)) == 0 &&
                   secondsSince(t0) < 10.0)
                ::usleep(2000);
            if (r == 0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status_, 0);
            } else {
                clean = r == pid_ && WIFEXITED(status_) &&
                        WEXITSTATUS(status_) == 0;
            }
            pid_ = -1;
        }
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        return clean;
    }

    /** User + system CPU of the daemon and its reaped workers. */
    double
    cpuSeconds() const
    {
        std::string stat;
        if (pid_ <= 0 ||
            !readText("/proc/" + std::to_string(pid_) + "/stat", &stat))
            return 0.0;
        std::istringstream in(stat.substr(stat.rfind(')') + 2));
        std::vector<std::string> f;
        for (std::string tok; in >> tok;)
            f.push_back(tok);
        if (f.size() < 15)
            return 0.0;
        // Fields 14-17 of proc(5): utime stime cutime cstime.
        double ticks = std::stod(f[11]) + std::stod(f[12]) +
                       std::stod(f[13]) + std::stod(f[14]);
        return ticks / (double)::sysconf(_SC_CLK_TCK);
    }

    /** Peak resident set of the daemon (VmHWM), MiB. */
    double
    peakRssMb() const
    {
        std::string status;
        if (pid_ <= 0 ||
            !readText("/proc/" + std::to_string(pid_) + "/status",
                      &status))
            return 0.0;
        size_t at = status.find("VmHWM:");
        return at == std::string::npos
            ? 0.0
            : std::stod(status.substr(at + 6)) / 1024.0;
    }

    const std::string &socket() const { return socket_; }

  private:
    std::string sweepd_;
    std::string dir_;
    std::string socket_;
    std::string cache_;
    pid_t pid_ = -1;
    int status_ = 0;
};

/** One parsed reply of the daemon. */
struct Reply
{
    std::string error; ///< "" on a JobResult that parsed
    SweepResult sweep;
    size_t payload_bytes = 0;
    double first_progress_s = 0.0;
    double total_s = 0.0;
    uint32_t shards = 0;
};

/** Send @p job over @p fd (or a fresh connection when fd < 0) and
 * read until the JobResult or Error. */
Reply
request(const std::string &socket, int fd, const JobSpec &job)
{
    Reply reply;
    const Clock::time_point t0 = Clock::now();
    if (fd < 0)
        fd = connectUnix(socket);
    if (fd < 0) {
        reply.error = "cannot connect";
        return reply;
    }
    timeval tv{kReplyTimeoutSec, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ByteWriter w;
    job.serialize(w);
    reply.error = "no reply (timeout or closed connection)";
    if (!sendFrame(fd, MsgType::JobRequest, w.data())) {
        reply.error = "request write failed";
    } else {
        Frame frame;
        while (recvFrame(fd, &frame)) {
            if (frame.type == MsgType::Progress) {
                ProgressMsg p;
                ByteReader r(frame.payload);
                if (reply.first_progress_s == 0.0)
                    reply.first_progress_s = secondsSince(t0);
                if (p.deserialize(r))
                    reply.shards = p.shards_total;
                continue;
            }
            if (frame.type == MsgType::JobResult) {
                reply.payload_bytes = frame.payload.size();
                reply.error = SweepResult::deserialize(frame.payload,
                                                       &reply.sweep)
                    ? (reply.sweep.complete() ? "" : "incomplete result")
                    : "corrupt JobResult";
            } else if (frame.type == MsgType::Error) {
                reply.error = "Error frame: " +
                              parseErrorPayload(frame.payload);
            } else {
                reply.error = "unexpected frame";
            }
            break;
        }
    }
    ::close(fd);
    reply.total_s = secondsSince(t0);
    return reply;
}

/** Checks of one daemon instance's replies. */
struct Checker
{
    const Options &o;
    Outcome &out;
    std::vector<uint8_t> cold_bytes; ///< cold fig13 result, counters 0
    SweepResult cold;

    void
    coldJob(const Reply &r)
    {
        std::string why = r.error;
        if (why.empty()) {
            if (r.sweep.simulated != r.sweep.cellCount())
                why = "cold job did not simulate every cell";
            if (o.seed == 7)
                why += checkGolden(o.golden_dir + "/fig13.csv",
                                   renderFig13Csv(r.sweep));
            cold = r.sweep;
            cold_bytes = resultBytes(r.sweep);
        }
        out.record(why.empty(), "cold fig13 job: " + why);
    }

    void
    warmJob(const Reply &r)
    {
        std::string why = r.error;
        if (why.empty()) {
            std::string diff;
            if (!sameBytes(cold_bytes, resultBytes(r.sweep), &diff))
                why = "differs from the cold reply: " + diff;
            if (r.sweep.simulated != 0 || r.shards != 0)
                why += " warm repeat simulated or forked workers";
        }
        out.record(why.empty(), "warm fig13 job: " + why);
    }

    void
    estimateJob(const Reply &r)
    {
        std::string why = r.error;
        if (why.empty() && r.sweep.estimated != r.sweep.cellCount())
            why = "estimate job served exact cells";
        out.record(why.empty(), "estimate fig13 job: " + why);
    }

    void
    mixedJob(const Reply &r)
    {
        std::string why = r.error;
        if (why.empty()) {
            const SweepResult &m = r.sweep;
            const size_t paper = cold.modelCount();
            if (cold_bytes.empty() ||
                modelBytes(m, 0, paper) != modelBytes(cold, 0, paper))
                why = "paper training cells differ from the fig13 job";
            if (m.cache_hits + m.simulated != m.cellCount())
                why += " hits + simulated != cells";
        }
        out.record(why.empty(), "fig23-shaped job: " + why);
    }
};

/** The in-process job flow with engine calls, as td-sweepd runs it:
 * toSweepSpec -> planSweep -> planJob -> runSweepCells -> serialize. */
std::vector<uint8_t>
engineFlow(const JobSpec &job, const std::string &dir)
{
    SweepSpec spec = job.toSweepSpec();
    RunConfig base = job.baseConfig();
    base.threads = 1;
    base.cache_dir = dir;
    ModelRunner runner(base);
    const ShardPlan sp = planJob(runner.planSweep(spec), dir, 2);
    SweepResult merged = runner.runSweepCells(spec, sp.warm_cells);
    for (const ShardAssignment &shard : sp.shards)
        merged.merge(runner.runSweepCells(spec, shard.cells));
    return merged.serialize();
}

void
untraced(const Options &o, RunResult &res)
{
    Outcome &out = res.outcome;
    Counters counters;
    std::vector<double> setup, cold, cpu, warm, estimate, mixed;
    double peak_rss = 0.0;

    const Clock::time_point start = Clock::now();
    for (int inst = 0;
         inst < kMinInstances || secondsSince(start) < o.seconds;
         ++inst) {
        // Spawn-and-stop cycles: set-up time on its own.
        for (int i = 0; i < kSetupProbesPerInstance; ++i) {
            Daemon probe(o, o.work_dir + "/probe");
            double s = 0.0;
            int fd = probe.start(&s);
            if (fd >= 0) {
                ::close(fd);
                setup.push_back(s);
            }
            out.record(fd >= 0 && probe.stop(), "daemon probe start/stop");
        }

        Daemon d(o, o.work_dir + "/d" + std::to_string(inst));
        double s = 0.0;
        const int fd = d.start(&s);
        if (!out.record(fd >= 0, "daemon did not accept"))
            break;
        setup.push_back(s);
        Checker check{o, out, {}, {}};

        const double cpu0 = d.cpuSeconds();
        Reply r = request(d.socket(), fd, fig13Job(o.seed));
        cold.push_back(r.total_s);
        cpu.push_back(d.cpuSeconds() - cpu0);
        check.coldJob(r);
        if (r.error.empty()) {
            counters.set("paper_err_pct", fig13PaperErrPct(r.sweep), out);
            counters.set("cold.cells", (double)r.sweep.cellCount(), out);
            counters.set("cold.simulated", (double)r.sweep.simulated, out);
            counters.set("cold.shards", (double)r.shards, out);
            counters.set("cold.result_bytes", (double)r.payload_bytes,
                         out);
        }

        for (int k = 0; k < kEstimatePerInstance; ++k) {
            r = request(d.socket(), -1,
                        fig13EstimateJob(o.seed, 0.30 + 0.02 * k));
            estimate.push_back(r.total_s);
            check.estimateJob(r);
            counters.set("estimate.shards", (double)r.shards, out);
            counters.set("estimate.estimated", (double)r.sweep.estimated,
                         out);
        }

        for (int k = 0; k < kWarmPerInstance; ++k) {
            r = request(d.socket(), -1, fig13Job(o.seed));
            warm.push_back(r.total_s);
            check.warmJob(r);
            counters.set("warm.hits", (double)r.sweep.cache_hits, out);
        }

        r = request(d.socket(), -1, fig23Job(o.seed));
        mixed.push_back(r.total_s);
        check.mixedJob(r);
        if (r.error.empty()) {
            counters.set("mixed.cells", (double)r.sweep.cellCount(), out);
            counters.note("mixed.simulated", (double)r.sweep.simulated);
            counters.note("mixed.hits", (double)r.sweep.cache_hits);
            counters.set("mixed.shards", (double)r.shards, out);
        }
        peak_rss = std::max(peak_rss, d.peakRssMb());
        out.record(d.stop(), "daemon did not drain and exit 0");
    }
    counters.note("warm.samples", (double)warm.size());
    std::printf("%s\n", counters.line().c_str());

    Report &rep = res.report;
    rep.addSamples("setup_s", "s", setup);
    rep.addSamples("cold_s", "s", cold);
    rep.addSamples("cpu_s", "s", cpu);
    rep.addSamples("warm_s", "s", warm);
    rep.addSamples("estimate_s", "s", estimate);
    rep.addSamples("mixed_s", "s", mixed);
    rep.add("peak_rss_mb", "MiB", peak_rss);
}

void
traced(const Options &o, RunResult &res)
{
    Outcome &out = res.outcome;
    LayerExtras x;
    constexpr int kWarm = 20;

    // The real daemon: first progress, result bytes, workers.
    SweepResult daemon_cold, daemon_mixed;
    {
        Daemon d(o, o.work_dir + "/d0");
        double s = 0.0;
        const int fd = d.start(&s);
        if (out.record(fd >= 0, "daemon did not accept")) {
            Checker check{o, out, {}, {}};
            Reply r = request(d.socket(), fd, fig13Job(o.seed));
            check.coldJob(r);
            daemon_cold = r.sweep;
            if (r.error.empty())
                x.paper_err_pct = fig13PaperErrPct(r.sweep);
            x.first_progress_ms = r.first_progress_s * 1e3;
            x.result_bytes = (double)r.payload_bytes;
            x.workers_spawned += r.shards;
            x.worker_failures += !r.error.empty();
            for (int k = 0; k < kWarm; ++k) {
                r = request(d.socket(), -1, fig13Job(o.seed));
                check.warmJob(r);
                x.worker_failures += !r.error.empty();
            }
            r = request(d.socket(), -1, fig23Job(o.seed));
            check.mixedJob(r);
            daemon_mixed = r.sweep;
            x.workers_spawned += r.shards;
            x.worker_failures += !r.error.empty();
        }
        out.record(d.stop(), "daemon did not drain and exit 0");
    }

    // The same requests in-process: engine at nproc (claim tail), the
    // engine flow at 1 thread (overhead baseline), the traced replay.
    const std::string dir = o.work_dir + "/cache";
    const Grid g13 = fig13Grid(o.seed);
    freshDir(dir);
    resetCaches();
    noteEngineRun(x, engineRun(g13, dir, o.threads), o.threads);

    std::vector<JobSpec> jobs{fig13Job(o.seed)};
    for (int k = 0; k < kWarm; ++k)
        jobs.push_back(fig13Job(o.seed));
    jobs.push_back(fig23Job(o.seed));

    freshDir(dir);
    resetCaches();
    Clock::time_point t = Clock::now();
    for (const JobSpec &job : jobs)
        engineFlow(job, dir);
    const double engine_1t = secondsSince(t);

    freshDir(dir);
    resetCaches();
    Tracer tracer;
    ReplayWork work;
    Replayer replayer(tracer, work);
    std::vector<SweepResult> replies;
    t = Clock::now();
    for (size_t i = 0; i < jobs.size(); ++i) {
        tracer.setRequest(i + 1);
        Tracer::Span req(tracer, "service.request", i + 1);
        Grid g;
        {
            TDB_SPAN(tracer, "service.job_spec");
            g = Grid{"job", jobs[i].baseConfig(), jobs[i].toSweepSpec()};
        }
        ShardPlan sp;
        replies.push_back(replayer.replay(g, dir, &sp));
        x.plan_shards += (double)sp.shards.size();
        x.plan_split_tasks += (double)sp.split_tasks;
        x.plan_warm_cells += (double)sp.warm_cells.size();
    }
    const double flow_s = secondsSince(t);
    x.replay_wall_s = flow_s;
    x.overhead_pct = (flow_s - engine_1t) / engine_1t * 100.0;
    x.store = ResultStore::shared().counters();
    x.disk_bytes = (double)dirBytes(dir);
    tracer.setRequest(0);
    std::string diff;
    out.record(!daemon_cold.models.empty() &&
                   sameBytes(resultBytes(daemon_cold),
                             resultBytes(replies.front()), &diff),
               "replayed fig13 job differs from the daemon's: " + diff);
    out.record(!daemon_mixed.models.empty() &&
                   sameBytes(resultBytes(daemon_mixed),
                             resultBytes(replies.back()), &diff),
               "replayed fig23-shaped job differs from the daemon's: " +
                   diff);

    // The estimator against the exact cells of the fig13 job.
    resetCaches();
    t = Clock::now();
    Grid eg = fig13Grid(o.seed);
    eg.config.fidelity = Fidelity::Estimate;
    SweepResult est = replayer.replay(eg, "");
    x.replay_wall_s += secondsSince(t);
    x.td_err = estimatorErrors(replies.front(), est);
    t = Clock::now();
    for (const JobSpec &job : {jobs.front(), jobs.back()})
        replayer.costPass(
            Grid{"job", job.baseConfig(), job.toSweepSpec()});
    x.replay_wall_s += secondsSince(t);
    out.record(work.sim_cost_mismatches == 0,
               "estimateSimCost disagrees with the plan");

    // Racy duplicate simulations of the daemon's fig23-shaped job: its
    // training and inference variants share Forward cells.
    std::unordered_set<uint64_t> fig13_keys, cold_keys;
    for (const GridCellInfo &c : ModelRunner(g13.config).planSweep(g13.spec))
        fig13_keys.insert(c.key.value);
    const JobSpec j23 = fig23Job(o.seed);
    for (const GridCellInfo &c :
         ModelRunner(j23.baseConfig()).planSweep(j23.toSweepSpec()))
        if (!fig13_keys.count(c.key.value))
            cold_keys.insert(c.key.value);
    x.dup_simulations =
        (double)daemon_mixed.simulated - (double)cold_keys.size();

    // Where a warm request's time goes.
    double req_s = 0.0, plan_s = 0.0, pass_s = 0.0;
    const std::vector<SpanRecord> &spans = tracer.spans();
    for (const SpanRecord &sr : spans) {
        if (sr.request < 2 || sr.request > (uint64_t)kWarm + 1)
            continue;
        const double d = (double)(sr.end_ns - sr.start_ns) * 1e-9;
        const std::string name = sr.name;
        if (name == "service.request")
            req_s += d;
        else if (name == "core.runner.plan")
            plan_s += d;
        else if (name == "core.runner.run_cells")
            pass_s += d;
    }
    std::printf("[trace] warm requests: %d, %.2f ms each; plan %.1f%%, "
                "warm pass %.1f%%\n",
                kWarm, req_s / kWarm * 1e3, 100.0 * plan_s / req_s,
                100.0 * pass_s / req_s);
    std::printf("[trace] replay_flow=%.3fs engine_flow_1thread=%.3fs "
                "replay_all=%.3fs spans=%zu\n",
                flow_s, engine_1t, x.replay_wall_s, spans.size());
    reportLayers(res.report, tracer, work, x);
    if (!o.trace_out.empty() && !tracer.writeChrome(o.trace_out))
        std::printf("[trace] cannot write %s\n", o.trace_out.c_str());
}

} // namespace

void
runSweepd(const Options &o, RunResult &res)
{
    if (o.trace)
        traced(o, res);
    else
        untraced(o, res);
}

} // namespace tdbench
