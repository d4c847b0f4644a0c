#ifndef TDBENCH_WORKLOAD_HH_
#define TDBENCH_WORKLOAD_HH_

/**
 * @file
 * The three workloads and what they share: run options, the hermetic
 * cache reset, the instrumented engine run, and the per-layer table of
 * a traced run.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "grids.hh"
#include "replay.hh"
#include "trace.hh"

namespace tdbench {

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 7;
    double seconds = 25.0;
    bool trace = false;
    std::string work_dir;   ///< run directory: caches, sockets
    std::string golden_dir; ///< committed figure goldens
    std::string sweepd;     ///< td-sweepd binary
    std::string trace_out;  ///< Chrome trace-event JSON (traced runs)
    int threads = 1;        ///< simulation threads (nproc)
    Clock::time_point t_main;
};

/** What a workload hands back to main: metrics plus the ledger. */
struct RunResult
{
    Report report;
    Outcome outcome;
};

void runFig13(const Options &o, RunResult &res);
void runGeometry(const Options &o, RunResult &res);
void runSweepd(const Options &o, RunResult &res);

/** One set-up sample of an in-process workload: seconds from main
 * entry until its first sweep is planned.  The untraced workloads take
 * their samples in fresh processes (`tdbench setup WORKLOAD --seed N`)
 * so that first-call costs count every time. */
double setupSeconds(const Options &o);

/** The re-read process of an in-process workload (`tdbench rereads
 * WORKLOAD --seed N --work DIR --golden-dir DIR`): disk-warm re-reads
 * and estimate-tier sweeps of the cold sweeps a repetition left in the
 * work dir, printed as "[samples]" and "[counters]" lines. */
void runRereads(const Options &o, RunResult &res);

/** Run the benchmark's own self-tests; returns the failure count and
 * prints one line per failure. */
int runSelfTests();

/** Drop the shared result memo and synthesis cache and zero their
 * counters (before every timed phase). */
void resetCaches();

/** One engine sweep at @p threads with a progress hook timing every
 * finished layer task. */
struct EngineRun
{
    SweepResult sweep;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double first_progress_s = 0.0;
    /** From the first thread running out of tasks to the end. */
    double claim_tail_s = 0.0;
};
EngineRun engineRun(const Grid &grid, const std::string &cache_dir,
                    int threads);

/** Numbers of a traced run that come from outside the replay. */
struct LayerExtras
{
    double claim_tail_s = 0.0;
    double engine_cpu_s = 0.0;  ///< summed over the nproc engine runs
    double engine_wall_s = 0.0;
    double pool_util = 0.0;
    double first_progress_ms = 0.0;
    double synth_keys = 0.0;
    double synth_reuses = 0.0;
    double synth_resident_mb = 0.0;
    tensordash::CacheCounters store;
    double disk_bytes = 0.0;
    double dup_simulations = 0.0;
    double plan_shards = 0.0;
    double plan_split_tasks = 0.0;
    double plan_warm_cells = 0.0;
    double result_bytes = 0.0;
    double workers_spawned = 0.0;
    double worker_failures = 0.0;
    std::vector<double> td_err;
    double paper_err_pct = 0.0; ///< simulated speedups vs the paper
    double replay_wall_s = 0.0; ///< wall of every traced replay phase
    double overhead_pct = 0.0;
};

/** Add every per-layer metric of a traced run to @p report. */
void reportLayers(Report &report, const Tracer &tracer,
                  const ReplayWork &work, const LayerExtras &x);

/** Fill the engine-side extras (pool, synthesis cache, claim tail)
 * from an instrumented nproc run. */
void noteEngineRun(LayerExtras &x, const EngineRun &run, int threads);

} // namespace tdbench

#endif // TDBENCH_WORKLOAD_HH_
