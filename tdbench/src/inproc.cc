/**
 * @file
 * The in-process workloads, fig13 and geometry, plus what every
 * workload shares (hermetic resets, the instrumented engine run, the
 * per-layer table).
 *
 * One repetition of an in-process workload, each phase starting from
 * a cleared result memo and synthesis cache:
 *
 *   cold      every grid swept exactly on nproc threads into a fresh
 *             cache dir (one sample: the grids' summed wall time)
 *   warm      the same grids re-read from that dir, memo cleared
 *   estimate  the same grids at Fidelity::Estimate, memory only
 *             (ten warm and ten estimate samples, alternating)
 *   mixed     one partially warm sweep against that dir
 *
 * Repetitions continue until --seconds has passed.  Before them, the
 * run takes its set-up samples: its own time from main entry until the
 * first sweep was planned, and the same time in fresh processes.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include <unistd.h>

#include "workload.hh"

namespace tdbench {

using namespace tensordash;

void
resetCaches()
{
    ResultStore::shared().clearMemo();
    ResultStore::shared().resetCounters();
    SynthCache::shared().clear();
    SynthCache::shared().resetCounters();
}

EngineRun
engineRun(const Grid &grid, const std::string &cache_dir, int threads)
{
    RunConfig cfg = grid.config;
    cfg.threads = threads;
    cfg.cache_dir = cache_dir;
    EngineRun run;
    std::vector<double> done_at;
    Clock::time_point t0 = Clock::now();
    RunHooks hooks;
    hooks.progress = [&](const SweepProgress &) {
        done_at.push_back(secondsSince(t0));
    };
    const double cpu0 = processCpuSeconds();
    t0 = Clock::now();
    run.sweep = ModelRunner(cfg).runSweep(grid.spec, {}, hooks);
    run.wall_s = secondsSince(t0);
    run.cpu_s = processCpuSeconds() - cpu0;
    run.first_progress_s = done_at.empty() ? run.wall_s : done_at[0];
    // T threads claim T tasks up front and one more per completion, so
    // completion N - T + 1 is the first that finds the queue empty.
    const size_t n = done_at.size(), t = (size_t)std::max(threads, 1);
    run.claim_tail_s = n > t ? run.wall_s - done_at[n - t] : run.wall_s;
    return run;
}

void
noteEngineRun(LayerExtras &x, const EngineRun &run, int threads)
{
    x.claim_tail_s += run.claim_tail_s;
    x.engine_cpu_s += run.cpu_s;
    x.engine_wall_s += run.wall_s;
    x.pool_util = x.engine_cpu_s / (x.engine_wall_s * threads);
    if (x.first_progress_ms == 0.0)
        x.first_progress_ms = run.first_progress_s * 1e3;
    const SynthCounters sc = SynthCache::shared().counters();
    x.synth_keys += (double)sc.keys;
    x.synth_reuses += (double)sc.reuses;
    x.synth_resident_mb = std::max(
        x.synth_resident_mb,
        (double)SynthCache::shared().residentBytes() / (1024.0 * 1024.0));
}

void
reportLayers(Report &r, const Tracer &tracer, const ReplayWork &w,
             const LayerExtras &x)
{
    const std::map<std::string, SpanStat> st =
        aggregateSpans(tracer.spans());
    auto self = [&](const char *name) {
        auto it = st.find(name);
        return it == st.end() ? 0.0 : it->second.self_s;
    };
    auto calls = [&](const char *name) {
        auto it = st.find(name);
        return it == st.end() ? 0.0 : (double)it->second.calls;
    };
    auto per = [](double seconds, double count) {
        return count > 0.0 ? seconds * 1e9 / count : 0.0;
    };
    const double elements = (double)w.synth_elements;
    r.add("models.synthesize.self_s", "s", self("models.synthesize"));
    r.add("models.synthesize.calls", "count", calls("models.synthesize"));
    r.add("models.synthesize.elements", "count", elements);
    r.add("models.synthesize.ns_per_element", "ns",
          per(self("models.synthesize"), elements));
    r.add("tensor.sparsity.self_s", "s", self("tensor.sparsity"));
    r.add("sim.dataflow.lower.self_s", "s", self("sim.dataflow.lower"));
    r.add("sim.dataflow.lower.jobs", "count", (double)w.lowered_jobs);
    r.add("sim.dataflow.lower.ns_per_job", "ns",
          per(self("sim.dataflow.lower"), (double)w.lowered_jobs));
    r.add("sim.tile.run.self_s", "s", self("sim.tile.run"));
    r.add("sim.tile.run.sampled_macs", "count", (double)w.sampled_macs);
    r.add("sim.tile.run.ns_per_mac", "ns",
          per(self("sim.tile.run"), (double)w.sampled_macs));
    r.add("sim.memory.resolve.calls", "count", (double)w.resolve_calls);
    r.add("sim.memory.stall_frac", "share",
          w.td_cycles > 0.0 ? w.td_stall_cycles / w.td_cycles : 0.0);
    r.add("sim.energy.self_s", "s", self("sim.energy"));
    r.add("sim.paper_err_pct", "%", x.paper_err_pct);
    r.add("sim.estimator.sim_cost.self_s", "s",
          self("sim.estimator.sim_cost"));
    r.add("sim.estimator.sim_cost.calls", "count",
          (double)w.sim_cost_calls);
    r.add("sim.estimator.estimate_op.self_s", "s",
          self("sim.estimator.estimate_op"));
    r.add("sim.estimator.td_err_p50", "share", percentile(x.td_err, 50));
    r.add("sim.estimator.td_err_p95", "share", percentile(x.td_err, 95));
    r.add("sim.estimator.cost_rank_corr", "rho",
          spearman(w.est_cost, w.measured_ns));
    const double lookups = x.synth_keys + x.synth_reuses;
    r.add("core.synth_cache.keys", "count", x.synth_keys);
    r.add("core.synth_cache.reuses", "count", x.synth_reuses);
    r.add("core.synth_cache.reuse_ratio", "share",
          lookups > 0.0 ? x.synth_reuses / lookups : 0.0);
    r.add("core.synth_cache.resident_mb", "MiB", x.synth_resident_mb);
    r.add("core.result_store.lookup.self_s", "s",
          self("core.result_store.lookup"));
    r.add("core.result_store.insert.self_s", "s",
          self("core.result_store.insert"));
    r.add("core.result_store.memo_hits", "count",
          (double)x.store.memo_hits);
    r.add("core.result_store.disk_hits", "count",
          (double)x.store.disk_hits);
    r.add("core.result_store.misses", "count", (double)x.store.misses);
    r.add("core.result_store.inserts", "count", (double)x.store.inserts);
    r.add("core.result_store.disk_bytes", "B", x.disk_bytes);
    r.add("core.result_store.dup_simulations", "count",
          x.dup_simulations);
    r.add("core.runner.plan.self_s", "s", self("core.runner.plan"));
    r.add("core.runner.plan.cells", "count", (double)w.plan_cells);
    r.add("core.runner.shell.self_s", "s", self("core.runner.shell"));
    r.add("core.runner.reduce.self_s", "s", self("core.runner.reduce"));
    r.add("core.runner.serialize.self_s", "s",
          self("core.runner.serialize"));
    r.add("core.runner.serialize.bytes", "B", (double)w.serialize_bytes);
    r.add("core.runner.claim.tail_s", "s", x.claim_tail_s);
    r.add("common.thread_pool.util", "share", x.pool_util);
    r.add("service.planner.plan_job.self_s", "s",
          self("service.planner.plan_job"));
    r.add("service.planner.shards", "count", x.plan_shards);
    r.add("service.planner.split_tasks", "count", x.plan_split_tasks);
    r.add("service.planner.warm_cells", "count", x.plan_warm_cells);
    r.add("service.protocol.result_bytes", "B", x.result_bytes);
    r.add("service.daemon.first_progress_ms", "ms", x.first_progress_ms);
    r.add("service.daemon.workers_spawned", "count", x.workers_spawned);
    r.add("service.daemon.worker_failures", "count", x.worker_failures);
    r.add("trace.coverage", "share",
          x.replay_wall_s > 0.0
              ? coveredSeconds(tracer.spans()) / x.replay_wall_s
              : 0.0);
    r.add("trace.overhead_pct", "%", x.overhead_pct);

    // The layer table, largest self time first, for the log.
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &kv : st)
        rows.push_back({kv.second.self_s, kv.first});
    std::sort(rows.rbegin(), rows.rend());
    for (const auto &row : rows)
        std::printf("[layer] %-32s self=%.4fs (%.1f%% of replay) "
                    "calls=%llu\n",
                    row.second.c_str(), row.first,
                    x.replay_wall_s > 0 ? 100.0 * row.first /
                                              x.replay_wall_s
                                        : 0.0,
                    (unsigned long long)st.at(row.second).calls);
}

namespace {

/** Set-up samples per run besides the run's own: fresh tdbench
 * processes, each timed from main entry until its first sweep is
 * planned. */
constexpr int kSetupProbes = 11;

/**
 * Re-read processes per repetition, and the timed pairs of one warm
 * re-read and one estimate-tier sweep each takes after an untimed pair.
 * Fresh processes, because the speed of these short sweeps is set for a
 * whole process: one process runs them at a steady pace that another,
 * started a second later, misses by 10-25%.  Samples from many
 * processes average that out.
 */
constexpr int kRereadProcsPerRep = 8;
constexpr int kPairsPerProc = 1;

/** What differs between the two in-process workloads. */
struct InprocWorkload
{
    std::vector<Grid> grids; ///< the cold grids, swept in order
    Grid mixed;              ///< the partially warm sweep
    /** Check the mixed sweep against the cold ones ("" = correct). */
    std::function<std::string(const SweepResult &,
                              const std::vector<SweepResult> &)>
        check_mixed;
    /** Simulated deviation from the paper's stated values. */
    std::function<double(const std::vector<SweepResult> &)> paper_err;
};

/** Golden check of a grid's rendering at the goldens' seed ("" when
 * correct or when the grid has no golden). */
std::string
goldenCheck(const Options &o, const Grid &g, const SweepResult &sweep)
{
    if (o.seed != 7)
        return "";
    if (g.name == "fig13")
        return checkGolden(o.golden_dir + "/fig13.csv",
                           renderFig13Csv(sweep));
    if (g.name == "fig22")
        return checkGolden(o.golden_dir + "/fig22.csv",
                           renderFig22Csv(sweep, g.config));
    return "";
}

Grid
estimateGrid(const Grid &g)
{
    Grid e = g;
    e.config.fidelity = Fidelity::Estimate;
    return e;
}

/** Run this binary with @p args (each already quoted) and collect its
 * stdout; false when it cannot start or exits non-zero. */
bool
runSelf(const std::string &args, std::string *output)
{
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0)
        return false;
    exe[n] = '\0';
    FILE *p = ::popen(("'" + std::string(exe) + "' " + args).c_str(), "r");
    if (!p)
        return false;
    char buf[4096];
    for (size_t got; (got = std::fread(buf, 1, sizeof(buf), p)) > 0;)
        output->append(buf, got);
    return ::pclose(p) == 0;
}

/** Run `tdbench setup WORKLOAD --seed N` and read the set-up seconds
 * it prints; false when the probe fails. */
bool
setupProbe(const Options &o, double *seconds)
{
    std::string text;
    return runSelf("setup " + o.workload + " --seed " +
                       std::to_string(o.seed),
                   &text) &&
           std::sscanf(text.c_str(), "%lf", seconds) == 1;
}

/** Where a repetition leaves cold sweep @p i for its re-read
 * processes. */
std::string
coldPath(const Options &o, size_t i)
{
    return o.work_dir + "/cold-" + std::to_string(i) + ".bin";
}

/** 32-bit FNV-1a: a fingerprint that a counter can carry exactly. */
double
fingerprint(const std::vector<uint8_t> &bytes)
{
    uint32_t h = 2166136261u;
    for (uint8_t b : bytes)
        h = (h ^ b) * 16777619u;
    return (double)h;
}

/** One disk-warm re-read of every grid, checked against the cold
 * sweeps; @return its wall seconds. */
double
warmReread(const Options &o, const InprocWorkload &wl,
           const std::string &dir, const std::vector<SweepResult> &cold,
           Counters &counters, Outcome &out)
{
    resetCaches();
    std::string why;
    const Clock::time_point t = Clock::now();
    std::vector<SweepResult> sweeps;
    for (const Grid &g : wl.grids) {
        RunConfig cfg = g.config;
        cfg.threads = o.threads;
        cfg.cache_dir = dir;
        sweeps.push_back(ModelRunner(cfg).runSweep(g.spec));
    }
    const double seconds = secondsSince(t);
    for (size_t i = 0; i < sweeps.size(); ++i) {
        std::string diff;
        if (!sameBytes(resultBytes(cold[i]), resultBytes(sweeps[i]), &diff))
            why += " " + wl.grids[i].name + " re-read " + diff;
        if (sweeps[i].simulated != 0)
            why += " " + wl.grids[i].name + " re-simulated";
        why += goldenCheck(o, wl.grids[i], sweeps[i]);
    }
    const CacheCounters cc = ResultStore::shared().counters();
    counters.set("warm.disk_hits", (double)cc.disk_hits, out);
    out.record(why.empty(), "disk-warm re-read:" + why);
    return seconds;
}

/** One estimate-tier sweep of every grid (closed form, memory only),
 * checked against the run's first; @return its wall seconds. */
double
estimateSweep(const Options &o, const InprocWorkload &wl,
              std::vector<std::vector<uint8_t>> &first, Counters &counters,
              Outcome &out)
{
    resetCaches();
    std::string why;
    const Clock::time_point t = Clock::now();
    std::vector<SweepResult> sweeps;
    for (const Grid &g : wl.grids) {
        RunConfig cfg = estimateGrid(g).config;
        cfg.threads = o.threads;
        sweeps.push_back(ModelRunner(cfg).runSweep(g.spec));
    }
    const double seconds = secondsSince(t);
    for (size_t i = 0; i < sweeps.size(); ++i) {
        std::vector<uint8_t> bytes = resultBytes(sweeps[i]);
        if (first[i].empty())
            first[i] = bytes;
        std::string diff;
        if (!sameBytes(first[i], bytes, &diff))
            why += " " + wl.grids[i].name + " estimate " + diff;
        if (sweeps[i].estimated != sweeps[i].cellCount())
            why += " " + wl.grids[i].name + " not all estimated";
        counters.set(wl.grids[i].name + ".estimated",
                     (double)sweeps[i].estimated, out);
    }
    out.record(why.empty(), "estimate sweep:" + why);
    return seconds;
}

/**
 * Run `tdbench rereads WORKLOAD ...` on the cold sweeps this repetition
 * left in the work dir, and take its samples, work counters (checked to
 * repeat) and operations as this run's.
 */
void
rereadProcess(const Options &o, std::vector<double> &warm,
              std::vector<double> &estimate, Counters &counters,
              Outcome &out)
{
    std::string text;
    const bool ran = runSelf("rereads " + o.workload + " --seed " +
                                 std::to_string(o.seed) + " --work '" +
                                 o.work_dir + "' --golden-dir '" +
                                 o.golden_dir + "'",
                             &text);
    std::istringstream lines(text);
    std::vector<std::string> reasons;
    bool verdict = false;
    for (std::string line; std::getline(lines, line);) {
        std::istringstream in(line);
        std::string tag, name;
        in >> tag;
        if (tag == "[samples]") {
            in >> name;
            std::vector<double> *to = name == "warm_s"       ? &warm
                                      : name == "estimate_s" ? &estimate
                                                             : nullptr;
            for (double v; to && in >> v;)
                to->push_back(v);
        } else if (tag == "[counters]") {
            for (std::string kv; in >> kv;) {
                const size_t eq = kv.find('=');
                counters.set(kv.substr(0, eq), std::stod(kv.substr(eq + 1)),
                             out);
            }
        } else if (tag == "[fail]") {
            reasons.push_back("re-read process:" + line.substr(6));
        } else {
            unsigned long long attempted = 0, failed = 0;
            if (std::sscanf(line.c_str(),
                            "{\"correct\": %*[a-z], \"attempted\": %llu, "
                            "\"failed\": %llu",
                            &attempted, &failed) == 2) {
                out.absorb(attempted, failed, reasons);
                verdict = true;
            }
        }
    }
    out.record(ran && verdict, "re-read process failed or gave no verdict");
}

void
untraced(const Options &o, const InprocWorkload &wl,
         std::vector<double> setup, RunResult &res)
{
    Outcome &out = res.outcome;
    Counters counters;
    const std::string dir = o.work_dir + "/cache";
    std::vector<double> cold, cpu, warm, estimate, mixed;

    for (int k = 0; k < kSetupProbes; ++k) {
        double s = 0.0;
        if (out.record(setupProbe(o, &s), "set-up probe process failed"))
            setup.push_back(s);
    }

    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < 2 || secondsSince(start) < o.seconds; ++rep) {
        freshDir(dir);

        // Cold: every grid from nothing.
        std::vector<SweepResult> cold_sweeps;
        double wall = 0.0, cpu_s = 0.0;
        for (const Grid &g : wl.grids) {
            resetCaches();
            RunConfig cfg = g.config;
            cfg.threads = o.threads;
            cfg.cache_dir = dir;
            const double cpu0 = processCpuSeconds();
            const Clock::time_point t = Clock::now();
            SweepResult s = ModelRunner(cfg).runSweep(g.spec);
            wall += secondsSince(t);
            cpu_s += processCpuSeconds() - cpu0;
            std::string why = goldenCheck(o, g, s);
            if (s.simulated != s.cellCount())
                why += " simulated " + std::to_string(s.simulated) +
                       " of " + std::to_string(s.cellCount()) + " cells";
            out.record(why.empty(), g.name + " cold sweep: " + why);
            const SynthCounters sc = SynthCache::shared().counters();
            counters.set(g.name + ".cells", (double)s.cellCount(), out);
            counters.set(g.name + ".simulated", (double)s.simulated, out);
            counters.set(g.name + ".synth_keys", (double)sc.keys, out);
            counters.set(g.name + ".synth_reuses", (double)sc.reuses, out);
            counters.set(g.name + ".serialized_bytes",
                         (double)s.serialize().size(), out);
            cold_sweeps.push_back(std::move(s));
        }
        cold.push_back(wall);
        cpu.push_back(cpu_s);
        counters.set("paper_err_pct", wl.paper_err(cold_sweeps), out);

        // Warm re-reads and estimate-tier sweeps, in fresh processes.
        for (size_t i = 0; i < cold_sweeps.size(); ++i) {
            const std::vector<uint8_t> bytes = cold_sweeps[i].serialize();
            std::ofstream(coldPath(o, i), std::ios::binary)
                .write((const char *)bytes.data(), (long)bytes.size());
        }
        for (int k = 0; k < kRereadProcsPerRep; ++k)
            rereadProcess(o, warm, estimate, counters, out);

        // Mixed: a sweep only partly served by the disk cache.
        resetCaches();
        RunConfig cfg = wl.mixed.config;
        cfg.threads = o.threads;
        cfg.cache_dir = dir;
        const Clock::time_point t = Clock::now();
        SweepResult m = ModelRunner(cfg).runSweep(wl.mixed.spec);
        mixed.push_back(secondsSince(t));
        std::string why = wl.check_mixed(m, cold_sweeps);
        if (m.cache_hits + m.simulated != m.cellCount())
            why += " hits + simulated != cells";
        out.record(why.empty(), wl.mixed.name + " partial sweep:" + why);
        counters.set(wl.mixed.name + ".cells", (double)m.cellCount(), out);
        counters.note(wl.mixed.name + ".simulated", (double)m.simulated);
        counters.note(wl.mixed.name + ".hits", (double)m.cache_hits);
    }
    std::printf("%s\n", counters.line().c_str());

    Report &r = res.report;
    r.addSamples("setup_s", "s", setup);
    r.addSamples("cold_s", "s", cold);
    r.addSamples("cpu_s", "s", cpu);
    r.addSamples("warm_s", "s", warm);
    r.addSamples("estimate_s", "s", estimate);
    r.addSamples("mixed_s", "s", mixed);
    r.add("peak_rss_mb", "MiB", peakRssMb());
}

void
traced(const Options &o, const InprocWorkload &wl, RunResult &res)
{
    Outcome &out = res.outcome;
    const std::string dir = o.work_dir + "/cache";
    LayerExtras x;
    Tracer tracer;
    ReplayWork work;
    Replayer replayer(tracer, work);
    CacheCounters store{};
    auto addStore = [&] {
        const CacheCounters c = ResultStore::shared().counters();
        store.memo_hits += c.memo_hits;
        store.disk_hits += c.disk_hits;
        store.misses += c.misses;
        store.inserts += c.inserts;
    };

    double engine_1t = 0.0, replay_cold = 0.0;
    std::vector<SweepResult> engine_sweeps;
    for (const Grid &g : wl.grids) {
        // nproc engine: claim tail, pool, synthesis cache, disk bytes.
        freshDir(dir);
        resetCaches();
        EngineRun run = engineRun(g, dir, o.threads);
        noteEngineRun(x, run, o.threads);
        x.disk_bytes += (double)dirBytes(dir);
        const std::vector<uint8_t> engine_bytes = resultBytes(run.sweep);
        out.record(goldenCheck(o, g, run.sweep).empty(),
                   g.name + " engine sweep differs from the golden");
        engine_sweeps.push_back(run.sweep);

        // Untraced 1-thread engine: the overhead baseline.
        freshDir(dir);
        resetCaches();
        engine_1t += engineRun(g, dir, 1).wall_s;

        // Traced replay: cold, then the disk-warm re-read, then the
        // estimate tier (which also measures the estimator's error).
        freshDir(dir);
        resetCaches();
        service::ShardPlan sp;
        Clock::time_point t = Clock::now();
        SweepResult cold = replayer.replay(g, dir, &sp);
        const double cold_s = secondsSince(t);
        replay_cold += cold_s;
        x.replay_wall_s += cold_s;
        addStore();
        x.plan_shards += (double)sp.shards.size();
        x.plan_split_tasks += (double)sp.split_tasks;
        x.plan_warm_cells += (double)sp.warm_cells.size();
        std::string diff;
        out.record(sameBytes(engine_bytes, resultBytes(cold), &diff),
                   g.name + " replay differs from the engine: " + diff);

        resetCaches();
        t = Clock::now();
        SweepResult warm = replayer.replay(g, dir);
        x.replay_wall_s += secondsSince(t);
        addStore();
        out.record(sameBytes(engine_bytes, resultBytes(warm), &diff),
                   g.name + " warm replay differs: " + diff);

        resetCaches();
        const Grid eg = estimateGrid(g);
        RunConfig ecfg = eg.config;
        ecfg.threads = o.threads;
        const std::vector<uint8_t> engine_est =
            resultBytes(ModelRunner(ecfg).runSweep(eg.spec));
        resetCaches();
        t = Clock::now();
        SweepResult est = replayer.replay(eg, "");
        x.replay_wall_s += secondsSince(t);
        addStore();
        out.record(sameBytes(engine_est, resultBytes(est), &diff),
                   g.name + " estimate replay differs: " + diff);
        std::vector<double> err = estimatorErrors(cold, est);
        x.td_err.insert(x.td_err.end(), err.begin(), err.end());

        t = Clock::now();
        replayer.costPass(g);
        x.replay_wall_s += secondsSince(t);
    }
    out.record(work.sim_cost_mismatches == 0,
               "estimateSimCost disagrees with the plan");
    x.store = store;
    x.paper_err_pct = wl.paper_err(engine_sweeps);
    x.overhead_pct = (replay_cold - engine_1t) / engine_1t * 100.0;
    std::printf("[trace] replay_cold=%.3fs engine_1thread=%.3fs "
                "replay_all=%.3fs spans=%zu\n",
                replay_cold, engine_1t, x.replay_wall_s,
                tracer.spans().size());
    reportLayers(res.report, tracer, work, x);
    if (!o.trace_out.empty() && !tracer.writeChrome(o.trace_out))
        std::printf("[trace] cannot write %s\n", o.trace_out.c_str());
}

/** Set-up: from main entry until the workload's first sweep is
 * planned. */
double
planFirstSweep(const Options &o, const InprocWorkload &wl)
{
    ModelRunner(wl.grids[0].config).planSweep(wl.grids[0].spec);
    return secondsSince(o.t_main);
}

void
runInproc(const Options &o, const InprocWorkload &wl, RunResult &res)
{
    std::vector<double> setup{planFirstSweep(o, wl)};
    if (o.trace)
        traced(o, wl, res);
    else
        untraced(o, wl, setup, res);
}

InprocWorkload
fig13Workload(uint64_t seed)
{
    InprocWorkload wl;
    wl.grids = {fig13Grid(seed)};
    wl.mixed = fig23Grid(seed);
    wl.check_mixed = [](const SweepResult &m,
                        const std::vector<SweepResult> &cold) {
        // The training variant's paper models are the fig13 cells, and
        // every inference Forward op is its training twin.
        const size_t paper = cold[0].modelCount();
        std::string why;
        if (modelBytes(m, 0, paper) != modelBytes(cold[0], 0, paper))
            why += " training cells differ from fig13";
        for (size_t i = 0; i < m.modelCount(); ++i) {
            ByteWriter a, b;
            m.at(i, 0, 0).ops[0].serialize(a);
            m.at(i, 0, 1).ops[0].serialize(b);
            if (a.data() != b.data())
                why += " " + m.models[i] + " inference != training AxW";
        }
        return why;
    };
    wl.paper_err = [](const std::vector<SweepResult> &cold) {
        return fig13PaperErrPct(cold[0]);
    };
    return wl;
}

InprocWorkload
geometryWorkload(uint64_t seed)
{
    InprocWorkload wl;
    wl.grids = {fig17Grid(seed), fig22Grid(seed)};
    // The tiles axis widened by one point: six variants warm, one cold.
    wl.mixed = fig22Grid(seed, {1, 2, 4, 8, 16, 32, 64});
    wl.mixed.name = "fig22-widened";
    wl.check_mixed = [](const SweepResult &m,
                        const std::vector<SweepResult> &cold) {
        const SweepResult &f22 = cold[1];
        std::string why;
        for (size_t v = 0; v < f22.variantCount(); ++v)
            if (modelBytes(m, v, f22.modelCount()) !=
                modelBytes(f22, v, f22.modelCount()))
                why += " variant " + f22.variants[v] + " differs";
        if (m.simulated != m.cellCount() / m.variantCount())
            why += " simulated more than the new variant";
        return why;
    };
    wl.paper_err = [](const std::vector<SweepResult> &cold) {
        return fig17PaperErrPct(cold[0]);
    };
    return wl;
}

} // namespace

void
runFig13(const Options &o, RunResult &res)
{
    runInproc(o, fig13Workload(o.seed), res);
}

void
runGeometry(const Options &o, RunResult &res)
{
    runInproc(o, geometryWorkload(o.seed), res);
}

void
runRereads(const Options &o, RunResult &res)
{
    const InprocWorkload wl = o.workload == "geometry"
                                  ? geometryWorkload(o.seed)
                                  : fig13Workload(o.seed);
    std::vector<SweepResult> cold(wl.grids.size());
    for (size_t i = 0; i < cold.size(); ++i) {
        std::string text;
        if (!res.outcome.record(
                readText(coldPath(o, i), &text) &&
                    SweepResult::deserialize({text.begin(), text.end()},
                                             &cold[i]),
                "cannot load cold sweep " + coldPath(o, i)))
            return;
    }
    const std::string dir = o.work_dir + "/cache";
    Counters counters;
    std::vector<std::vector<uint8_t>> first(wl.grids.size());
    std::vector<double> warm, estimate;
    // An untimed pair first: the process's lazy set-up is no part of
    // what a re-read costs.
    warmReread(o, wl, dir, cold, counters, res.outcome);
    estimateSweep(o, wl, first, counters, res.outcome);
    for (int k = 0; k < kPairsPerProc; ++k) {
        warm.push_back(warmReread(o, wl, dir, cold, counters, res.outcome));
        estimate.push_back(
            estimateSweep(o, wl, first, counters, res.outcome));
    }
    // Every process must compute the same estimates.
    for (size_t i = 0; i < first.size(); ++i)
        counters.set(wl.grids[i].name + ".estimate_fnv",
                     fingerprint(first[i]), res.outcome);
    for (const auto &[name, samples] :
         {std::pair{"warm_s", &warm}, std::pair{"estimate_s", &estimate}}) {
        std::printf("[samples] %s", name);
        for (double v : *samples)
            std::printf(" %.17g", v);
        std::printf("\n");
    }
    std::printf("%s\n", counters.line().c_str());
}

double
setupSeconds(const Options &o)
{
    return planFirstSweep(o, o.workload == "geometry"
                                 ? geometryWorkload(o.seed)
                                 : fig13Workload(o.seed));
}

} // namespace tdbench
