#ifndef TENSORDASH_BENCH_BENCH_UTIL_HH_
#define TENSORDASH_BENCH_BENCH_UTIL_HH_

/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * Every bench binary regenerates one table or figure from the paper's
 * evaluation and prints the same rows/series plus the paper-reported
 * reference values where the text states them.  Set TD_FAST=1 to run
 * with reduced sampling (quick smoke of the whole harness).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/tensordash.hh"

/*
 * google-benchmark is optional.  The build system defines
 * TENSORDASH_HAVE_BENCHMARK when find_package(benchmark) succeeds;
 * microbenchmarks guard their timed bodies on it and fall back to
 * bench::benchmarkUnavailable() so they always compile and link.
 */
#if !defined(TENSORDASH_HAVE_BENCHMARK)
#define TENSORDASH_HAVE_BENCHMARK 0
#endif

namespace tensordash {
namespace bench {

/** True when TD_FAST=1 requests reduced sampling. */
inline bool
fastMode()
{
    const char *v = std::getenv("TD_FAST");
    return v && v[0] == '1';
}

/** Per-op dense-MAC sampling cap for model-suite benches. */
inline uint64_t
sampleBudget(uint64_t full, uint64_t fast)
{
    return fastMode() ? fast : full;
}

/** Default accelerator run configuration (paper Table 2). */
inline RunConfig
defaultRunConfig()
{
    RunConfig cfg;
    cfg.accel.max_sampled_macs = sampleBudget(600000, 120000);
    // The published evaluation (Figs. 13-21) assumes the streaming
    // dataflow hides off-chip latency, so the paper-figure benches pin
    // the analytic memory model for exact reproduction.  Fig. 22
    // overrides this to study the pipelined model's memory roofline.
    cfg.accel.memory_model = MemoryModel::Analytic;
    return cfg;
}

/**
 * Shared command line of the figure benches.  Every fig binary accepts
 * the same base options so sweeps can be scripted uniformly:
 *
 *   --threads N      simulation parallelism (default: TD_THREADS or
 *                    all cores); each sweep starts that many threads
 *                    and joins them before it returns
 *   --reps N         repeat the figure N times and report wall-clock
 *                    per repetition (for scaling measurements)
 *   --csv PATH       also write the figure's table as CSV to PATH
 *   --json PATH      write machine-readable run stats (wall-clock ms,
 *                    cells, cache/synth counters) to PATH — the
 *                    perf-trajectory artifact CI uploads
 *   --cache-dir DIR  on-disk result cache shared across runs and
 *                    processes (default: the TD_CACHE environment
 *                    variable; in-memory memoisation is always on)
 *   --estimate       serve every cell from the closed-form estimator
 *                    (Fidelity::Estimate) instead of simulating —
 *                    triage output, not simulation results; estimate
 *                    cells cache under their own keys and never
 *                    touch exact blobs
 *
 * Figures built on one runSweep()/runMany() sweep additionally accept
 * the sharding CLI (see sweepFigure):
 *
 *   --shard i/N      simulate only shard i of the task grid: the
 *                    layers (synthesis groups) ≡ i (mod N), each
 *                    with every axis value of a config-axis figure
 *   --shard-out F    write the partial sweep to F (binary)
 *   --merge F        load a shard file (repeatable); merge all,
 *                    render the figure, and simulate nothing
 */
struct Options
{
    int threads = 0;
    int reps = 1;
    std::string csv;
    std::string json;
    std::string cache_dir;
    bool estimate = false;
    size_t shard_index = 0;
    size_t shard_count = 1;
    std::string shard_out;
    std::vector<std::string> merge;
};

inline void
usage(const char *binary, FILE *out = stdout, bool sharding = false)
{
    std::fprintf(
        out,
        "usage: %s [--threads N] [--reps N] [--csv PATH]\n"
        "  --threads N      worker threads (default: TD_THREADS or "
        "all cores)\n"
        "  --reps N         repeat the figure N times, timing each "
        "rep\n"
        "  --csv PATH       also write the figure's table as CSV to "
        "PATH\n"
        "  --json PATH      write machine-readable run stats to PATH\n"
        "  --cache-dir DIR  on-disk result cache (default: TD_CACHE "
        "env)\n"
        "  --estimate       closed-form estimate tier (triage only, "
        "not simulation results)\n",
        binary);
    if (sharding) {
        std::fprintf(
            out,
            "  --shard i/N      simulate only shard i of N (needs "
            "--shard-out)\n"
            "  --shard-out F    write the partial sweep to F\n"
            "  --merge F        merge shard file F (repeatable) and "
            "render\n");
    }
}

/**
 * Parse the shared CLI; exits on --help, bad values or unknown
 * options.  @p sharding enables --shard/--shard-out/--merge for
 * figures built on a single runMany() sweep.
 */
inline Options
parseArgs(int argc, char **argv, bool sharding = false)
{
    Options opts;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                         argv[i]);
            usage(argv[0], stderr, sharding);
            std::exit(1);
        }
        return argv[++i];
    };
    auto intValue = [&](int &i, long min) -> int {
        const char *flag = argv[i];
        const char *text = value(i);
        char *end = nullptr;
        long v = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || v < min || v > 4096) {
            std::fprintf(stderr,
                         "%s: bad value '%s' for %s (want an integer "
                         "in [%ld, 4096])\n",
                         argv[0], text, flag, min);
            std::exit(1);
        }
        return (int)v;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout, sharding);
            std::exit(0);
        } else if (arg == "--threads") {
            opts.threads = intValue(i, 0); // 0 = TD_THREADS/auto
        } else if (arg == "--reps") {
            opts.reps = intValue(i, 1);
        } else if (arg == "--csv") {
            opts.csv = value(i);
        } else if (arg == "--json") {
            opts.json = value(i);
        } else if (arg == "--cache-dir") {
            opts.cache_dir = value(i);
        } else if (arg == "--estimate") {
            opts.estimate = true;
        } else if (sharding && arg == "--shard") {
            const char *text = value(i);
            unsigned long idx = 0, cnt = 0;
            if (std::sscanf(text, "%lu/%lu", &idx, &cnt) != 2 ||
                cnt < 1 || cnt > 4096 || idx >= cnt) {
                std::fprintf(stderr,
                             "%s: bad value '%s' for --shard (want "
                             "i/N with i < N <= 4096)\n",
                             argv[0], text);
                std::exit(1);
            }
            opts.shard_index = idx;
            opts.shard_count = cnt;
        } else if (sharding && arg == "--shard-out") {
            opts.shard_out = value(i);
        } else if (sharding && arg == "--merge") {
            opts.merge.push_back(value(i));
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0], stderr, sharding);
            std::exit(1);
        }
    }
    if (opts.shard_count > 1 && !opts.merge.empty()) {
        std::fprintf(stderr, "%s: --shard and --merge are exclusive\n",
                     argv[0]);
        std::exit(1);
    }
    if (opts.shard_count > 1 && opts.shard_out.empty()) {
        std::fprintf(stderr,
                     "%s: --shard needs --shard-out FILE to store "
                     "the partial sweep\n", argv[0]);
        std::exit(1);
    }
    if (opts.shard_count > 1 && !opts.csv.empty()) {
        std::fprintf(stderr,
                     "%s: --csv has no effect with --shard (a partial "
                     "sweep renders no table); use it with --merge or "
                     "an unsharded run\n", argv[0]);
        std::exit(1);
    }
    return opts;
}

/** Run configuration honouring the shared CLI's thread count and
 * cache directory. */
inline RunConfig
defaultRunConfig(const Options &opts)
{
    RunConfig cfg = defaultRunConfig();
    cfg.threads = opts.threads;
    cfg.cache_dir = opts.cache_dir;
    if (opts.estimate)
        cfg.fidelity = Fidelity::Estimate;
    return cfg;
}

/** Print a table and, when requested, write it as CSV. */
inline void
emit(const Table &t, const Options &opts)
{
    t.print();
    if (opts.csv.empty())
        return;
    FILE *f = std::fopen(opts.csv.c_str(), "w");
    if (!f) {
        TD_FATAL("cannot write CSV to '%s'", opts.csv.c_str());
        return; // unreachable unless throw-mode swallows the fatal
    }
    std::string csv = t.csv();
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("csv written to %s\n", opts.csv.c_str());
}

/**
 * Counters of the most recent sweep reported through reportCache(),
 * plus the last repetition's wall-clock — the payload of --json.  A
 * process-wide mutable singleton is fine here: bench binaries render
 * one figure from one thread.
 */
struct BenchJsonStats
{
    bool have_sweep = false;
    size_t tasks = 0;
    size_t cells = 0;
    size_t cache_hits = 0;
    size_t estimated = 0;
    size_t simulated = 0;
    size_t synth_keys = 0;
    size_t synth_reuses = 0;
    size_t array_runs = 0;
    size_t array_reuses = 0;
    double wall_ms = 0.0;

    static BenchJsonStats &
    instance()
    {
        static BenchJsonStats stats;
        return stats;
    }
};

/** Write the collected run stats as JSON (no-op without --json). */
inline void
writeBenchJson(const Options &opts, int threads)
{
    if (opts.json.empty())
        return;
    const BenchJsonStats &s = BenchJsonStats::instance();
    FILE *f = std::fopen(opts.json.c_str(), "w");
    if (!f) {
        TD_FATAL("cannot write JSON to '%s'", opts.json.c_str());
        return; // unreachable unless throw-mode swallows the fatal
    }
    std::fprintf(f,
                 "{\n"
                 "  \"wall_ms\": %.3f,\n"
                 "  \"threads\": %d,\n"
                 "  \"reps\": %d,\n"
                 "  \"tasks\": %zu,\n"
                 "  \"cells\": %zu,\n"
                 "  \"cache_hits\": %zu,\n"
                 "  \"estimated\": %zu,\n"
                 "  \"simulated\": %zu,\n"
                 "  \"synth_keys\": %zu,\n"
                 "  \"synth_reuses\": %zu,\n"
                 "  \"array_runs\": %zu,\n"
                 "  \"array_reuses\": %zu\n"
                 "}\n",
                 s.wall_ms, threads, opts.reps, s.tasks, s.cells,
                 s.cache_hits, s.estimated, s.simulated, s.synth_keys,
                 s.synth_reuses, s.array_runs, s.array_reuses);
    std::fclose(f);
    std::printf("json written to %s\n", opts.json.c_str());
}

/**
 * Build-and-emit loop: runs @p build opts.reps times, reporting the
 * wall-clock of every repetition, and emits the last table.  Figures
 * route their whole computation through build() so --reps times the
 * complete sweep.
 *
 * With --reps > 1 the in-process result memo is cleared before every
 * repetition: --reps exists to measure simulation wall-clock (e.g.
 * thread scaling), and serving reps 2..N from the memo would time
 * hash lookups instead.  Synthesis needs no such reset: a sweep frees
 * its tensors before it returns, so every rep synthesizes its own.
 * An explicit --cache-dir/TD_CACHE disk cache is the user's call and
 * still applies.
 */
template <typename BuildFn>
inline void
runFigure(const Options &opts, BuildFn &&build)
{
    int threads = opts.threads > 0 ? opts.threads : defaultThreadCount();
    for (int rep = 0; rep < opts.reps; ++rep) {
        if (opts.reps > 1)
            ResultStore::shared().clearMemo();
        auto start = std::chrono::steady_clock::now();
        Table t = build();
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        if (rep == opts.reps - 1)
            emit(t, opts);
        std::printf("[rep %d/%d] %.0f ms (%d thread%s)\n", rep + 1,
                    opts.reps, ms, threads, threads == 1 ? "" : "s");
        BenchJsonStats::instance().wall_ms = ms;
    }
    writeBenchJson(opts, threads);
}

/** Report the sweep's cache effectiveness plus the process-wide
 * store's hit/miss/insert split (CI greps this line; `simulated=`
 * stays the final field so `simulated=0$` anchors).  The `[synth]`
 * line reports the process-wide synthesis counters the same way: a
 * cold N-variant geometry sweep shows `keys=` at the single-variant
 * cell count and `reuses=` covering the other N-1 variants (CI
 * anchors on it; `reuses=` stays the final field).  The `[array]`
 * line splits the simulated op cells into those that lowered and
 * tile-ran their op and those finished from an earlier run of the
 * same group task (a cold N-point tile-count sweep shows `reuses=`
 * at N-1 times `runs=`). */
inline void
reportCache(const SweepResult &sweep)
{
    const CacheCounters c = ResultStore::shared().counters();
    std::printf("[cache] tasks=%zu cells=%zu hits=%zu memo=%zu "
                "disk=%zu misses=%zu inserts=%zu estimated=%zu "
                "simulated=%zu\n",
                sweep.taskCount(), sweep.cellCount(), sweep.cache_hits,
                (size_t)c.memo_hits, (size_t)c.disk_hits,
                (size_t)c.misses, (size_t)c.inserts, sweep.estimated,
                sweep.simulated);
    const SynthCounters s = SynthCache::shared().counters();
    std::printf("[synth] keys=%zu reuses=%zu\n", (size_t)s.keys,
                (size_t)s.reuses);
    std::printf("[array] runs=%zu reuses=%zu\n", (size_t)s.array_runs,
                (size_t)s.array_reuses);

    BenchJsonStats &j = BenchJsonStats::instance();
    j.have_sweep = true;
    j.tasks = sweep.taskCount();
    j.cells = sweep.cellCount();
    j.cache_hits = sweep.cache_hits;
    j.estimated = sweep.estimated;
    j.simulated = sweep.simulated;
    j.synth_keys = (size_t)s.keys;
    j.synth_reuses = (size_t)s.reuses;
    j.array_runs = (size_t)s.array_runs;
    j.array_reuses = (size_t)s.array_reuses;
}

/**
 * Drive one declarative sweep figure through the sharding CLI:
 *
 *  - --merge F...: load and merge the shard files, render the figure
 *    from the merged sweep, simulate nothing.  Byte-identical CSV to
 *    an unsharded run (the merged grid re-reduces in serial order).
 *  - --shard i/N: simulate only shard i of the full (variant x model
 *    x progress x layer) grid — a config-axis figure shards by layer,
 *    each shard carrying every axis value of its layers, so no layer
 *    is synthesized twice — and serialize the partial sweep to
 *    --shard-out; no table is rendered.
 *  - neither: the plain runFigure() loop.
 *
 * @param render  callable SweepResult -> Table
 */
template <typename RenderFn>
inline void
sweepFigure(const Options &opts, const ModelRunner &runner,
            const SweepSpec &spec, RenderFn &&render)
{
    if (!opts.merge.empty()) {
        SweepResult merged;
        for (size_t i = 0; i < opts.merge.size(); ++i) {
            const std::string &path = opts.merge[i];
            std::vector<uint8_t> bytes;
            if (!readFileBytes(path, &bytes))
                TD_FATAL("cannot read shard file '%s'", path.c_str());
            SweepResult shard;
            if (!SweepResult::deserialize(bytes, &shard)) {
                TD_FATAL("'%s' is not a valid sweep shard (wrong "
                         "version or corrupt)", path.c_str());
            }
            if (i == 0)
                merged = std::move(shard);
            else
                merged.merge(shard);
        }
        // Shard files self-agree by fingerprint, but nothing so far
        // ties them to *this* figure: check them against the grid the
        // spec expands to (cheap — key hashing, no simulation) before
        // rendering with figure-local axis metadata.
        uint64_t expected = runner.sweepFingerprint(spec);
        if (merged.fingerprint != expected) {
            TD_FATAL("shard files describe a different sweep "
                     "(fingerprint %016llx, this figure expects "
                     "%016llx): produced by another figure, "
                     "configuration, or format version",
                     (unsigned long long)merged.fingerprint,
                     (unsigned long long)expected);
        }
        if (!merged.complete()) {
            TD_FATAL("merged sweep covers only %zu of %zu tasks; "
                     "pass every shard via --merge",
                     merged.presentCount(), merged.taskCount());
        }
        std::printf("[merge] %zu shard file%s -> %zu tasks\n",
                    opts.merge.size(),
                    opts.merge.size() == 1 ? "" : "s",
                    merged.taskCount());
        emit(render(merged), opts);
        return;
    }
    if (opts.shard_count > 1) {
        Shard shard{opts.shard_index, opts.shard_count};
        auto start = std::chrono::steady_clock::now();
        SweepResult sweep = runner.runSweep(spec, shard);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        reportCache(sweep);
        if (!writeFileBytes(opts.shard_out, sweep.serialize()))
            TD_FATAL("cannot write shard file '%s'",
                     opts.shard_out.c_str());
        std::printf("[shard %zu/%zu] %zu of %zu tasks in %.0f ms -> "
                    "%s\n", shard.index, shard.count,
                    sweep.presentCount(), sweep.taskCount(), ms,
                    opts.shard_out.c_str());
        return;
    }
    runFigure(opts, [&] {
        SweepResult sweep = runner.runSweep(spec);
        reportCache(sweep);
        return render(sweep);
    });
}

/**
 * Single-variant convenience: drive a plain (model x progress) sweep
 * — no config axes — through the same sharding CLI.
 */
template <typename RenderFn>
inline void
sweepFigure(const Options &opts, const ModelRunner &runner,
            std::span<const ModelProfile> models,
            std::span<const double> points, RenderFn &&render)
{
    SweepSpec spec;
    spec.models.assign(models.begin(), models.end());
    spec.progress_points.assign(points.begin(), points.end());
    sweepFigure(opts, runner, spec, std::forward<RenderFn>(render));
}

/** Print the figure banner. */
inline void
banner(const char *id, const char *what)
{
    std::printf("=== %s: %s ===\n", id, what);
    if (fastMode())
        std::printf("(TD_FAST=1: reduced sampling)\n");
}

/** Print a paper-reference footnote. */
inline void
reference(const char *text)
{
    std::printf("paper reference: %s\n", text);
}

/** Stub body for microbenchmarks when google-benchmark is absent. */
inline int
benchmarkUnavailable(const char *binary)
{
    std::printf("%s: built without google-benchmark; nothing to run.\n"
                "Install google-benchmark and reconfigure to enable "
                "this microbenchmark.\n", binary);
    return 0;
}

} // namespace bench
} // namespace tensordash

#endif // TENSORDASH_BENCH_BENCH_UTIL_HH_
