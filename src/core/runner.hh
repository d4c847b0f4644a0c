#ifndef TENSORDASH_CORE_RUNNER_HH_
#define TENSORDASH_CORE_RUNNER_HH_

/**
 * @file
 * Model-level simulation driver: the public entry point the benchmark
 * harness and examples use to reproduce the paper's per-model results.
 *
 * A ModelRunner takes a workload profile (layer shapes + sparsity
 * calibration), synthesises per-layer tensors at a chosen point in
 * training, runs the configured phase's op set for every layer through
 * the accelerator (Training = the three convolutions of Table 1,
 * Inference = forward only), and aggregates cycles, potentials and
 * energy.
 *
 * Execution is task-based: the grid's layer slots (one per variant,
 * model, progress point and layer) are grouped by the SynthKey their
 * cells read, and each group is one stateless task that synthesizes
 * the layer once and walks its slots in serial order (lower ->
 * simulate the phase's op set, each slot on its own Accelerator
 * instance), claimed by the sweep's own threads (one parallelFor per
 * sweep, joined before it returns).  Slots whose configs differ only
 * in how an op finishes (AcceleratorConfig::arrayConfig(): tile
 * count, memory model, ...) share the task's one lowering and tile
 * run of each op, and each finishes it under its own config.  Groups
 * are claimed
 * costliest-first — ranked by the closed-form OpEstimator's predicted
 * simulation cost plus the layer's synthesis volume, which sees the
 * variants' geometry (sampling caps, gather/schedule volume, the
 * sparse front end) rather than raw dense MACs — so skewed layer costs
 * cannot leave the sweep tailing on one straggler.
 * Per-layer Rng streams are forked serially up front and results are
 * merged in serial (layer, op) order, so a run is bit-identical at any
 * thread count.  With power gating enabled, each slot observes its
 * layer's sparsity stats and freezes the gating table before any op
 * simulates (see PowerGateController) — gating decisions are per-layer
 * pure functions, so no cross-layer mutable state remains.
 *
 * Sweeps are *declarative*: a SweepSpec names the models, the training
 * progress points and any number of configuration axes (each a label,
 * a list of values and a RunConfig mutator — PE rows, tile count,
 * staging depth, power gating, ...).  The engine expands the cross
 * product of the axes into config *variants* and lays every
 * (variant x model x progress x layer) cell out as one flat task grid,
 * so a whole design-space figure shares one costliest-first claim loop
 * instead of running its axis points serially.  runMany() is the
 * single-variant special case.
 *
 * Results are *content addressed* per (layer, op) cell: each cell is a
 * pure function of its inputs and carries a TaskKey fingerprinting all
 * of them (the variant's effective config, layer shape, sparsity
 * profile, progress, seed, and which op).  The workload phase is
 * deliberately NOT part of a cell's key — it only selects which cells
 * exist — so an inference sweep's Forward cells are served straight
 * from the cache a training sweep populated.  On top of that purity
 * sit two features:
 *
 *  - Memoisation: every slot consults a ResultStore before
 *    simulating, so repeated sweeps sharing cells (fig13 vs fig15 run
 *    the identical grid; a widened axis re-simulates only its new
 *    values) skip re-simulation entirely, in-process and — with a
 *    cache dir — across processes.  Synthesis is content addressed
 *    the same way one level down (core/synth_cache.hh): a SynthKey
 *    covers only the synthesis-affecting inputs, so within one sweep
 *    the N variants of a geometry axis are one task, which
 *    synthesizes each (model, progress, layer) cell once and frees
 *    the tensors when it returns.
 *  - Sharding: every run simulates a list of op cells of the grid
 *    planSweep() enumerates.  runSweepCells() takes the list from an
 *    external planner; runSweep()/runMany() derive it from a
 *    Shard{index, count}, a filter that keeps the cells of every
 *    synthesis group (the cells that read one SynthKey) congruent to
 *    index mod count.  The group is the one work unit from plan to
 *    claim: a Shard owns it, the sweep service's planner packs it and
 *    the claim loop runs it, all through groupCells().  A partial
 *    SweepResult (described by its per-slot present masks alone)
 *    serializes to bytes, travels between processes/machines, and
 *    merge() reassembles the grid; because the final reduce always
 *    walks the same serial (layer, op) order over the same per-layer
 *    results, a merged run is bit-identical to a single-process one.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hashing.hh"
#include "common/serial.hh"
#include "models/model_zoo.hh"
#include "sim/accelerator.hh"

namespace tensordash {

/**
 * Binary format version of cached/sharded simulation results.  Bump
 * whenever the serialized layout of LayerResult/SweepResult changes
 * *or* the simulation semantics change without a config field
 * recording it; TaskKey mixes this version in, so a bump invalidates
 * every previously cached result instead of misreading it.
 *
 * v2: SweepResult grids gained the config-variant dimension (variant
 * labels + per-variant memory models in the header) and TaskKey gained
 * the synthesis salt and write-back-estimate inputs.
 *
 * v3: results are content addressed per (layer, op) cell instead of
 * per layer — TaskKey::forOp replaced forLayer, cache blobs hold one
 * OpCellResult, LayerResult became a phase-sized op set, and sweep
 * headers tag every variant's WorkloadPhase.
 *
 * v4: RunConfig gained the fidelity tier and the batch override (both
 * folded into TaskKey — estimate-tier cells salt their keys so they
 * can never shadow exact results), and serialized sweeps carry the
 * estimated-cell counter next to cache_hits/simulated.
 *
 * v5: per-slot presence became an op-cell bitmask so a shard can own
 * individual op cells of one layer — the sweep service's adaptive
 * planner splits giant layers below task grain and reassembles them
 * at merge.  Serialized slots carry the mask followed by only the
 * masked cells.
 *
 * v6: the byte layout is unchanged, but synthesis draws from the
 * counter-based generator (ModelZoo::synthesize) and the job sampler's
 * offset from CounterRng, so every cell's value moved; the bump keeps
 * v5 results out of v6 caches.
 *
 * v7: sweep headers dropped the shard index/count and the base memory
 * model, which no reader used: a partial sweep is described by its
 * present masks, and every variant carries its own memory model.
 */
inline constexpr uint32_t kResultFormatVersion = 7;

/**
 * Result fidelity tier of a run.
 *
 * Exact drives the cycle-exact simulator (synthesize -> lower ->
 * schedule every MAC); Estimate swaps each cell's simulation for the
 * closed-form OpEstimator (see sim/estimator.hh) — no tensors, no
 * scheduling, typically orders of magnitude faster.  Estimates are
 * for *triage* (ranking design points, fencing the interesting band
 * for ModelRunner::refine()), never for quoting as simulation
 * results.
 *
 * Estimate-tier cells are content addressed under their own key salt
 * (plus the estimator's model version), so cached estimates and exact
 * results live side by side and can never contaminate one another.
 */
enum class Fidelity : uint8_t
{
    Exact,
    Estimate,
};

/** Configuration of one model-level run. */
struct RunConfig
{
    /**
     * Accelerator configuration, including the memory-model switch
     * (accel.memory_model): Pipelined (the default) resolves DRAM/DMA
     * contention into cycles through the MemoryPipeline; Analytic
     * reproduces the published evaluation exactly, charging traffic
     * for energy only.
     */
    AcceleratorConfig accel;

    /**
     * Workload phase: which op set every layer runs.  Training
     * simulates the three convolutions of Table 1 (AxW, AxG, WxG);
     * Inference is forward-only serving traffic (AxW).  Sweep the
     * phase as a config axis with phaseAxis().
     *
     * The phase selects op cells, it is never part of a cell's
     * identity: cells are keyed per op (TaskKey::forOp), so an
     * inference sweep's Forward cells warm-hit the cache a training
     * sweep of the same configuration populated.
     */
    WorkloadPhase phase = WorkloadPhase::Training;

    /**
     * Result fidelity: Exact (the default) simulates cycle-exactly;
     * Estimate serves every cell from the closed-form estimator.
     * Sweep it as a config axis to triage a huge grid first and
     * refine() only the interesting band exactly.
     */
    Fidelity fidelity = Fidelity::Exact;

    /** Training progress in [0, 1] driving the temporal profile. */
    double progress = 0.5;

    /** Seed for tensor synthesis. */
    uint64_t seed = 7;

    /**
     * When > 0, replaces every model's calibrated batch size — the
     * serving-regime knob behind batchAxis().  Part of each cell's
     * TaskKey (cells at different effective batches are different
     * simulations).  0 keeps each model's own batch.
     */
    int batch_override = 0;

    /**
     * Maximum simulation parallelism: 1 = fully serial, 0 = the
     * default (TD_THREADS as first read by the process, else
     * hardware_concurrency).  Results are identical at any setting.
     * Negative values are rejected.
     */
    int threads = 0;

    /**
     * Consult the process-wide ResultStore before simulating a cell
     * and memoise what was simulated.  Cached results are bit-identical
     * to fresh simulations (the TaskKey covers every input), so this
     * only ever changes wall-clock, never output.
     */
    bool cache = true;

    /**
     * Optional on-disk result cache directory, shared across processes
     * (and safe to share concurrently: entries are content addressed
     * and written atomically).  Empty falls back to the TD_CACHE
     * environment variable; both empty means in-memory only.  Ignored
     * when cache is false.
     */
    std::string cache_dir;
};

/**
 * Content-addressed identity of one (layer, op) simulation cell: a
 * stable FNV-1a fingerprint over everything the cell's result depends
 * on — the full accelerator configuration (memory model and DRAM
 * timing included, with the model's wg_side override applied), the
 * layer shape, the model's sparsity calibration and batch, the
 * training progress, the synthesis seed, the layer's position in the
 * serial Rng fork order, which training op, the sweep's synthesis
 * contract (salt + write-back estimate switch) and the result format
 * version.  Any input change yields a new key.
 *
 * Equal keys mean bit-identical results within what CI proves: at any
 * thread count, shard split and cache state, and across -O0 and
 * -O3 -march=native builds on one machine.  Synthesis draws are
 * in-tree integer hashing (CounterRng).  The Beta sampler and the
 * estimator still call libm (log, pow, cos, lgamma_r), whose last bits
 * can vary across libm builds and CPU dispatch, so results across
 * platforms are not promised.
 *
 * The workload phase is intentionally absent: a layer's Forward op is
 * the identical computation whether it runs inside a training or an
 * inference sweep, so both phases address the same cell.
 */
struct TaskKey
{
    uint64_t value = 0;

    /**
     * Key of op @p op of layer @p layer of @p model at @p progress
     * under @p config.
     *
     * @param synthesis_salt        content id of a custom synthesis
     *                              hook (0 = the zoo's synthesize; see
     *                              SweepSpec::synthesize)
     * @param estimate_out_sparsity whether write-back traffic is sized
     *                              from the inputs' measured sparsity
     */
    static TaskKey forOp(const RunConfig &config,
                         const ModelProfile &model, size_t layer,
                         TrainOp op, double progress,
                         uint64_t synthesis_salt = 0,
                         bool estimate_out_sparsity = true);

    /** 16 lowercase hex digits (cache file names). */
    std::string hex() const;

    bool operator==(const TaskKey &o) const { return value == o.value; }
};

/**
 * What one (layer, op) cell produces: one op's cycle/activity result
 * and its baseline/TensorDash energy splits.  This is the unit of
 * caching; everything model-level is reduced from these in serial
 * order afterwards.
 */
struct OpCellResult
{
    OpResult op;
    EnergyBreakdown energy_base;
    EnergyBreakdown energy_td;

    /** Bit-exact binary round-trip (result cache / shard files). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);
};

/**
 * One layer's op set under its variant's workload phase, in phaseOps()
 * order (one grid slot of a sweep file, whose cells were looked up or
 * simulated per op).
 */
struct LayerResult
{
    std::vector<OpCellResult> cells;

    /** Bit-exact binary round-trip (shard files). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);
};

/**
 * Deterministic partition of the (variant x model x progress x layer)
 * task grid, applied as a filter over planSweep()'s cells: shard i of
 * N owns every op cell whose synthesis group g (GridCellInfo::group)
 * is congruent to i mod N.  A config-axis sweep thus shards by layer,
 * each shard synthesizing its layers once for every axis value.  The
 * default {0, 1} owns the whole grid.
 */
struct Shard
{
    size_t index = 0;
    size_t count = 1;

    bool owns(size_t g) const { return count <= 1 || g % count == index; }

    /**
     * Panic unless this is a well-formed partition (count >= 1 and
     * index < count).  Every sweep entry point validates up front: an
     * out-of-range shard owns zero cells, and silently writing an
     * empty shard file wastes a fleet slot and fails only at merge
     * time, far from the mistake.
     */
    void
    validate() const
    {
        TD_ASSERT(count >= 1 && index < count,
                  "invalid shard %zu/%zu (want index < count, "
                  "count >= 1)", index, count);
    }
};

/**
 * Live progress of one sweep run, reported through RunHooks::progress
 * after each completed layer slot: how many of the slots this run
 * owns have finished, plus the running cache/simulation counters.
 */
struct SweepProgress
{
    size_t done_tasks = 0;  ///< owned layer slots finished so far
    size_t total_tasks = 0; ///< layer slots this run owns
    size_t cache_hits = 0;
    size_t simulated = 0;
    size_t estimated = 0;
};

/**
 * Optional execution hooks of one sweep run — observation and control
 * only, never semantics: hooked, unhooked and cancelled-then-resumed
 * runs produce bit-identical cells.
 */
struct RunHooks
{
    /** Called after every completed layer slot.  Invocations are
     * serialized internally, so the callback needs no locking of its
     * own; it runs on simulation threads and must stay cheap. */
    std::function<void(const SweepProgress &)> progress;

    /**
     * When set, checked before each layer slot starts: once true, the
     * remaining slots are skipped and the run returns a partial sweep
     * whose finished cells are intact and serializable — the
     * graceful-shutdown path of the sweep service's workers.  Cells
     * already simulating drain normally (a cancelled run never holds
     * torn results).
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * One op cell of a planned sweep grid, in serial cell order — the
 * planning view ModelRunner::planSweep() exposes and runSweepCells()
 * executes against.  Enough for an external scheduler (the sweep
 * service's shard planner) to probe the result cache, cost shards and
 * assign cells to worker processes without simulating anything.
 */
struct GridCellInfo
{
    /** Layer slot the cell belongs to (a SweepResult present mask). */
    size_t slot = 0;

    /** Synthesis group: dense index of synth_key in first-appearance
     * order, the unit a Shard owns and groupCells() collects. */
    size_t group = 0;

    /** Which op cell within the slot, in phaseOps() order. */
    uint32_t op_index = 0;

    /** Global serial cell index (== this entry's position in the
     * planSweep() vector; the currency of runSweepCells()). */
    size_t cell = 0;

    /** The cell's content-addressed identity (ResultStore probes). */
    TaskKey key;

    /** Synthesis content id (SynthKey) of the cell's layer: cells
     * sharing it share one synthesis, so a planner that scatters them
     * across workers pays synthesis once per worker instead. */
    uint64_t synth_key = 0;

    /** Closed-form estimated simulation cost of this op cell; 1 for
     * an estimate-tier cell, which never simulates. */
    double est_cost = 0.0;

    /** Synthesis volume of the cell's layer, carried by every exact
     * cell (0 for an estimate cell, which never synthesizes);
     * groupCells() charges it once per group. */
    double synth_cost = 0.0;
};

/** The cells of one synthesis group within a cell list, priced. */
struct CellGroup
{
    std::vector<size_t> cells; ///< global cell indices, serial order
    double synth_cost = 0.0;   ///< the largest of the cells' synth_cost
    double cost = 0.0;         ///< the cells' est_cost + synth_cost
};

/**
 * Group @p cells (global cell indices of @p plan, in serial order) by
 * GridCellInfo::group, in first-appearance order: the units the claim
 * loop runs and the sweep service's planner packs.  The one pricing
 * rule: a group costs its cells' estimates plus one synthesis.
 *
 * The price still counts every cell's estimate, though variants that
 * differ only in how an op finishes (a tile-count or memory-model
 * axis) share one array run, so such a group is priced up to its
 * variant count too high.  Every group of a grid carries the same
 * variant set and so the same sharing; the price is left as it is,
 * and with it the claim order and the planner's packing.
 */
std::vector<CellGroup> groupCells(std::span<const GridCellInfo> plan,
                                  std::span<const size_t> cells);

/**
 * One named configuration axis of a declarative sweep: a label, one
 * printable label per value, and one RunConfig mutator per value.
 * Build axes with the axis() helpers below.
 */
struct SweepAxis
{
    /** Axis name, e.g. "rows" (part of the sweep's identity). */
    std::string label;

    /** Printable value labels in sweep order, e.g. {"4", "8"}. */
    std::vector<std::string> values;

    /** One config mutator per value, applied to a copy of the base
     * RunConfig when the variant is materialised. */
    std::vector<std::function<void(RunConfig &)>> apply;

    size_t size() const { return values.size(); }
};

/** Label for an axis value: strings pass through, bools print on/off,
 * arithmetic values go through std::to_string. */
inline std::string axisValueLabel(const std::string &v) { return v; }
inline std::string axisValueLabel(const char *v) { return v; }
inline std::string axisValueLabel(bool v) { return v ? "on" : "off"; }
template <typename T>
std::string
axisValueLabel(T v)
{
    return std::to_string(v);
}

/**
 * Declare one sweep axis from a value list and a mutator:
 *
 *   axis("rows", {1, 2, 4, 8, 16},
 *        [](RunConfig &c, int rows) { c.accel.tile.rows = rows; })
 */
template <typename T, typename Fn>
SweepAxis
axis(std::string label, const std::vector<T> &values, Fn apply)
{
    SweepAxis a;
    a.label = std::move(label);
    for (const T &v : values) {
        a.values.push_back(axisValueLabel(v));
        a.apply.push_back([apply, v](RunConfig &cfg) { apply(cfg, v); });
    }
    return a;
}

template <typename T, typename Fn>
SweepAxis
axis(std::string label, std::initializer_list<T> values, Fn apply)
{
    return axis(std::move(label), std::vector<T>(values),
                std::move(apply));
}

/** One explicitly labelled axis option (non-numeric design points). */
using AxisOption =
    std::pair<std::string, std::function<void(RunConfig &)>>;

/**
 * Declare one sweep axis from explicitly labelled options:
 *
 *   axis("interconnect",
 *        {{"dense-only", [](RunConfig &c) { ... }},
 *         {"crossbar",   [](RunConfig &c) { ... }}})
 */
SweepAxis axis(std::string label, std::vector<AxisOption> options);

/**
 * The workload-phase axis ("phase" = training, inference): sweeps the
 * same grid forward-only next to full training.  Because cells are
 * keyed per op, the inference variant's Forward cells are the training
 * variant's — within one sweep they simulate once, and against a cache
 * dir a prior training sweep warms them entirely.
 */
SweepAxis phaseAxis();

/**
 * A batch-size axis ("batch" = the given sizes): sweeps every model
 * at the listed effective batch sizes via RunConfig::batch_override.
 * The serving-regime companion to phaseAxis() — e.g. batchAxis({1, 4,
 * 16, 64}) next to phase=inference walks the FC-dominated models
 * through online-to-bulk serving batches.  Cells at different
 * effective batches carry different TaskKeys, so widening the axis
 * re-simulates only its new values.
 */
SweepAxis batchAxis(std::vector<int> batches);

/**
 * Declarative description of one experiment sweep: which models, at
 * which training points, across which configuration axes.  The engine
 * expands the cross product of the axes into config variants (first
 * axis slowest-varying; no axes = the base config alone) and runs the
 * whole (variant x model x progress x layer) grid as one batch —
 * cached, shardable, and claimed costliest-first across every axis
 * point.  Synthesized tensors are shared only inside one sweep, so
 * design points that read the same workload belong on one spec's
 * axes, not in separate runs.
 */
struct SweepSpec
{
    /** Workload profiles to simulate. */
    std::vector<ModelProfile> models;

    /** Training points; empty = the runner's configured progress. */
    std::vector<double> progress_points;

    /**
     * Configuration axes, crossed.  Mutators run against a copy of the
     * runner's RunConfig and may change anything that affects what is
     * simulated (accel geometry, DRAM timing, seed, ...); execution
     * knobs (threads, cache, cache_dir) and the progress points are
     * taken from the runner/spec and ignored if mutated.
     */
    std::vector<SweepAxis> axes;

    /**
     * Optional custom workload synthesis, replacing the zoo's
     * synthesize for every cell: receives the variant's RunConfig, the
     * model, the layer index and the progress point.  It MUST be a
     * pure function of those arguments plus constants identified by
     * synthesis_salt — the salt is the hook's content id inside every
     * TaskKey, so two specs may share cached results only when hook
     * and salt agree.  Setting a hook requires a non-zero salt.
     *
     * Caching contract: besides the salt, a cell's key covers the
     * model's *fingerprinted* identity — batch, sparsity profile, the
     * layer's shape and index, and (custom hooks only) the model
     * name, since a hook may seed off it.  A hook must not depend on
     * anything else (descriptions, layer names, sibling layers), or
     * equal keys could describe different tensors.  Of its RunConfig
     * argument a hook may read only the seed and the batch override:
     * one task serves every slot of a SynthKey (see
     * core/synth_cache.hh) from a single call, so a hook that read
     * accelerator geometry, the memory model, the fidelity tier or the
     * phase would hand N variants tensors only one of them asked for.
     */
    using SynthesizeFn = std::function<LayerTensors(
        const RunConfig &, const ModelProfile &, size_t, double)>;
    SynthesizeFn synthesize;
    uint64_t synthesis_salt = 0;

    /**
     * Size compressed write-back traffic from the inputs' measured
     * sparsity (the model-suite default).  false writes back dense
     * (out_sparsity 0), as the raw-tensor benches assume.
     */
    bool estimate_out_sparsity = true;

    /** Config variants in the expanded cross product (1 with no
     * axes). */
    size_t variantCount() const;

    /** Label of variant @p v, e.g. "rows=8" or "rows=8,tiles=4" ("" for
     * the no-axes base variant). */
    std::string variantLabel(size_t v) const;

    /** Materialise variant @p v: @p base with the variant's axis
     * mutators applied (first axis slowest-varying). */
    RunConfig variantConfig(const RunConfig &base, size_t v) const;

    /** Panic on a malformed spec (no models, an empty axis, a
     * label/mutator count mismatch, or a hook without a salt). */
    void validate() const;
};

/** Aggregated result of simulating one model. */
struct ModelRunResult
{
    std::string model;

    /** Memory model the run was simulated under. */
    MemoryModel memory_model = MemoryModel::Pipelined;

    /** Per-op aggregates in the phase's op order (Training: AxW, AxG,
     * WxG; Inference: AxW only). */
    std::vector<OpResult> ops = std::vector<OpResult>(3);

    /** The phase's ops merged. */
    OpResult total;

    /** Energy over the whole run. */
    EnergyBreakdown energy_base;
    EnergyBreakdown energy_td;

    double speedup() const { return total.speedup(); }

    /** Aggregate for @p op, or nullptr when the phase doesn't run it. */
    const OpResult *
    findOp(TrainOp op) const
    {
        for (const OpResult &r : ops)
            if (r.op == op)
                return &r;
        return nullptr;
    }

    double
    opSpeedup(TrainOp op) const
    {
        const OpResult *r = findOp(op);
        return r ? r->speedup() : 1.0;
    }

    double
    opPotential(TrainOp op) const
    {
        const OpResult *r = findOp(op);
        return r ? r->potentialSpeedup() : 1.0;
    }

    double totalPotential() const { return total.potentialSpeedup(); }

    /**
     * Fraction of the whole run's TensorDash cycles stalled on
     * off-chip bandwidth (0 under the Analytic memory model).
     */
    double
    memoryStallFraction() const
    {
        return total.memoryStallFraction();
    }

    /** True when any layer's steady state was DRAM-limited. */
    bool memoryBound() const { return total.memory_bound; }

    /** Compute-logic energy efficiency (paper Fig. 15 "core"). */
    double
    coreEfficiency() const
    {
        return energy_td.core_j > 0.0
            ? energy_base.core_j / energy_td.core_j : 1.0;
    }

    /** Whole-system energy efficiency (paper Fig. 15 "overall"). */
    double
    overallEfficiency() const
    {
        return energy_td.total() > 0.0
            ? energy_base.total() / energy_td.total() : 1.0;
    }
};

/**
 * Aggregated results of a batch sweep: a (config variant x model x
 * progress point) grid of ModelRunResults from one runSweep() or
 * runMany() call.  A single-variant sweep (runMany) has one variant
 * labelled "" and the variant coordinate defaults to 0 everywhere.
 *
 * A SweepResult also carries the raw per-layer task grid it was
 * reduced from, so a shard's partial sweep can serialize(), travel to
 * another process, and merge() with its siblings; once every grid cell
 * is present the model-level results are re-reduced in the same serial
 * (layer, op) order a single-process run uses, making the merged
 * output bit-identical to an unsharded one.
 */
struct SweepResult
{
    /** Variant labels in grid order ({""} for a plain runMany). */
    std::vector<std::string> variants;

    /** Memory model each variant was simulated under (an axis may
     * flip it per variant). */
    std::vector<MemoryModel> variant_memory_models;

    /** Workload phase each variant runs (phaseAxis() may flip it per
     * variant); decides how many op cells its layer slots hold. */
    std::vector<WorkloadPhase> variant_phases;

    /** Model names, in the order they were passed. */
    std::vector<std::string> models;

    /** Layers per model (the task-grid layout, shared by every
     * variant). */
    std::vector<uint32_t> model_layer_counts;

    /** Progress points simulated for every (variant, model). */
    std::vector<double> progress_points;

    /**
     * Content hash of the whole task grid (format version, variant
     * labels, models, points, every TaskKey).  Two sweeps merge only
     * when their fingerprints match, which guarantees they describe
     * the same simulations under the same configurations.
     */
    uint64_t fingerprint = 0;

    /** Raw per-layer task results in serial grid order (the unit of
     * sharding/caching); present[slot] is an op-cell bitmask (bit j =
     * the slot's j-th phase op) marking the cells this sweep holds —
     * a shard that owns individual op cells of a giant layer carries
     * a partial mask until merge() reunites the slot. */
    std::vector<LayerResult> layer_results;
    std::vector<uint8_t> present;

    /** Op cells served from the ResultStore vs actually simulated.  A
     * fully warm cache shows simulated == 0; an inference sweep over a
     * grid whose training twin already ran shows exactly that. */
    size_t cache_hits = 0;
    size_t simulated = 0;

    /** Op cells served by the closed-form estimator (Estimate-tier
     * variants only).  An estimate-tier run of any size shows
     * simulated == 0: it never touches the exact simulator. */
    size_t estimated = 0;

    /** Variant-major grid:
     * results[(v * modelCount() + m) * pointCount() + p].  Populated
     * only when complete(). */
    std::vector<ModelRunResult> results;

    size_t variantCount() const { return variants.size(); }
    size_t modelCount() const { return models.size(); }
    size_t pointCount() const { return progress_points.size(); }
    size_t taskCount() const { return layer_results.size(); }

    /** Phase of variant @p v (Training for pre-phase sweeps). */
    WorkloadPhase
    variantPhase(size_t v) const
    {
        return v < variant_phases.size() ? variant_phases[v]
                                         : WorkloadPhase::Training;
    }

    /** Total op cells across the grid (layer slots x their variant's
     * op count) — the denominator cache_hits/simulated split. */
    size_t cellCount() const;

    /** Layer slots of one variant (layer slots x progress points) —
     * the stride mapping a slot index to its variant. */
    size_t slotsPerVariant() const;

    /** Full present mask of @p slot: one bit per op cell its
     * variant's phase runs. */
    uint8_t slotFullMask(size_t slot) const;

    /** Grid slots this sweep holds *completely* (full op mask). */
    size_t presentCount() const;

    /** Individual op cells this sweep holds (counts partial slots). */
    size_t presentCellCount() const;

    /** True when every task of the grid is fully present. */
    bool complete() const;

    /** Result for one (model, progress point, config variant) cell. */
    const ModelRunResult &at(size_t model, size_t point = 0,
                             size_t variant = 0) const;

    /** Per-model speedups at one (point, variant), in model order. */
    std::vector<double> speedups(size_t point = 0,
                                 size_t variant = 0) const;

    /** Arithmetic-mean speedup across models at one (point,
     * variant). */
    double meanSpeedup(size_t point = 0, size_t variant = 0) const;

    /** Geometric-mean speedup across models at one (point,
     * variant). */
    double geomeanSpeedup(size_t point = 0, size_t variant = 0) const;

    /**
     * Fold @p other's grid cells into this sweep.  Both must carry the
     * same fingerprint (same variants, models, points, configurations
     * and task keys); overlapping cells keep this sweep's copy (they
     * are bit-identical by construction).  Once the union covers the
     * whole grid, the model-level results are re-reduced.
     */
    void merge(const SweepResult &other);

    /** Versioned binary serialization of the sweep (shard files). */
    std::vector<uint8_t> serialize() const;

    /** Parse a serialize()d sweep; false on bad magic/version, a
     * truncated or corrupt buffer, or an out-of-range enum byte
     * (memory model, phase, op). */
    static bool deserialize(const std::vector<uint8_t> &bytes,
                            SweepResult *out);

    /**
     * Rebuild the model-level results from the per-layer grid, merging
     * in serial (layer, op) order — the single reduce path shared by
     * direct runs, cache hits and cross-shard merges, which is what
     * makes all three bit-identical.  Requires complete().
     */
    void reduce();
};

/** Drives whole-model simulations. */
class ModelRunner
{
  public:
    explicit ModelRunner(const RunConfig &config) : config_(config) {}

    const RunConfig &config() const { return config_; }

    /** Simulate every layer of @p model at the configured progress. */
    ModelRunResult run(const ModelProfile &model) const;

    /** Convenience: run a zoo model by name. */
    ModelRunResult runByName(const std::string &name) const;

    /**
     * Declarative sweep API: expand @p spec's config axes against this
     * runner's RunConfig and simulate the whole (variant x model x
     * progress x layer) grid in one parallel batch — every
     * axis point interleaves in one costliest-first claim loop, every
     * cell consults the result cache, and the grid shards as a unit.
     *
     * @param spec  models, progress points and config axes
     * @param shard grid partition to simulate (default: the whole
     *              grid): the planSweep() cells of every group it
     *              owns().  A partial shard's sweep has no model-level
     *              results until merge()d with its siblings.
     * @param hooks optional progress callback and cancellation flag
     *              (execution-only; see RunHooks)
     * @return variant-major SweepResult; each cell is bit-identical to
     *         a single-variant run of its effective config at any
     *         thread count, shard split, or cache state
     */
    SweepResult runSweep(const SweepSpec &spec, Shard shard = {},
                         const RunHooks &hooks = {}) const;

    /**
     * Planning view of the task grid @p spec expands to under this
     * runner's config: every (variant x model x progress x layer x op)
     * cell in serial order — its grid slot and synthesis group,
     * TaskKey, SynthKey and closed-form costs — without simulating
     * anything.  Entry i has cell == i, and hashing the plan's keys
     * reproduces sweepFingerprint(spec) exactly: the plan and the
     * execution describe one and the same grid.  This is what the
     * sweep service's shard planner sizes worker shards from.
     */
    std::vector<GridCellInfo> planSweep(const SweepSpec &spec) const;

    /**
     * Simulate exactly the op cells named by @p cells (global serial
     * cell indices from planSweep()) of @p spec's grid, letting a
     * scheduler place individual op cells of a giant layer on
     * different workers.  runSweep() runs the same path with the cells
     * its Shard owns, so runSweep(spec, shard) and runSweepCells() of
     * that shard's cells serialize identically.  The returned sweep
     * carries the full grid's fingerprint with only the named cells
     * present (an empty @p cells yields an all-absent shell to merge()
     * worker shards into); merging any cell-disjoint cover of the grid
     * is bit-identical to one unsharded runSweep().
     */
    SweepResult runSweepCells(const SweepSpec &spec,
                              std::span<const size_t> cells,
                              const RunHooks &hooks = {}) const;

    /**
     * Fingerprint of the task grid @p spec expands to under this
     * runner's config, computed without simulating anything (key
     * hashing only) — always equal to runSweep(spec).fingerprint.
     * The bench merge driver checks shard files against it, so
     * feeding a figure shards produced by a different figure or
     * configuration fails with a diagnostic instead of rendering
     * garbage.
     */
    uint64_t sweepFingerprint(const SweepSpec &spec) const;

    /**
     * Batch API: runSweep() of a SweepSpec with no axes — every model
     * at every progress point under this runner's config alone.  An
     * empty @p models panics, as an empty SweepSpec does.
     *
     * @param models          workload profiles to simulate
     * @param progress_points training points; empty = the configured
     *                        progress.  All points use the configured
     *                        seed, so cells differ only in progress.
     * @param shard           grid partition to simulate
     * @return model-major SweepResult with one variant labelled ""
     */
    SweepResult runMany(std::span<const ModelProfile> models,
                        std::span<const double> progress_points = {},
                        Shard shard = {}) const;

    /**
     * Triage-and-refine: given @p estimates — a completed
     * Fidelity::Estimate run of @p spec under this runner's config —
     * re-run *exactly* the models whose estimated TensorDash speedup
     * falls inside [@p lo, @p hi] at any (progress point, variant).
     * Models outside the band (clearly uninteresting, or so clearly
     * winning that an exact number changes nothing) are skipped
     * entirely; the returned sweep covers the in-band subset of
     * models under the same axes and points at Fidelity::Exact.
     * Returns an empty SweepResult when no model lands in the band.
     */
    SweepResult refine(const SweepSpec &spec,
                       const SweepResult &estimates, double lo,
                       double hi) const;

  private:
    RunConfig config_;
};

} // namespace tensordash

#endif // TENSORDASH_CORE_RUNNER_HH_
