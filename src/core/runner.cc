#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "core/result_store.hh"
#include "core/synth_cache.hh"
#include "sim/estimator.hh"

namespace tensordash {

namespace {

/** Sweep-file header magic ("TDSW" little-endian). */
constexpr uint32_t kSweepMagic = 0x57534454;

/**
 * Key salt of Fidelity::Estimate cells ("est1" little-endian).  Mixed
 * into every estimate-tier TaskKey next to kEstimatorVersion, so
 * estimates are content addressed in their own namespace: they can
 * never shadow an exact result, and recalibrating the estimator
 * invalidates cached estimates alone.
 */
constexpr uint64_t kEstimateKeySalt = 0x31747365;

/**
 * Upper bound on a sweep's expanded config variants: far above any
 * real design-space figure (the paper's largest axis has six points),
 * and low enough that a typo'd axis cannot allocate a giant grid.
 */
constexpr size_t kMaxVariants = 1 << 20;

// SweepResult::present packs one bit per phase op into a byte.
static_assert(kMaxPhaseOps <= 8,
              "present masks hold at most 8 op cells per slot");

/**
 * One fully expanded sweep grid: the spec's models and synthesis hook
 * (borrowed), plus the resolved progress points and one effective
 * RunConfig and label per config variant (owned).  Every entry point
 * builds one; the units of a GridEnumeration point into its configs,
 * so a Grid must outlive every enumeration made from it.
 */
struct Grid
{
    const SweepSpec &spec;
    std::vector<double> points;
    std::vector<RunConfig> configs;
    std::vector<std::string> labels;

    Grid(const SweepSpec &s, const RunConfig &base) : spec(s)
    {
        spec.validate();
        points = spec.progress_points.empty()
            ? std::vector<double>{base.progress}
            : spec.progress_points;
        const size_t nvariants = spec.variantCount();
        configs.reserve(nvariants);
        labels.reserve(nvariants);
        for (size_t v = 0; v < nvariants; ++v) {
            configs.push_back(spec.variantConfig(base, v));
            labels.push_back(spec.variantLabel(v));
        }
    }
};

/**
 * One (variant, model, progress) cell of a sweep.  The per-layer
 * synthesis streams (forked serially so synthesis is
 * order-independent) are owned per (variant, model) — an axis may
 * change the seed — and shared by all of that pair's progress points.
 */
struct SweepUnit
{
    const ModelProfile *model = nullptr;
    const RunConfig *config = nullptr; ///< the variant's effective config
    double progress = 0.0;
    const std::vector<Rng> *layer_rngs = nullptr;
};

/**
 * One layer slot of the serial (unit, layer) grid: where a layer's op
 * cells land.  Slots whose cells read one SynthKey run as one task
 * (see runGrid).
 */
struct LayerSlot
{
    size_t unit;
    size_t layer;

    /** Index of this layer's first op cell in the enumeration's cell
     * list (variants can differ in op count, so cell offsets are not a
     * multiple of the slot). */
    size_t first_cell;
};

/** Synthesis volume of one layer's tensors (elements of acts +
 * weights + grads) — the work a task pays once if any cell misses. */
double
synthesisCost(const LayerSpec &layer, int batch)
{
    double hw = (double)layer.in_hw * (double)layer.in_hw;
    double ohw = (double)layer.outHw() * (double)layer.outHw();
    return (double)batch * (double)layer.in_c * hw +
           (double)layer.out_c * (double)layer.in_c *
               (double)layer.kernel * (double)layer.kernel +
           (double)batch * (double)layer.out_c * ohw;
}

/** Synthesize one layer's tensors: the sweep's hook if it has one,
 * else the zoo from a private copy of the layer's stream. */
LayerTensors
synthesizeLayer(const SweepSpec &spec, const SweepUnit &unit,
                size_t layer)
{
    if (spec.synthesize)
        return spec.synthesize(*unit.config, *unit.model, layer,
                               unit.progress);
    Rng layer_rng = (*unit.layer_rngs)[layer];
    return ModelZoo::synthesize(*unit.model, unit.model->layers[layer],
                                unit.progress, layer_rng);
}

/** One op's tile-array half, kept by a group task for its later
 * slots under the same AcceleratorConfig::arrayConfig(). */
struct GroupArrayRun
{
    uint64_t array_fingerprint;
    TrainOp op;
    ArrayRun run;
};

/**
 * Simulate the missing op cells of one layer slot on a private
 * Accelerator: (observe + freeze the gating table) -> lower ->
 * simulate each op whose bit is set in @p missing.  Depends only on
 * the variant's config, the unit and the layer's tensors @p st —
 * everything the TaskKey fingerprints — so slots run in any order on
 * any thread and results memoise exactly, per cell.
 *
 * The lowering and tile runs of an op are looked up in @p arrays, the
 * group task's earlier array runs, by (arrayConfig() fingerprint, op)
 * and run only on a miss; each cell then finishes under its own
 * variant's tile count and memory model.  So a tile-count axis lowers
 * and runs each op once per layer.
 *
 * The observe phase lives inside the slot: gating decisions depend
 * only on the layer's own measured zero fractions (the serial driver
 * overwrote its per-operand counters each layer), so the frozen table
 * of section 3.5 is a pure function of the layer's tensors, and no
 * cross-layer mutable state remains.  Crucially none of this depends
 * on *which* cells missed: a cell simulated to fill an inference
 * sweep's gap is bit-identical to the one a full training run
 * produces.
 */
void
simulateSlotOps(const SweepSpec &spec, const SweepUnit &unit,
                const SynthTensors &st, std::span<const TrainOp> ops,
                uint32_t missing, std::vector<GroupArrayRun> *arrays,
                LayerResult *out)
{
    const RunConfig &config = *unit.config;
    AcceleratorConfig accel_cfg = config.accel;
    accel_cfg.wg_side = unit.model->wg_side;
    Accelerator accel(accel_cfg);

    const LayerTensors &t = st.tensors;
    if (config.accel.power_gating) {
        // Observe -> freeze: decisions are immutable before any op of
        // this layer simulates.
        GateObservations obs;
        obs.sparsity["acts"] = st.act_sparsity;
        obs.sparsity["grads"] = st.grad_sparsity;
        obs.sparsity["weights"] = st.weight_sparsity;
        accel.powerGate().freezeFrom(obs);
    }
    // Output write-back sparsity estimates, indexed by TrainOp: O
    // looks like this model's activations, GA like its gradients, GW
    // is dense.  Raw-tensor sweeps (estimate_out_sparsity false) write
    // back dense instead.
    double out_sparsity[3] = {0.0, 0.0, 0.0};
    if (spec.estimate_out_sparsity) {
        out_sparsity[(int)TrainOp::Forward] = st.act_sparsity;
        out_sparsity[(int)TrainOp::BackwardData] = st.grad_sparsity;
    }
    const uint64_t array_fp = accel_cfg.arrayConfig().fingerprint();
    SynthCache &counts = SynthCache::shared();
    for (size_t j = 0; j < ops.size(); ++j) {
        if (!(missing & (1u << j)))
            continue;
        TrainOp op = ops[j];
        const GroupArrayRun *shared = nullptr;
        for (const GroupArrayRun &a : *arrays)
            if (a.array_fingerprint == array_fp && a.op == op)
                shared = &a;
        if (shared) {
            counts.countArrayReuse();
        } else {
            arrays->push_back({array_fp, op,
                               accel.runArray(op, t.acts, t.weights,
                                              t.grads, t.spec,
                                              st.nonzeros)});
            shared = &arrays->back();
            counts.countArrayRun();
        }
        OpCellResult &cell = out->cells[j];
        cell.op = accel.finishOp(shared->run, out_sparsity[(int)op]);
        cell.energy_base = accel.energy(cell.op, false);
        cell.energy_td = accel.energy(cell.op, true);
    }
}

/**
 * Estimate the missing op cells of one layer: the Fidelity::Estimate
 * twin of simulateSlotOps.  Pure closed form — no tensors are
 * synthesised and no MAC is scheduled; the expected synthesis targets
 * (effectiveCellSparsity) stand in for measured sparsities, including
 * the write-back estimate the exact path measures.  Like its twin it
 * depends only on the variant's config and the unit, so estimate
 * cells memoise per TaskKey exactly the same way.
 */
void
estimateSlotOps(const SweepSpec &spec, const SweepUnit &unit,
                size_t layer_index, std::span<const TrainOp> ops,
                uint32_t missing, LayerResult *out)
{
    const ModelProfile &model = *unit.model;
    AcceleratorConfig accel_cfg = unit.config->accel;
    accel_cfg.wg_side = model.wg_side;
    OpEstimator est(accel_cfg);
    CellSparsity sp =
        effectiveCellSparsity(model, layer_index, unit.progress);
    double out_sparsity[3] = {0.0, 0.0, 0.0};
    if (spec.estimate_out_sparsity) {
        out_sparsity[(int)TrainOp::Forward] = sp.act;
        out_sparsity[(int)TrainOp::BackwardData] = sp.grad;
    }
    const LayerSpec &layer = model.layers[layer_index];
    for (size_t j = 0; j < ops.size(); ++j) {
        if (!(missing & (1u << j)))
            continue;
        OpEstimate e = est.estimateOp(layer, model.batch, ops[j], sp,
                                      out_sparsity[(int)ops[j]]);
        out->cells[j] = OpCellResult{e.op, e.energy_base, e.energy_td};
    }
}

/**
 * Fully enumerated task grid: the serial layout pass shared by
 * execution (runGrid), planning (ModelRunner::planSweep) and
 * fingerprinting.  Owns the storage its SweepUnits point into (forked
 * Rng streams and batch-overridden model copies), so units must not
 * outlive it; they also point into the Grid's configs, so neither may
 * the Grid.
 */
struct GridEnumeration
{
    std::vector<std::vector<Rng>> grid_rngs;
    std::vector<ModelProfile> batch_models;
    std::vector<SweepUnit> units;

    /** Every layer slot, in serial slot order. */
    std::vector<LayerSlot> slots;

    /** Every op cell in serial order (cells[i].cell == i): the plan
     * planSweep() returns, with its costs filled by priceGrid(). */
    std::vector<GridCellInfo> cells;
};

/**
 * Lay out the (variant x model x progress x layer) task grid and
 * fingerprint every (layer, op) cell under its variant's effective
 * config and phase.  Keys are computed serially up front: they are
 * cheap relative to simulation and the sweep fingerprint needs every
 * one.  Costs stay 0 until priceGrid().
 */
GridEnumeration
enumerateGrid(const Grid &grid)
{
    GridEnumeration e;
    const std::vector<ModelProfile> &models = grid.spec.models;

    // Full structural validation (positive shapes, well-formed output
    // geometry), not just non-emptiness: a bad layer spec fails here
    // with its model and layer named instead of deep in synthesis or
    // lowering.
    for (const ModelProfile &model : models)
        model.validate();

    // Fork the per-layer streams in serial layer order, which makes
    // synthesis independent of task execution order.  One vector per
    // (variant, model): an axis may move the seed, and every variant's
    // streams must match what a single-variant run of its config
    // forks.
    e.grid_rngs.reserve(grid.configs.size() * models.size());
    for (const RunConfig &config : grid.configs) {
        for (const ModelProfile &model : models) {
            Rng rng(config.seed * 0x2545f4914f6cdd1dull + 1);
            std::vector<Rng> layer_rngs;
            layer_rngs.reserve(model.layers.size());
            for (size_t l = 0; l < model.layers.size(); ++l)
                layer_rngs.push_back(rng.fork());
            e.grid_rngs.push_back(std::move(layer_rngs));
        }
    }

    // Materialise effective models where a variant overrides the
    // batch: synthesis, claim costs and simulation must all see the
    // effective batch (TaskKey derives it from the config on its
    // own).  Storage is reserved exactly, so the units' model
    // pointers stay valid as it fills.
    size_t overridden = 0;
    for (const RunConfig &config : grid.configs)
        if (config.batch_override > 0)
            for (const ModelProfile &model : models)
                overridden += config.batch_override != model.batch;
    e.batch_models.reserve(overridden);

    const uint64_t salt = grid.spec.synthesis_salt;
    std::unordered_map<uint64_t, size_t> group_index; // synth_key -> group
    for (size_t v = 0; v < grid.configs.size(); ++v) {
        const RunConfig &config = grid.configs[v];
        std::span<const TrainOp> ops = phaseOps(config.phase);
        for (size_t m = 0; m < models.size(); ++m) {
            const ModelProfile *model = &models[m];
            if (config.batch_override > 0 &&
                config.batch_override != model->batch) {
                e.batch_models.push_back(*model);
                e.batch_models.back().batch = config.batch_override;
                model = &e.batch_models.back();
            }
            for (double progress : grid.points) {
                SweepUnit unit;
                unit.model = model;
                unit.config = &config;
                unit.progress = progress;
                unit.layer_rngs = &e.grid_rngs[v * models.size() + m];
                for (size_t l = 0; l < model->layers.size(); ++l) {
                    const size_t slot = e.slots.size();
                    e.slots.push_back({e.units.size(), l, e.cells.size()});
                    const uint64_t skey =
                        SynthKey::forCell(config, models[m], l,
                                          progress, salt)
                            .value;
                    const size_t group =
                        group_index.try_emplace(skey, group_index.size())
                            .first->second;
                    for (size_t j = 0; j < ops.size(); ++j) {
                        GridCellInfo c;
                        c.slot = slot;
                        c.group = group;
                        c.op_index = (uint32_t)j;
                        c.cell = e.cells.size();
                        c.key = TaskKey::forOp(
                            config, models[m], l, ops[j], progress, salt,
                            grid.spec.estimate_out_sparsity);
                        c.synth_key = skey;
                        e.cells.push_back(c);
                    }
                }
                e.units.push_back(unit);
            }
        }
    }
    return e;
}

/** Fill every cell's est_cost and synth_cost; groupCells() charges
 * the synthesis once per group. */
void
priceGrid(GridEnumeration *e)
{
    for (const LayerSlot &slot : e->slots) {
        const SweepUnit &unit = e->units[slot.unit];
        const ModelProfile &model = *unit.model;
        const LayerSpec &layer = model.layers[slot.layer];
        std::span<const TrainOp> ops = phaseOps(unit.config->phase);
        GridCellInfo *cells = &e->cells[slot.first_cell];
        const bool estimate =
            unit.config->fidelity == Fidelity::Estimate;
        AcceleratorConfig accel_cfg = unit.config->accel;
        accel_cfg.wg_side = model.wg_side;
        CellSparsity sp =
            effectiveCellSparsity(model, slot.layer, unit.progress);
        // Estimate-tier slots never synthesize.
        const double synth =
            estimate ? 0.0 : synthesisCost(layer, model.batch);
        for (size_t j = 0; j < ops.size(); ++j) {
            // An estimate cell costs one closed-form evaluation
            // whatever its layer, about as much as pricing its
            // simulation would: it gets a unit cost instead.
            cells[j].est_cost = estimate
                ? 1.0
                : OpEstimator::estimateSimCost(accel_cfg, layer,
                                               model.batch, ops[j], sp);
            cells[j].synth_cost = synth;
        }
    }
}

/** Enumerate and price @p grid: everything a run or a plan needs. */
GridEnumeration
planGrid(const Grid &grid)
{
    GridEnumeration e = enumerateGrid(grid);
    priceGrid(&e);
    return e;
}

/**
 * Content hash of one task grid: format version, variant labels,
 * model names/layer counts, progress points, and every cell's TaskKey
 * in serial (variant, model, progress, layer, op) order.  Shards merge
 * only when their fingerprints match, and the bench merge driver
 * checks loaded shard files against the expected grid's fingerprint.
 * A variant's phase shapes the fingerprint through its cell keys (an
 * inference variant contributes Forward keys only), so a training and
 * an inference sweep never merge even though they share cells.
 */
uint64_t
gridFingerprint(const Grid &grid, const GridEnumeration &e)
{
    FnvHasher fh;
    fh.u64(kResultFormatVersion);
    for (const std::string &label : grid.labels)
        fh.str(label);
    for (const ModelProfile &model : grid.spec.models) {
        fh.str(model.name);
        fh.u64(model.layers.size());
    }
    for (double p : grid.points)
        fh.f64(p);
    for (const GridCellInfo &c : e.cells)
        fh.u64(c.key.value);
    return fh.value();
}

/**
 * Simulate the op cells @p cells (global serial cell indices) of one
 * enumerated and priced grid: the one execution path behind
 * runSweep(), runSweepCells() and runMany().  @p exec supplies the
 * execution knobs (threads, cache, cache_dir); what is simulated comes
 * entirely from @p grid's per-variant configs.
 */
SweepResult
runGrid(const RunConfig &exec, const Grid &grid, const GridEnumeration &e,
        std::span<const size_t> cells, const RunHooks &hooks)
{
    // A negative thread count would silently mean the default inside
    // parallelFor; reject it here where the request was made.
    TD_ASSERT(exec.threads >= 0,
              "RunConfig::threads must be >= 0 (0 = the default), got "
              "%d", exec.threads);
    for (const RunConfig &config : grid.configs)
        TD_ASSERT(config.fidelity == Fidelity::Exact ||
                      !grid.spec.synthesize,
                  "Fidelity::Estimate models the zoo's synthesis "
                  "statistically and cannot honour a custom "
                  "synthesize hook; run this sweep at "
                  "Fidelity::Exact");

    SweepResult sweep;
    sweep.progress_points = grid.points;
    sweep.variants = grid.labels;
    for (const RunConfig &config : grid.configs) {
        sweep.variant_memory_models.push_back(config.accel.memory_model);
        sweep.variant_phases.push_back(config.phase);
    }
    for (const ModelProfile &model : grid.spec.models) {
        sweep.models.push_back(model.name);
        sweep.model_layer_counts.push_back(
            (uint32_t)model.layers.size());
    }

    // The sweep fingerprint pins the whole grid: shards merge only
    // when variants, models, points and every task key agree.
    sweep.fingerprint = gridFingerprint(grid, e);

    const size_t nslots = e.slots.size();
    sweep.layer_results.resize(nslots);
    sweep.present.assign(nslots, 0);

    // Fold the owned op cells into per-slot masks (the sweep service's
    // planner may scatter a giant layer's cells across runs), then
    // list them back in serial order, each once, whatever order the
    // caller passed.
    std::vector<uint8_t> own_mask(nslots, 0);
    for (size_t c : cells) {
        TD_ASSERT(c < e.cells.size(),
                  "owned cell %zu out of range (grid has %zu op cells)",
                  c, e.cells.size());
        own_mask[e.cells[c].slot] |=
            (uint8_t)(1u << e.cells[c].op_index);
    }
    std::vector<size_t> owned;
    for (const GridCellInfo &c : e.cells)
        if ((own_mask[c.slot] >> c.op_index) & 1u)
            owned.push_back(c.cell);
    const size_t owned_slots =
        nslots - (size_t)std::count(own_mask.begin(), own_mask.end(), 0);

    // One task per synthesized layer: the owned cells of one group (a
    // layer's geometry variants and both of its phases).  A task
    // synthesizes at most once and frees the tensors when it returns,
    // so a sweep holds one layer per running task.  Groups are claimed
    // costliest-first so a huge layer picked up late cannot leave the
    // sweep tailing on one thread; results land in pre-assigned slots
    // and the reduce walks serial order, so neither the ownership
    // split nor the claim order ever affects the output.
    std::vector<CellGroup> groups = groupCells(e.cells, owned);
    std::stable_sort(groups.begin(), groups.end(),
                     [](const CellGroup &a, const CellGroup &b) {
                         return a.cost > b.cost;
                     });

    ResultStore *store = exec.cache ? &ResultStore::shared() : nullptr;
    const std::string cache_dir =
        store ? ResultStore::resolveDir(exec.cache_dir) : "";

    // Each op cell consults the result store independently — a layer
    // whose Forward cell is warm (say, from a training sweep feeding
    // this inference one) synthesizes and simulates only the cells
    // that missed, and a fully warm group never materialises its
    // tensors at all.
    SynthCache &synth_cache = SynthCache::shared();
    std::atomic<size_t> cache_hits{0};
    std::atomic<size_t> simulated{0};
    std::atomic<size_t> estimated{0};
    std::mutex hook_mu;
    size_t done_slots = 0; ///< guarded by hook_mu
    auto runGroup = [&](size_t g) {
        // The group's tensors, synthesized on its first exact miss, and
        // its array runs, which later slots finish instead of rerunning.
        std::shared_ptr<const SynthTensors> tensors;
        std::vector<GroupArrayRun> arrays;
        size_t prev = nslots;
        for (size_t c : groups[g].cells) {
            // One visit per slot: a slot's owned cells are adjacent.
            const size_t s = e.cells[c].slot;
            if (s == prev)
                continue;
            prev = s;
            // Cancellation drains: a slot already simulating finishes
            // normally (no torn cells), slots not yet started are
            // skipped and stay absent — the partial sweep still
            // serializes and merges like any shard.
            if (hooks.cancel &&
                hooks.cancel->load(std::memory_order_relaxed))
                return;
            const LayerSlot &slot = e.slots[s];
            const SweepUnit &unit = e.units[slot.unit];
            const bool exact =
                unit.config->fidelity == Fidelity::Exact;
            std::span<const TrainOp> ops = phaseOps(unit.config->phase);
            const GridCellInfo *slot_cells = &e.cells[slot.first_cell];
            const uint32_t want = own_mask[s];
            LayerResult &out = sweep.layer_results[s];
            out.cells.resize(ops.size());
            uint32_t missing = 0;
            size_t hits = 0;
            for (size_t j = 0; j < ops.size(); ++j) {
                if (!(want & (1u << j)))
                    continue;
                if (store && store->lookup(slot_cells[j].key,
                                           &out.cells[j], cache_dir))
                    ++hits;
                else
                    missing |= 1u << j;
            }
            if (missing) {
                if (!exact) {
                    estimateSlotOps(grid.spec, unit, slot.layer, ops,
                                    missing, &out);
                } else {
                    if (tensors)
                        synth_cache.countReuse();
                    else
                        tensors = synth_cache.synthesize([&] {
                            return synthesizeLayer(grid.spec, unit,
                                                   slot.layer);
                        });
                    simulateSlotOps(grid.spec, unit, *tensors, ops,
                                    missing, &arrays, &out);
                }
                std::atomic<size_t> &produced =
                    exact ? simulated : estimated;
                for (size_t j = 0; j < ops.size(); ++j) {
                    if (!(missing & (1u << j)))
                        continue;
                    produced.fetch_add(1, std::memory_order_relaxed);
                    if (store)
                        store->insert(slot_cells[j].key, out.cells[j],
                                      cache_dir);
                }
            }
            cache_hits.fetch_add(hits, std::memory_order_relaxed);
            sweep.present[s] = (uint8_t)want;
            if (hooks.progress) {
                // Serialized here so the callback needs no locking;
                // done_slots counts *processed* slots (skipped-by-
                // cancel slots never report).
                std::lock_guard<std::mutex> lock(hook_mu);
                hooks.progress({.done_tasks = ++done_slots,
                                .total_tasks = owned_slots,
                                .cache_hits = cache_hits.load(),
                                .simulated = simulated.load(),
                                .estimated = estimated.load()});
            }
        }
    };
    parallelFor(groups.size(), runGroup, exec.threads);
    // One pack per sweep, written whether the claim loop finished or
    // was cancelled: a drained sweep keeps every cell it simulated.
    if (store)
        store->flush();
    sweep.cache_hits = cache_hits.load();
    sweep.simulated = simulated.load();
    sweep.estimated = estimated.load();

    // Reduce: merge in serial (layer, op) order, making the aggregates
    // bit-identical to a single-threaded, uncached, unsharded run.  A
    // partial shard skips this; its results materialise on merge().
    if (sweep.complete())
        sweep.reduce();
    return sweep;
}

} // namespace

std::vector<CellGroup>
groupCells(std::span<const GridCellInfo> plan,
           std::span<const size_t> cells)
{
    constexpr size_t kNone = std::numeric_limits<size_t>::max();
    std::vector<size_t> position; // group -> its index in out
    std::vector<CellGroup> out;
    for (size_t c : cells) {
        const GridCellInfo &info = plan[c];
        if (info.group >= position.size())
            position.resize(info.group + 1, kNone);
        if (position[info.group] == kNone) {
            position[info.group] = out.size();
            out.emplace_back();
        }
        CellGroup &g = out[position[info.group]];
        g.cells.push_back(c);
        if (info.synth_cost > g.synth_cost) {
            g.cost += info.synth_cost - g.synth_cost;
            g.synth_cost = info.synth_cost;
        }
        g.cost += info.est_cost;
    }
    return out;
}

TaskKey
TaskKey::forOp(const RunConfig &config, const ModelProfile &model,
               size_t layer, TrainOp op, double progress,
               uint64_t synthesis_salt, bool estimate_out_sparsity)
{
    TD_ASSERT(layer < model.layers.size(),
              "layer %zu out of range for model '%s' (%zu layers)",
              layer, model.name.c_str(), model.layers.size());
    FnvHasher h;
    h.u64(kResultFormatVersion);
    // The cell simulates under the model's wg_side override, so the
    // key must fingerprint the *effective* accelerator configuration.
    AcceleratorConfig accel = config.accel;
    accel.wg_side = model.wg_side;
    accel.hashInto(h);
    h.u64(config.seed);
    h.f64(progress);
    // The layer's Rng stream is fork number `layer` of the serially
    // seeded parent, a function of (seed, layer index) alone.
    h.u64(layer);
    // Which op the cell holds.  The workload phase is deliberately NOT
    // hashed: it only selects which cells a sweep runs, so a Forward
    // cell is one and the same under training and inference.
    h.u64((uint64_t)op);
    // The *effective* batch: a run-level override replaces every
    // model's calibrated batch, and cells at different batches are
    // different simulations.
    h.i64(config.batch_override > 0 ? config.batch_override
                                    : model.batch);
    model.sparsity.hashInto(h);
    model.layers[layer].hashInto(h);
    // The sweep's synthesis contract: which generator produced the
    // tensors and how the write-back was sized.  A custom hook (salt
    // != 0) receives the whole ModelProfile and may legitimately
    // derive tensors from the model's identity, so its cells also
    // fingerprint the model name; the zoo path keeps the
    // names-don't-matter property.
    h.u64(synthesis_salt);
    if (synthesis_salt != 0)
        h.str(model.name);
    h.b(estimate_out_sparsity);
    // Estimate-tier cells live in their own key namespace: the salt
    // keeps an estimate from ever shadowing an exact result, and the
    // estimator version invalidates cached estimates (alone) whenever
    // the closed-form model is recalibrated.
    if (config.fidelity == Fidelity::Estimate) {
        h.u64(kEstimateKeySalt);
        h.u64(kEstimatorVersion);
    }
    return TaskKey{h.value()};
}

std::string
TaskKey::hex() const
{
    return FnvHasher::toHex(value);
}

void
OpCellResult::serialize(ByteWriter &w) const
{
    op.serialize(w);
    energy_base.serialize(w);
    energy_td.serialize(w);
}

void
OpCellResult::deserialize(ByteReader &r)
{
    op.deserialize(r);
    energy_base.deserialize(r);
    energy_td.deserialize(r);
}

void
LayerResult::serialize(ByteWriter &w) const
{
    w.u32((uint32_t)cells.size());
    for (const OpCellResult &cell : cells)
        cell.serialize(w);
}

void
LayerResult::deserialize(ByteReader &r)
{
    uint32_t n = r.u32();
    // No phase has more ops than kMaxPhaseOps; a larger count is
    // corruption and must not drive the resize below.
    if (n > kMaxPhaseOps) {
        r.fail();
        return;
    }
    cells.resize(n);
    for (OpCellResult &cell : cells)
        cell.deserialize(r);
}

SweepAxis
axis(std::string label, std::vector<AxisOption> options)
{
    SweepAxis a;
    a.label = std::move(label);
    for (AxisOption &o : options) {
        a.values.push_back(std::move(o.first));
        a.apply.push_back(std::move(o.second));
    }
    return a;
}

SweepAxis
batchAxis(std::vector<int> batches)
{
    TD_ASSERT(!batches.empty(), "batchAxis needs at least one size");
    for (int b : batches)
        TD_ASSERT(b >= 1,
                  "batchAxis needs positive batch sizes, got %d", b);
    return axis("batch", batches,
                [](RunConfig &c, int b) { c.batch_override = b; });
}

SweepAxis
phaseAxis()
{
    return axis(
        "phase",
        std::vector<AxisOption>{
            {"training",
             [](RunConfig &c) { c.phase = WorkloadPhase::Training; }},
            {"inference",
             [](RunConfig &c) { c.phase = WorkloadPhase::Inference; }},
        });
}

size_t
SweepSpec::variantCount() const
{
    size_t n = 1;
    for (const SweepAxis &a : axes)
        n *= a.size();
    return n;
}

namespace {

/** Per-axis value indices of variant @p v (first axis slowest). */
std::vector<size_t>
variantDigits(const std::vector<SweepAxis> &axes, size_t v)
{
    std::vector<size_t> digits(axes.size());
    for (size_t i = axes.size(); i-- > 0;) {
        TD_ASSERT(!axes[i].values.empty(), "axis '%s' has no values",
                  axes[i].label.c_str());
        digits[i] = v % axes[i].size();
        v /= axes[i].size();
    }
    TD_ASSERT(v == 0, "variant index out of range");
    return digits;
}

} // namespace

std::string
SweepSpec::variantLabel(size_t v) const
{
    std::vector<size_t> digits = variantDigits(axes, v);
    std::string label;
    for (size_t i = 0; i < axes.size(); ++i) {
        if (i)
            label += ",";
        label += axes[i].label + "=" + axes[i].values[digits[i]];
    }
    return label;
}

RunConfig
SweepSpec::variantConfig(const RunConfig &base, size_t v) const
{
    std::vector<size_t> digits = variantDigits(axes, v);
    RunConfig cfg = base;
    for (size_t i = 0; i < axes.size(); ++i)
        axes[i].apply[digits[i]](cfg);
    return cfg;
}

void
SweepSpec::validate() const
{
    TD_ASSERT(!models.empty(), "sweep spec names no models");
    size_t variants = 1;
    for (const SweepAxis &a : axes) {
        TD_ASSERT(!a.label.empty(), "sweep axis with an empty label");
        TD_ASSERT(!a.values.empty(), "axis '%s' has no values",
                  a.label.c_str());
        TD_ASSERT(a.values.size() == a.apply.size(),
                  "axis '%s' declares %zu values but %zu mutators",
                  a.label.c_str(), a.values.size(), a.apply.size());
        for (const auto &fn : a.apply)
            TD_ASSERT(fn != nullptr, "axis '%s' has a null mutator",
                      a.label.c_str());
        TD_ASSERT(a.size() <= kMaxVariants / variants,
                  "sweep expands to more than %zu config variants",
                  kMaxVariants);
        variants *= a.size();
    }
    TD_ASSERT(!synthesize || synthesis_salt != 0,
              "a custom synthesize hook needs a non-zero "
              "synthesis_salt: the salt is the hook's content id "
              "inside every TaskKey");
}

size_t
SweepResult::slotsPerVariant() const
{
    size_t slots = 0;
    for (uint32_t c : model_layer_counts)
        slots += c;
    return slots * pointCount();
}

uint8_t
SweepResult::slotFullMask(size_t slot) const
{
    const size_t spv = slotsPerVariant();
    const size_t v = spv ? slot / spv : 0;
    return (uint8_t)((1u << phaseOps(variantPhase(v)).size()) - 1);
}

size_t
SweepResult::presentCount() const
{
    const size_t spv = slotsPerVariant();
    size_t n = 0;
    for (size_t i = 0; i < present.size(); ++i) {
        const size_t v = spv ? i / spv : 0;
        const uint8_t full =
            (uint8_t)((1u << phaseOps(variantPhase(v)).size()) - 1);
        n += present[i] == full;
    }
    return n;
}

size_t
SweepResult::presentCellCount() const
{
    size_t n = 0;
    for (uint8_t mask : present)
        n += (size_t)std::popcount(mask);
    return n;
}

bool
SweepResult::complete() const
{
    return presentCount() == taskCount();
}

size_t
SweepResult::cellCount() const
{
    size_t layer_slots = 0;
    for (uint32_t c : model_layer_counts)
        layer_slots += c;
    layer_slots *= pointCount();
    size_t n = 0;
    for (size_t v = 0; v < variantCount(); ++v)
        n += layer_slots * phaseOps(variantPhase(v)).size();
    return n;
}

const ModelRunResult &
SweepResult::at(size_t model, size_t point, size_t variant) const
{
    TD_ASSERT(!results.empty() || taskCount() == 0,
              "sweep is a partial shard (%zu of %zu cells present); "
              "merge all shards before reading model-level results",
              presentCount(), taskCount());
    TD_ASSERT(model < modelCount() && point < pointCount() &&
                  variant < variantCount(),
              "sweep cell (m=%zu, p=%zu, v=%zu) out of range "
              "(%zu x %zu x %zu)", model, point, variant, modelCount(),
              pointCount(), variantCount());
    return results[(variant * modelCount() + model) * pointCount() +
                   point];
}

std::vector<double>
SweepResult::speedups(size_t point, size_t variant) const
{
    std::vector<double> s;
    s.reserve(modelCount());
    for (size_t m = 0; m < modelCount(); ++m)
        s.push_back(at(m, point, variant).speedup());
    return s;
}

double
SweepResult::meanSpeedup(size_t point, size_t variant) const
{
    std::vector<double> s = speedups(point, variant);
    double sum = 0.0;
    for (double v : s)
        sum += v;
    return s.empty() ? 1.0 : sum / (double)s.size();
}

double
SweepResult::geomeanSpeedup(size_t point, size_t variant) const
{
    return geomean(speedups(point, variant));
}

void
SweepResult::reduce()
{
    TD_ASSERT(complete(),
              "cannot reduce a partial sweep (%zu of %zu cells)",
              presentCount(), taskCount());
    results.clear();
    results.reserve(variantCount() * modelCount() * pointCount());
    size_t first_task = 0;
    for (size_t v = 0; v < variantCount(); ++v) {
        std::span<const TrainOp> ops = phaseOps(variantPhase(v));
        for (size_t m = 0; m < modelCount(); ++m) {
            for (size_t p = 0; p < pointCount(); ++p) {
                ModelRunResult result;
                result.model = models[m];
                result.memory_model = variant_memory_models[v];
                result.ops.assign(ops.size(), OpResult{});
                for (size_t i = 0; i < ops.size(); ++i)
                    result.ops[i].op = ops[i];
                for (size_t l = 0; l < model_layer_counts[m]; ++l) {
                    const LayerResult &lr =
                        layer_results[first_task + l];
                    TD_ASSERT(lr.cells.size() == ops.size(),
                              "layer slot holds %zu op cells, variant "
                              "'%s' runs %zu ops", lr.cells.size(),
                              variants[v].c_str(), ops.size());
                    for (size_t op = 0; op < ops.size(); ++op) {
                        const OpCellResult &cell = lr.cells[op];
                        result.ops[op].merge(cell.op);
                        result.total.merge(cell.op);
                        result.energy_base.merge(cell.energy_base);
                        result.energy_td.merge(cell.energy_td);
                    }
                }
                first_task += model_layer_counts[m];
                results.push_back(std::move(result));
            }
        }
    }
}

void
SweepResult::merge(const SweepResult &other)
{
    TD_ASSERT(fingerprint == other.fingerprint,
              "cannot merge sweeps with different fingerprints "
              "(%016llx vs %016llx): they describe different grids or "
              "configurations",
              (unsigned long long)fingerprint,
              (unsigned long long)other.fingerprint);
    TD_ASSERT(taskCount() == other.taskCount(),
              "sweep grids differ in size (%zu vs %zu)", taskCount(),
              other.taskCount());
    const size_t spv = slotsPerVariant();
    for (size_t i = 0; i < taskCount(); ++i) {
        // Per-cell union: cells both sides hold keep this sweep's
        // copy (bit-identical by construction); a slot split below
        // task grain reassembles here one mask bit at a time.
        const uint8_t add =
            other.present[i] & (uint8_t)~present[i];
        if (!add)
            continue;
        const size_t v = spv ? i / spv : 0;
        const size_t nops = phaseOps(variantPhase(v)).size();
        layer_results[i].cells.resize(nops);
        for (size_t j = 0; j < nops; ++j)
            if (add & (1u << j))
                layer_results[i].cells[j] =
                    other.layer_results[i].cells[j];
        present[i] |= add;
    }
    cache_hits += other.cache_hits;
    simulated += other.simulated;
    estimated += other.estimated;
    if (complete())
        reduce();
}

std::vector<uint8_t>
SweepResult::serialize() const
{
    ByteWriter w;
    w.u32(kSweepMagic);
    w.u32(kResultFormatVersion);
    w.u64(fingerprint);
    w.u32((uint32_t)variants.size());
    for (size_t v = 0; v < variants.size(); ++v) {
        w.str(variants[v]);
        w.u8((uint8_t)variant_memory_models[v]);
        w.u8((uint8_t)variantPhase(v));
    }
    w.u32((uint32_t)models.size());
    for (size_t m = 0; m < models.size(); ++m) {
        w.str(models[m]);
        w.u32(model_layer_counts[m]);
    }
    w.u32((uint32_t)progress_points.size());
    for (double p : progress_points)
        w.f64(p);
    w.u64(cache_hits);
    w.u64(simulated);
    w.u64(estimated);
    w.u32((uint32_t)taskCount());
    for (size_t i = 0; i < taskCount(); ++i) {
        // Mask byte, then only the masked cells: a partial slot ships
        // exactly the cells it owns.
        w.u8(present[i]);
        const LayerResult &lr = layer_results[i];
        for (size_t j = 0; j < lr.cells.size(); ++j)
            if (present[i] & (1u << j))
                lr.cells[j].serialize(w);
    }
    return w.data();
}

bool
SweepResult::deserialize(const std::vector<uint8_t> &bytes,
                         SweepResult *out)
{
    ByteReader r(bytes);
    if (r.u32() != kSweepMagic || r.u32() != kResultFormatVersion)
        return false;
    SweepResult s;
    s.fingerprint = r.u64();
    // Enum bytes are range-checked before the cast: an out-of-range
    // memory model would otherwise panic later in memoryModelName().
    uint32_t nvariants = r.u32();
    for (uint32_t v = 0; r.ok() && v < nvariants; ++v) {
        s.variants.push_back(r.str());
        uint8_t variant_model = r.u8();
        uint8_t phase = r.u8();
        if (variant_model > (uint8_t)MemoryModel::Pipelined ||
            phase > (uint8_t)WorkloadPhase::Inference)
            return false;
        s.variant_memory_models.push_back((MemoryModel)variant_model);
        s.variant_phases.push_back((WorkloadPhase)phase);
    }
    uint32_t nmodels = r.u32();
    for (uint32_t m = 0; r.ok() && m < nmodels; ++m) {
        s.models.push_back(r.str());
        s.model_layer_counts.push_back(r.u32());
    }
    uint32_t npoints = r.u32();
    for (uint32_t p = 0; r.ok() && p < npoints; ++p)
        s.progress_points.push_back(r.f64());
    s.cache_hits = r.u64();
    s.simulated = r.u64();
    s.estimated = r.u64();
    uint32_t ntasks = r.u32();
    if (!r.ok())
        return false;
    // Cross-check the declared grid against the layout fields and the
    // bytes actually present before allocating: a corrupt count (even
    // an internally consistent one) must not drive a huge resize.
    // Every task costs at least its one-byte present flag; the
    // variant x layer x point product saturates instead of wrapping.
    uint64_t layer_cells = 0;
    for (size_t m = 0; m < s.models.size(); ++m)
        layer_cells += (uint64_t)s.model_layer_counts[m];
    auto sat_mul = [](uint64_t a, uint64_t b) {
        return (b != 0 && a > std::numeric_limits<uint64_t>::max() / b)
            ? std::numeric_limits<uint64_t>::max() : a * b;
    };
    uint64_t expected = sat_mul(sat_mul(layer_cells, npoints),
                                s.variants.size());
    if (expected != ntasks || ntasks > r.remaining())
        return false;
    s.layer_results.resize(ntasks);
    s.present.assign(ntasks, 0);
    // Each slot's mask must fit its variant's op set (slots are laid
    // out variant-major, so the variant is the slot's position
    // divided by the per-variant slot count).
    const uint64_t slots_per_variant = sat_mul(layer_cells, npoints);
    for (uint32_t i = 0; r.ok() && i < ntasks; ++i) {
        const uint8_t mask = r.u8();
        if (!mask)
            continue;
        size_t v = slots_per_variant ? i / slots_per_variant : 0;
        const size_t nops = phaseOps(s.variantPhase(v)).size();
        if (mask >> nops)
            return false; // bits past the variant's op set: corrupt
        s.present[i] = mask;
        s.layer_results[i].cells.resize(nops);
        for (size_t j = 0; j < nops; ++j)
            if (mask & (1u << j))
                s.layer_results[i].cells[j].deserialize(r);
    }
    if (!r.atEnd())
        return false;
    if (s.complete())
        s.reduce();
    *out = std::move(s);
    return true;
}

ModelRunResult
ModelRunner::run(const ModelProfile &model) const
{
    return std::move(runMany(std::span(&model, 1)).results.front());
}

ModelRunResult
ModelRunner::runByName(const std::string &name) const
{
    ModelProfile model = ModelZoo::byName(name);
    return run(model);
}

SweepResult
ModelRunner::runSweep(const SweepSpec &spec, Shard shard,
                      const RunHooks &hooks) const
{
    shard.validate();
    Grid grid(spec, config_);
    GridEnumeration e = planGrid(grid);
    std::vector<size_t> cells;
    for (const GridCellInfo &c : e.cells)
        if (shard.owns(c.group))
            cells.push_back(c.cell);
    return runGrid(config_, grid, e, cells, hooks);
}

std::vector<GridCellInfo>
ModelRunner::planSweep(const SweepSpec &spec) const
{
    Grid grid(spec, config_);
    return planGrid(grid).cells;
}

SweepResult
ModelRunner::runSweepCells(const SweepSpec &spec,
                           std::span<const size_t> cells,
                           const RunHooks &hooks) const
{
    Grid grid(spec, config_);
    return runGrid(config_, grid, planGrid(grid), cells, hooks);
}

uint64_t
ModelRunner::sweepFingerprint(const SweepSpec &spec) const
{
    Grid grid(spec, config_);
    return gridFingerprint(grid, enumerateGrid(grid));
}

SweepResult
ModelRunner::refine(const SweepSpec &spec,
                    const SweepResult &estimates, double lo,
                    double hi) const
{
    TD_ASSERT(lo <= hi, "refine band [%g, %g] is empty", lo, hi);
    TD_ASSERT(estimates.complete(),
              "refine needs a complete estimate sweep (%zu of %zu "
              "cells present); merge its shards first",
              estimates.presentCount(), estimates.taskCount());
    TD_ASSERT(estimates.modelCount() == spec.models.size(),
              "estimate sweep covers %zu models but the spec names "
              "%zu: refine wants the Estimate-tier run of this very "
              "spec", estimates.modelCount(), spec.models.size());
    SweepSpec sub = spec;
    sub.models.clear();
    for (size_t m = 0; m < spec.models.size(); ++m) {
        bool in_band = false;
        for (size_t v = 0;
             !in_band && v < estimates.variantCount(); ++v)
            for (size_t p = 0;
                 !in_band && p < estimates.pointCount(); ++p) {
                double s = estimates.at(m, p, v).speedup();
                in_band = s >= lo && s <= hi;
            }
        if (in_band)
            sub.models.push_back(spec.models[m]);
    }
    if (sub.models.empty())
        return SweepResult{};
    RunConfig exact = config_;
    exact.fidelity = Fidelity::Exact;
    return ModelRunner(exact).runSweep(sub);
}

SweepResult
ModelRunner::runMany(std::span<const ModelProfile> models,
                     std::span<const double> progress_points,
                     Shard shard) const
{
    SweepSpec spec;
    spec.models.assign(models.begin(), models.end());
    spec.progress_points.assign(progress_points.begin(),
                                progress_points.end());
    return runSweep(spec, shard);
}

} // namespace tensordash
