/**
 * @file
 * Claim-order bench: does the estimator-based claim key schedule the
 * task grid better than raw dense MACs?
 *
 * runGrid() claims tasks costliest-first so a huge layer picked up
 * late cannot leave the pool tailing on one thread.  "Costliest" used
 * to mean dense MACs, which ignores everything the simulator actually
 * pays for — the sampling cap, per-job gather/schedule volume, the
 * sparse front end's expected cycle reduction.  This bench measures
 * each (model, layer) task of the fig13 grid individually, then
 * replays a K-worker greedy claim loop under three orders:
 *
 *   macs      dense-MAC descending (the old key)
 *   estimate  OpEstimator::estimateSimCost descending (the new key)
 *   oracle    measured-time descending (LPT with perfect knowledge —
 *             the best any static descending order can do)
 *
 * and reports the resulting makespans.  A second table replicates the
 * grid across a 5-point geometry axis and compares runGrid's claim
 * unit, one task per synthesized layer, with claiming each variant's
 * slot on its own.  Claim order never changes results (slots are
 * pre-assigned, the reduce is serial), only wall-clock — which is
 * exactly what this bench quantifies.
 */

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include "bench_util.hh"
#include "sim/estimator.hh"

using namespace tensordash;
using namespace tensordash::bench;

namespace {

struct TaskSample
{
    double macs = 0.0;     ///< dense MACs (old claim key)
    double estimate = 0.0; ///< estimateSimCost sum (new claim key)
    double ms = 0.0;       ///< measured serial task time
    double est_synth = 0.0; ///< synthesis share of the estimate
    double ms_synth = 0.0;  ///< measured synthesis share of ms
};

/** Greedy list scheduling: claim tasks in @p order, always onto the
 * earliest-free of @p workers; returns the makespan in ms. */
double
makespan(const std::vector<TaskSample> &tasks,
         const std::vector<size_t> &order, int workers)
{
    std::vector<double> busy((size_t)workers, 0.0);
    for (size_t i : order) {
        auto it = std::min_element(busy.begin(), busy.end());
        *it += tasks[i].ms;
    }
    return *std::max_element(busy.begin(), busy.end());
}

/** Task indices sorted descending by @p key (stable, like runGrid). */
template <typename KeyFn>
std::vector<size_t>
orderBy(const std::vector<TaskSample> &tasks, KeyFn key)
{
    std::vector<size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), (size_t)0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return key(tasks[a]) > key(tasks[b]);
                     });
    return order;
}

/** One geometry-variant replica of a base task when every slot is
 * claimed on its own: all replicas of one base share a SynthKey, and
 * only the first to execute pays the synthesis time. */
struct SynthReplica
{
    size_t base = 0;   ///< index into the measured TaskSamples
    double est = 0.0;  ///< claim key under the model being replayed
};

/**
 * Greedy list scheduling over variant replicas where synthesis time
 * is paid by the first-executed replica of each base task (every
 * later one reuses its tensors).  @p order indexes @p replicas.
 */
double
makespanSynth(const std::vector<TaskSample> &tasks,
              const std::vector<SynthReplica> &replicas,
              const std::vector<size_t> &order, int workers)
{
    std::vector<double> busy((size_t)workers, 0.0);
    std::vector<char> synthesized(tasks.size(), 0);
    for (size_t i : order) {
        const TaskSample &t = tasks[replicas[i].base];
        double ms = t.ms - t.ms_synth;
        if (!synthesized[replicas[i].base]) {
            synthesized[replicas[i].base] = 1;
            ms += t.ms_synth;
        }
        auto it = std::min_element(busy.begin(), busy.end());
        *it += ms;
    }
    return *std::max_element(busy.begin(), busy.end());
}

/** Replica indices sorted descending by est (stable, like runGrid). */
std::vector<size_t>
orderReplicas(const std::vector<SynthReplica> &replicas)
{
    std::vector<size_t> order(replicas.size());
    std::iota(order.begin(), order.end(), (size_t)0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return replicas[a].est > replicas[b].est;
                     });
    return order;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    banner("claim-order",
           "greedy makespan under MAC-key vs estimate-key claiming");

    RunConfig cfg = defaultRunConfig(opts);
    std::vector<ModelProfile> models = ModelZoo::paperModels();

    // Measure every (model, layer) task of the grid serially, exactly
    // as one runGrid task runs it: private accelerator, the layer's
    // forked stream, the training op set.
    std::vector<TaskSample> tasks;
    for (const ModelProfile &model : models) {
        AcceleratorConfig accel_cfg = cfg.accel;
        accel_cfg.wg_side = model.wg_side;
        Rng rng(cfg.seed * 0x2545f4914f6cdd1dull + 1);
        for (size_t l = 0; l < model.layers.size(); ++l) {
            Rng layer_rng = rng.fork();
            const LayerSpec &layer = model.layers[l];
            TaskSample t;
            t.macs = (double)layer.macsPerSample() *
                     (double)model.batch;
            CellSparsity sp =
                effectiveCellSparsity(model, l, cfg.progress);
            // Mirror runGrid's claim key exactly: synthesis volume
            // (acts + weights + grads elements, paid once per task)
            // plus the estimated per-op simulation cost.
            double hw = (double)layer.in_hw * layer.in_hw;
            double ohw = (double)layer.outHw() * layer.outHw();
            t.est_synth = (double)model.batch * layer.in_c * hw +
                          (double)layer.out_c * layer.in_c *
                              layer.kernel * layer.kernel +
                          (double)model.batch * layer.out_c * ohw;
            t.estimate = t.est_synth;
            for (TrainOp op : phaseOps(WorkloadPhase::Training))
                t.estimate += OpEstimator::estimateSimCost(
                    accel_cfg, layer, model.batch, op, sp);

            Accelerator accel(accel_cfg);
            auto start = std::chrono::steady_clock::now();
            LayerTensors tensors = ModelZoo::synthesize(
                model, layer, cfg.progress, layer_rng);
            t.ms_synth = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
            for (TrainOp op : phaseOps(WorkloadPhase::Training))
                accel.runConvOp(op, tensors.acts, tensors.weights,
                                tensors.grads, tensors.spec, 0.0);
            t.ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
            tasks.push_back(std::move(t));
        }
    }

    double serial_ms = 0.0;
    for (const TaskSample &t : tasks)
        serial_ms += t.ms;

    auto by_macs =
        orderBy(tasks, [](const TaskSample &t) { return t.macs; });
    auto by_est =
        orderBy(tasks, [](const TaskSample &t) { return t.estimate; });
    auto oracle =
        orderBy(tasks, [](const TaskSample &t) { return t.ms; });

    Table t;
    t.header({"workers", "macs-key ms", "estimate-key ms", "oracle ms",
              "estimate vs macs"});
    for (int workers : {2, 4, 8, 16}) {
        double m = makespan(tasks, by_macs, workers);
        double e = makespan(tasks, by_est, workers);
        double o = makespan(tasks, oracle, workers);
        char ratio[32];
        std::snprintf(ratio, sizeof ratio, "%.3fx", m / e);
        t.row({std::to_string(workers), fmtDouble(m, 1),
               fmtDouble(e, 1), fmtDouble(o, 1), ratio});
    }
    emit(t, opts);
    std::printf("%zu tasks, %.0f ms serial; ratios > 1 mean the "
                "estimate key finishes the grid sooner\n",
                tasks.size(), serial_ms);

    // Synth-aware scenario: replicate the grid across a 5-point
    // geometry axis (fig17's rows sweep), whose replicas of one base
    // task share a SynthKey.  "replica" claims each variant's slot on
    // its own, charging synthesis to the first-laid-out replica and
    // paying it at the first to execute; "group" claims the five as
    // one task that synthesizes once, as runGrid does.
    const int kVariants = 5;
    std::vector<SynthReplica> replicas;
    for (int v = 0; v < kVariants; ++v)
        for (size_t i = 0; i < tasks.size(); ++i)
            replicas.push_back(
                {i, v == 0 ? tasks[i].estimate
                           : tasks[i].estimate - tasks[i].est_synth});
    auto replica_order = orderReplicas(replicas);
    std::vector<TaskSample> groups;
    for (const TaskSample &s : tasks) {
        TaskSample g;
        g.estimate = s.est_synth + kVariants * (s.estimate - s.est_synth);
        g.ms = s.ms_synth + kVariants * (s.ms - s.ms_synth);
        groups.push_back(g);
    }
    auto group_order =
        orderBy(groups, [](const TaskSample &t) { return t.estimate; });

    Table ts;
    ts.header({"workers", "replica ms", "group ms", "group vs replica"});
    for (int workers : {2, 4, 8, 16}) {
        double rm =
            makespanSynth(tasks, replicas, replica_order, workers);
        double gm = makespan(groups, group_order, workers);
        char ratio[32];
        std::snprintf(ratio, sizeof ratio, "%.3fx", rm / gm);
        ts.row({std::to_string(workers), fmtDouble(rm, 1),
                fmtDouble(gm, 1), ratio});
    }
    std::printf("[synth-aware] %d-variant geometry replication: "
                "per-slot claiming (first-of-key pays synthesis) vs "
                "one task per synthesized layer; ratios > 1 mean group "
                "claiming finishes the grid sooner\n", kVariants);
    ts.print();
    return 0;
}
