/**
 * @file
 * Tests for the closed-form estimator tier: estimator-vs-exact error
 * bounds across the zoo under both memory models, estimate-tier
 * TaskKey isolation (estimates can never shadow exact results), the
 * batch-override axis, triage-and-refine, bit-identity of the
 * estimator-keyed claim order at any thread count, and known answers
 * for the pruned models' cost keys and estimates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Small conv model for the wiring tests (the accuracy suite runs the
 * real zoo). */
ModelProfile
tinyModel()
{
    ModelProfile m;
    m.name = "tiny";
    m.batch = 1;
    m.sparsity.act = 0.6;
    m.sparsity.grad = 0.5;
    LayerSpec l;
    l.name = "c1";
    l.in_c = 3;
    l.in_hw = 8;
    l.out_c = 4;
    l.kernel = 3;
    l.pad = 1;
    m.layers.push_back(l);
    l.name = "c2";
    l.in_c = 4;
    m.layers.push_back(l);
    return m;
}

/** A second model whose sparsity (and therefore speedup) clearly
 * differs from tinyModel's, for the refine band tests. */
ModelProfile
denseModel()
{
    ModelProfile m = tinyModel();
    m.name = "dense";
    m.sparsity.act = 0.05;
    m.sparsity.grad = 0.05;
    return m;
}

/** Fast configuration; @p seed keeps each test's task keys disjoint
 * from every other test's. */
RunConfig
estConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0;
    return cfg;
}

/** Serialized sweep content with the cache/fidelity telemetry zeroed
 * (two runs holding identical cells compare equal regardless of how
 * the cells were produced). */
std::vector<uint8_t>
contentBytes(SweepResult s)
{
    s.cache_hits = 0;
    s.simulated = 0;
    s.estimated = 0;
    return s.serialize();
}

/** Relative error of @p got against @p want (0 when both are 0). */
double
relErr(double got, double want)
{
    if (want == 0.0)
        return got == 0.0 ? 0.0 : 1.0;
    return std::abs(got - want) / want;
}

/**
 * The accuracy bar of sim/estimator.hh: run the full zoo exactly and
 * through the estimate tier under @p mm, collect the per-cell relative
 * error on predicted TensorDash cycles, and pin median <= 10%,
 * p95 <= 25%.  Under the Analytic model baseline cycles reproduce the
 * lowering geometry exactly, so their error must be ~0.
 */
void
checkZooAccuracy(MemoryModel mm)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg;
    cfg.accel.memory_model = mm;
    cfg.accel.max_sampled_macs = 120000;
    cfg.cache = false;
    const std::vector<ModelProfile> models = ModelZoo::paperModels();

    SweepResult exact = ModelRunner(cfg).runMany(models);
    cfg.fidelity = Fidelity::Estimate;
    SweepResult est = ModelRunner(cfg).runMany(models);
    ASSERT_EQ(est.taskCount(), exact.taskCount());
    EXPECT_EQ(est.simulated, 0u);
    EXPECT_EQ(est.estimated, est.cellCount());

    std::vector<double> errors;
    for (size_t slot = 0; slot < exact.taskCount(); ++slot) {
        const LayerResult &ex = exact.layer_results[slot];
        const LayerResult &es = est.layer_results[slot];
        ASSERT_EQ(es.cells.size(), ex.cells.size());
        for (size_t j = 0; j < ex.cells.size(); ++j) {
            const OpResult &exact_op = ex.cells[j].op;
            const OpResult &est_op = es.cells[j].op;
            if (mm == MemoryModel::Analytic) {
                EXPECT_LT(relErr(est_op.base_cycles,
                                 exact_op.base_cycles),
                          1e-6)
                    << "baseline cycles are pure lowering geometry "
                       "and must be reproduced exactly (slot "
                    << slot << ", cell " << j << ")";
            }
            errors.push_back(
                relErr(est_op.td_cycles, exact_op.td_cycles));
        }
    }
    ASSERT_FALSE(errors.empty());
    std::sort(errors.begin(), errors.end());
    double median = errors[errors.size() / 2];
    double p95 = errors[(size_t)((double)(errors.size() - 1) * 0.95)];
    EXPECT_LE(median, 0.10)
        << "median TensorDash-cycle error above the 10% bar";
    EXPECT_LE(p95, 0.25) << "p95 TensorDash-cycle error above the "
                            "25% bar";
    ResultStore::shared().clearMemo();
}

TEST(EstimatorAccuracy, ZooErrorBoundsAnalytic)
{
    checkZooAccuracy(MemoryModel::Analytic);
}

TEST(EstimatorAccuracy, ZooErrorBoundsPipelined)
{
    checkZooAccuracy(MemoryModel::Pipelined);
}

TEST(EstimateTier, KeysNeverCollideWithExactKeys)
{
    // The whole safety story of the estimate tier: an estimate cell's
    // key is salted, so it can never serve where an exact result is
    // expected (or vice versa).
    RunConfig cfg = estConfig(11001);
    ModelProfile m = tinyModel();
    TaskKey exact = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    cfg.fidelity = Fidelity::Estimate;
    TaskKey est = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    EXPECT_NE(est.value, exact.value);
}

TEST(EstimateTier, RunsNeverTouchTheSimulatorOrExactCache)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = estConfig(11002);
    const std::vector<ModelProfile> models = {tinyModel()};

    // Cold estimate run: every cell estimated, nothing simulated.
    cfg.fidelity = Fidelity::Estimate;
    SweepResult est = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(est.simulated, 0u);
    EXPECT_EQ(est.estimated, est.cellCount());
    EXPECT_EQ(est.cache_hits, 0u);

    // A subsequent exact run of the same grid must fully simulate:
    // cached estimates are invisible to it.
    cfg.fidelity = Fidelity::Exact;
    SweepResult exact = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(exact.cache_hits, 0u);
    EXPECT_EQ(exact.simulated, exact.cellCount());
    EXPECT_EQ(exact.estimated, 0u);

    // And the estimate tier memoises under its own keys: a warm
    // estimate run is pure cache hits, bit-identical to the cold one.
    cfg.fidelity = Fidelity::Estimate;
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());
    EXPECT_EQ(warm.estimated, 0u);
    EXPECT_EQ(contentBytes(est), contentBytes(warm));
    ResultStore::shared().clearMemo();
}

TEST(EstimateTier, EstimateRunsAreDeterministic)
{
    RunConfig cfg = estConfig(11003);
    cfg.fidelity = Fidelity::Estimate;
    cfg.cache = false;
    const std::vector<ModelProfile> models = {tinyModel(),
                                              denseModel()};
    SweepResult a = ModelRunner(cfg).runMany(models);
    SweepResult b = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(contentBytes(a), contentBytes(b));
    // Sparser inputs must estimate faster: the ranking the triage
    // tier exists to produce.
    EXPECT_GT(a.at(0).speedup(), a.at(1).speedup());
}

TEST(Estimator, PrunedModelsKnownAnswer)
{
    // Every claim-cost key and estimate of the two 90%-pruned
    // ResNet-50s, pinned bit for bit at three progress points.  At
    // fig13's config (activation and gradient sides) the realised
    // pruned density reaches only the rounded DRAM traffic; with AxW
    // and AxG scheduled on the weights it is the B side's density, so
    // drift in the quadrature's nodes, weights or summation order must
    // fail here, not as a silently different claim order or
    // estimate-tier CSV.
    struct Known
    {
        const char *model;
        double progress;
        bool weights_side;
        uint64_t sim_cost;
        uint64_t estimate;
    };
    const Known known[] = {
        {"resnet50_DS90", 0.02, false, 0x52262dcc64cb4f7cull,
         0xaf4a71e30a837ce0ull},
        {"resnet50_DS90", 0.05, false, 0x7c25172618dc054aull,
         0x5709a2ac9a950c86ull},
        {"resnet50_DS90", 0.5, false, 0x9360781969853411ull,
         0x5f30cbe2512e3ef1ull},
        {"resnet50_SM90", 0.02, false, 0xc847292a76f61e64ull,
         0x3c8630dbf99948dfull},
        {"resnet50_SM90", 0.05, false, 0xb56445a3dbea713cull,
         0x3ea28d8a14626a7eull},
        {"resnet50_SM90", 0.5, false, 0x292748bfb6f8093eull,
         0x4784e3daf887b8b2ull},
        {"resnet50_DS90", 0.02, true, 0x8721421c846a9bcbull,
         0xdacecfdd1067989dull},
        {"resnet50_DS90", 0.05, true, 0x837a77d2e4de282eull,
         0x84fc53b5f688c198ull},
        {"resnet50_DS90", 0.5, true, 0xcebcb0b54363b8aaull,
         0xc2f44819dc81fa39ull},
        {"resnet50_SM90", 0.02, true, 0x2a604536e3dc6f27ull,
         0x1cc261aff8f80e16ull},
        {"resnet50_SM90", 0.05, true, 0x3651395d33eed456ull,
         0xa87746da3a07dff1ull},
        {"resnet50_SM90", 0.5, true, 0xff6ccf62c216cb9dull,
         0x2310a86eaea161c1ull},
    };
    for (const Known &k : known) {
        ModelProfile m = ModelZoo::byName(k.model);
        RunConfig cfg;
        cfg.accel.max_sampled_macs = 600000;
        cfg.accel.wg_side = m.wg_side;
        if (k.weights_side) {
            cfg.accel.fwd_side = FwdSide::Weights;
            cfg.accel.bwd_data_side = BwdDataSide::Weights;
        }
        OpEstimator est(cfg.accel);
        FnvHasher cost, estimate;
        for (const LayerSpec &l : m.layers) {
            CellSparsity sp = effectiveCellSparsity(m, l, k.progress);
            for (TrainOp op : phaseOps(WorkloadPhase::Training)) {
                cost.u64(std::bit_cast<uint64_t>(
                    OpEstimator::estimateSimCost(cfg.accel, l, m.batch,
                                                 op, sp)));
                OpEstimate e = est.estimateOp(l, m.batch, op, sp);
                ByteWriter w;
                OpCellResult{e.op, e.energy_base, e.energy_td}.serialize(w);
                for (uint8_t b : w.data())
                    estimate.u64(b);
            }
        }
        const char *sides = k.weights_side ? "weights" : "default";
        EXPECT_EQ(cost.hex(), FnvHasher::toHex(k.sim_cost))
            << k.model << " at " << k.progress << ", " << sides
            << " sides";
        EXPECT_EQ(estimate.hex(), FnvHasher::toHex(k.estimate))
            << k.model << " at " << k.progress << ", " << sides
            << " sides";
    }
}

TEST(ClaimOrder, EstimatorCostKeyIsBitIdenticalAtAnyThreadCount)
{
    // The claim loop orders tasks by estimated simulation cost; order
    // must never leak into results.  Sweep a geometry axis (different
    // per-variant costs exercise the ordering) at 1, 2 and 8 threads
    // and require byte-identical sweeps.
    const std::vector<ModelProfile> models = {tinyModel(),
                                              denseModel()};
    SweepSpec spec;
    spec.models = models;
    spec.progress_points = {0.25, 0.75};
    spec.axes.push_back(
        axis("rows", {4, 8}, [](RunConfig &c, int rows) {
            c.accel.tile.rows = rows;
        }));

    std::vector<std::vector<uint8_t>> runs;
    for (int threads : {1, 2, 8}) {
        RunConfig cfg = estConfig(11004);
        cfg.cache = false;
        cfg.threads = threads;
        runs.push_back(
            contentBytes(ModelRunner(cfg).runSweep(spec)));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BatchAxis, OverrideChangesTheKeyAndTheResult)
{
    RunConfig cfg = estConfig(11005);
    ModelProfile m = tinyModel();
    TaskKey base = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);

    // An override equal to the model's own batch is the identical
    // simulation and must share its key (and cached cells).
    cfg.batch_override = m.batch;
    EXPECT_EQ(TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5).value,
              base.value);

    // A different effective batch is a different simulation.
    cfg.batch_override = 4;
    TaskKey big = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    EXPECT_NE(big.value, base.value);

    // And it must match the key of a model whose *own* batch is 4:
    // batchAxis({4}) and editing the profile are the same cells.
    cfg.batch_override = 0;
    ModelProfile m4 = m;
    m4.batch = 4;
    EXPECT_EQ(TaskKey::forOp(cfg, m4, 0, TrainOp::Forward, 0.5).value,
              big.value);
}

TEST(BatchAxis, SweepsEveryModelThroughTheListedBatches)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = estConfig(11006);
    SweepSpec spec;
    spec.models = {tinyModel()};
    spec.axes.push_back(batchAxis({1, 4}));
    SweepResult sweep = ModelRunner(cfg).runSweep(spec);
    ASSERT_EQ(sweep.variantCount(), 2u);
    EXPECT_EQ(sweep.variants[0], "batch=1");
    EXPECT_EQ(sweep.variants[1], "batch=4");
    // tinyModel's own batch is 1, so variant 0 is the plain run and
    // variant 4x must do strictly more work.
    EXPECT_GT(sweep.at(0, 0, 1).total.base_cycles,
              sweep.at(0, 0, 0).total.base_cycles);

    // Batch-4 cells are content-identical to running a batch-4
    // profile directly: the override run warmed their cache slots.
    ModelProfile m4 = tinyModel();
    m4.batch = 4;
    const std::vector<ModelProfile> models4 = {m4};
    SweepResult direct = ModelRunner(cfg).runMany(models4);
    EXPECT_EQ(direct.cache_hits, direct.cellCount());
    EXPECT_EQ(direct.at(0).total.td_cycles,
              sweep.at(0, 0, 1).total.td_cycles);
    EXPECT_EQ(direct.at(0).energy_td.total(),
              sweep.at(0, 0, 1).energy_td.total());
    ResultStore::shared().clearMemo();
}

TEST(Refine, ReRunsExactlyTheInBandModels)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = estConfig(11007);
    cfg.fidelity = Fidelity::Estimate;
    SweepSpec spec;
    spec.models = {tinyModel(), denseModel()};
    ModelRunner triage(cfg);
    SweepResult est = triage.runSweep(spec);
    double sparse_sp = est.at(0).speedup();
    double dense_sp = est.at(1).speedup();
    ASSERT_GT(sparse_sp, dense_sp);

    // A band holding only the sparse model re-runs only it — exactly.
    double mid = 0.5 * (sparse_sp + dense_sp);
    SweepResult refined =
        triage.refine(spec, est, mid, sparse_sp + 1.0);
    ASSERT_EQ(refined.modelCount(), 1u);
    EXPECT_EQ(refined.models[0], "tiny");
    EXPECT_EQ(refined.estimated, 0u);
    EXPECT_EQ(refined.simulated, refined.cellCount());

    // The refined result is the exact simulation, byte for byte.
    RunConfig exact_cfg = cfg;
    exact_cfg.fidelity = Fidelity::Exact;
    exact_cfg.cache = false;
    SweepSpec sub;
    sub.models = {tinyModel()};
    SweepResult direct = ModelRunner(exact_cfg).runSweep(sub);
    EXPECT_EQ(contentBytes(refined), contentBytes(direct));

    // An empty band refines nothing.
    SweepResult none = triage.refine(spec, est, dense_sp + 0.001,
                                     mid - 0.001);
    EXPECT_EQ(none.modelCount(), 0u);
    EXPECT_EQ(none.taskCount(), 0u);
    ResultStore::shared().clearMemo();
}

} // namespace
} // namespace tensordash
