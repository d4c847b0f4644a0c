/**
 * @file
 * Tests for workload phases and FC models: phase op sets, TaskKey
 * op/phase sensitivity (the op is part of a cell's identity, the
 * phase never is), an inference sweep born warm from a training run's
 * cache with bit-identical Forward cells, functional parity of the FC
 * entry points (1x1-conv lowerings) against the reference matmuls,
 * the phase sweep axis, and LayerSpec/ModelProfile validation
 * diagnostics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Two small conv models (shared shape with the store/spec suites). */
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

ModelProfile
tinyModelB()
{
    ModelProfile m = tinyModel();
    m.name = "tinyB";
    m.sparsity.act = 0.4;
    LayerSpec l = m.layers.back();
    l.name = "c3";
    l.stride = 2;
    l.pad = 0;
    m.layers.push_back(l);
    return m;
}

std::vector<ModelProfile>
tinyModels()
{
    return {tinyModel(), tinyModelB()};
}

/** Fast configuration; @p seed keeps this suite's task keys disjoint
 * from every other suite's, so the process-wide memo cannot leak
 * state between tests. */
RunConfig
phaseConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0; // default parallelism: exercises concurrent claims
    return cfg;
}

/** Fresh (empty, created) temp directory for disk-cache tests. */
std::string
freshCacheDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Bit-exact comparison handle for an aggregated op result. */
std::vector<uint8_t>
opBytes(const OpResult &r)
{
    ByteWriter w;
    r.serialize(w);
    return w.data();
}

TEST(WorkloadPhaseTest, PhaseOpSetsMatchThePaper)
{
    std::span<const TrainOp> training =
        phaseOps(WorkloadPhase::Training);
    ASSERT_EQ(training.size(), 3u);
    EXPECT_EQ(training[0], TrainOp::Forward);
    EXPECT_EQ(training[1], TrainOp::BackwardData);
    EXPECT_EQ(training[2], TrainOp::BackwardWeights);

    std::span<const TrainOp> inference =
        phaseOps(WorkloadPhase::Inference);
    ASSERT_EQ(inference.size(), 1u);
    EXPECT_EQ(inference[0], TrainOp::Forward);

    EXPECT_LE(training.size(), kMaxPhaseOps);
    EXPECT_LE(inference.size(), kMaxPhaseOps);
    EXPECT_STREQ(phaseName(WorkloadPhase::Training), "training");
    EXPECT_STREQ(phaseName(WorkloadPhase::Inference), "inference");
}

TEST(WorkloadPhaseTest, TheOpIsKeyedButThePhaseIsNot)
{
    // A cell is identified by which convolution it holds; the three
    // ops of one layer are three distinct cells.
    RunConfig cfg = phaseConfig(31001);
    ModelProfile m = tinyModel();
    TaskKey fwd = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    TaskKey bwd =
        TaskKey::forOp(cfg, m, 0, TrainOp::BackwardData, 0.5);
    TaskKey wg =
        TaskKey::forOp(cfg, m, 0, TrainOp::BackwardWeights, 0.5);
    EXPECT_NE(fwd.value, bwd.value);
    EXPECT_NE(fwd.value, wg.value);
    EXPECT_NE(bwd.value, wg.value);

    // The phase only selects which cells a run addresses — it is
    // deliberately not hashed, so an inference sweep's Forward cell is
    // the *same* cell a training sweep simulates.
    RunConfig inf = cfg;
    inf.phase = WorkloadPhase::Inference;
    EXPECT_EQ(TaskKey::forOp(inf, m, 0, TrainOp::Forward, 0.5).value,
              fwd.value);
}

TEST(WorkloadPhaseTest, InferenceSweepIsBornWarmFromATrainingRun)
{
    const std::string dir = freshCacheDir("td_phase_warm");
    ResultStore::shared().clearMemo();
    RunConfig cfg = phaseConfig(31002);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = tinyModels();

    SweepResult training = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(training.simulated, training.cellCount());
    EXPECT_EQ(training.cellCount(), 3 * training.taskCount());

    // A fresh process (memo cleared, disk shared) sweeping inference
    // simulates nothing: every Forward cell is already on disk.
    ResultStore::shared().clearMemo();
    RunConfig inf = cfg;
    inf.phase = WorkloadPhase::Inference;
    SweepResult inference = ModelRunner(inf).runMany(models);
    EXPECT_EQ(inference.simulated, 0u);
    EXPECT_EQ(inference.cache_hits, inference.cellCount());
    EXPECT_EQ(inference.cellCount(), inference.taskCount());

    for (size_t m = 0; m < models.size(); ++m) {
        const ModelRunResult &t = training.at(m);
        const ModelRunResult &i = inference.at(m);
        ASSERT_EQ(t.ops.size(), 3u);
        ASSERT_EQ(i.ops.size(), 1u);
        EXPECT_EQ(i.ops[0].op, TrainOp::Forward);
        // The shared cell is bit-identical, not just close.
        const OpResult *fwd = t.findOp(TrainOp::Forward);
        ASSERT_NE(fwd, nullptr);
        EXPECT_EQ(opBytes(*fwd), opBytes(i.ops[0]));
        // Ops the phase doesn't run are absent, and the accessors
        // degrade to neutral values instead of faulting.
        EXPECT_EQ(i.findOp(TrainOp::BackwardData), nullptr);
        EXPECT_EQ(i.opSpeedup(TrainOp::BackwardData), 1.0);
        EXPECT_EQ(i.opPotential(TrainOp::BackwardWeights), 1.0);
        // A single-op phase's total is that op.
        EXPECT_EQ(i.total.td_cycles, i.ops[0].td_cycles);
        EXPECT_EQ(i.total.base_cycles, i.ops[0].base_cycles);
    }

    // The two sweeps address different cell sets, so their grid
    // fingerprints differ — shard files never cross-merge.
    EXPECT_NE(training.fingerprint, inference.fingerprint);
    ResultStore::shared().clearMemo();
}

TEST(WorkloadPhaseTest, PhaseAxisSweepsBothPhasesInOneGrid)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = phaseConfig(31003);
    SweepSpec spec;
    spec.models = tinyModels();
    spec.axes = {phaseAxis()};

    SweepResult sweep = ModelRunner(cfg).runSweep(spec);
    ASSERT_EQ(sweep.variantCount(), 2u);
    EXPECT_EQ(sweep.variants[0], "phase=training");
    EXPECT_EQ(sweep.variants[1], "phase=inference");
    EXPECT_EQ(sweep.variantPhase(0), WorkloadPhase::Training);
    EXPECT_EQ(sweep.variantPhase(1), WorkloadPhase::Inference);
    // 5 layer slots x (3 training + 1 inference ops).
    EXPECT_EQ(sweep.cellCount(), 20u);
    EXPECT_EQ(sweep.cache_hits + sweep.simulated, sweep.cellCount());

    // Both variants' Forward aggregates are bit-identical: they are
    // reduced from the same cells.
    for (size_t m = 0; m < spec.models.size(); ++m) {
        const ModelRunResult &t = sweep.at(m, 0, 0);
        const ModelRunResult &i = sweep.at(m, 0, 1);
        ASSERT_EQ(t.ops.size(), 3u);
        ASSERT_EQ(i.ops.size(), 1u);
        const OpResult *fwd = t.findOp(TrainOp::Forward);
        ASSERT_NE(fwd, nullptr);
        EXPECT_EQ(opBytes(*fwd), opBytes(i.ops[0]));
    }

    // A rerun is fully warm, and the grid round-trips through the
    // phase-aware serial format.
    SweepResult warm = ModelRunner(cfg).runSweep(spec);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());

    std::vector<uint8_t> bytes = sweep.serialize();
    SweepResult restored;
    ASSERT_TRUE(SweepResult::deserialize(bytes, &restored));
    EXPECT_EQ(restored.serialize(), bytes);
    EXPECT_EQ(restored.variantPhase(1), WorkloadPhase::Inference);
    EXPECT_EQ(restored.at(0, 0, 1).ops.size(), 1u);
    EXPECT_EQ(restored.at(0, 0, 1).total.td_cycles,
              sweep.at(0, 0, 1).total.td_cycles);
    ResultStore::shared().clearMemo();
}

TEST(WorkloadPhaseTest, FcLoweringsComputeTheReferenceMatmuls)
{
    Rng rng(12);
    Tensor acts(3, 24, 1, 1);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.4f);
    Tensor weights(10, 24, 1, 1);
    weights.fillSmallInt(rng, 3);
    weights.dropout(rng, 0.5f);
    Tensor go(3, 10, 1, 1);
    go.fillSmallInt(rng, 3);
    go.dropout(rng, 0.5f);

    AcceleratorConfig cfg;
    cfg.max_sampled_macs = 0;
    Accelerator accel(cfg);
    Dataflow df(cfg.dataflow(true));

    Tensor o = accel.runFunctional(df.lowerFcForward(acts, weights));
    EXPECT_EQ(o.maxAbsDiff(fcForward(acts, weights)), 0.0f);

    Tensor ga = accel.runFunctional(
        df.lowerFcBackwardData(go, weights, acts.shape()));
    EXPECT_EQ(ga.maxAbsDiff(fcBackwardData(go, weights)), 0.0f);

    Tensor gw =
        accel.runFunctional(df.lowerFcBackwardWeights(go, acts));
    EXPECT_EQ(gw.maxAbsDiff(fcBackwardWeights(go, acts)), 0.0f);
}

TEST(WorkloadPhaseTest, RecommenderZooModelsAreValidFcStacks)
{
    std::vector<ModelProfile> models = ModelZoo::recommenderModels();
    ASSERT_EQ(models.size(), 2u);
    for (const ModelProfile &m : models) {
        m.validate(); // must not panic
        EXPECT_FALSE(m.layers.empty());
        for (const LayerSpec &l : m.layers) {
            EXPECT_TRUE(l.fc);
            EXPECT_EQ(l.in_hw, 1);
            EXPECT_EQ(l.kernel, 1);
        }
        // The by-name lookup covers the new models too.
        EXPECT_EQ(ModelZoo::byName(m.name).name, m.name);
    }
}

TEST(ModelValidationTest, InvalidLayerAndModelSpecsPanic)
{
    setLogThrowMode(true);

    ModelProfile empty;
    empty.name = "empty";
    EXPECT_THROW(empty.validate(), SimError);

    ModelProfile bad_batch = tinyModel();
    bad_batch.batch = 0;
    EXPECT_THROW(bad_batch.validate(), SimError);

    ModelProfile bad_channels = tinyModel();
    bad_channels.layers[0].in_c = 0;
    EXPECT_THROW(bad_channels.validate(), SimError);

    ModelProfile bad_stride = tinyModel();
    bad_stride.layers[1].stride = 0;
    EXPECT_THROW(bad_stride.validate(), SimError);

    ModelProfile bad_pad = tinyModel();
    bad_pad.layers[0].pad = -1;
    EXPECT_THROW(bad_pad.validate(), SimError);

    // Geometry that collapses to an empty output is diagnosed even
    // though every individual field is in range.
    ModelProfile collapsed = tinyModel();
    collapsed.layers[0].kernel = 12;
    collapsed.layers[0].pad = 0;
    EXPECT_THROW(collapsed.validate(), SimError);

    // The runner and the synthesis path both validate up front, so a
    // malformed profile fails loudly instead of simulating nonsense.
    RunConfig cfg = phaseConfig(31004);
    const std::vector<ModelProfile> bad_models = {bad_channels};
    EXPECT_THROW(ModelRunner(cfg).runMany(bad_models), SimError);
    Rng rng(1);
    EXPECT_THROW(ModelZoo::synthesize(collapsed, collapsed.layers[0],
                                      0.5, rng),
                 SimError);

    // Sane profiles pass.
    tinyModel().validate();
    tinyModelB().validate();
    setLogThrowMode(false);
}

} // namespace
} // namespace tensordash
