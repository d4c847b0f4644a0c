/**
 * @file
 * Tests for the dataflow lowering (paper section 2 / Table 1 mapped
 * onto tiles).  The gold standard: exhaustive functional lowering run
 * through tiles must reproduce the reference convolutions exactly for
 * all three training operations, across strides and paddings.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/hashing.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "models/model_zoo.hh"
#include "sim/accelerator.hh"
#include "sim/dataflow.hh"
#include "sim/tile.hh"
#include "tensor/conv_ref.hh"

namespace tensordash {
namespace {

DataflowConfig
funcConfig()
{
    DataflowConfig cfg;
    cfg.with_values = true;
    cfg.max_sampled_macs = 0; // exhaustive
    return cfg;
}

/** Run a lowered op through a tile and scatter into a tensor. */
Tensor
executeLowered(const LoweredOp &lowered, const TileConfig &tcfg)
{
    Tile tile(tcfg);
    Tensor out(lowered.out_shape);
    TileStats stats;
    std::vector<std::vector<double>> outputs;
    for (size_t j = 0; j < lowered.jobs.size(); ++j) {
        tile.run(lowered.jobs[j], stats, &outputs);
        Dataflow::scatter(lowered, j, outputs, out);
    }
    return out;
}

/** Parameterised functional equivalence across geometries. */
class DataflowFunctional : public ::testing::TestWithParam<
    std::tuple<int, int, int, int, int, int, int>>
{
    // (N, C, F, H, K, stride, pad)
};

TEST_P(DataflowFunctional, ForwardMatchesReference)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(11);
    Tensor acts(n, c, h, h);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.4f);
    Tensor weights(f, c, k, k);
    weights.fillSmallInt(rng, 3);
    ConvSpec spec{stride, pad};

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, spec);
    EXPECT_TRUE(lowered.exhaustive());
    Tensor got = executeLowered(lowered, TileConfig{});
    Tensor want = conv2dForward(acts, weights, spec);
    EXPECT_EQ(got.shape(), want.shape());
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST_P(DataflowFunctional, BackwardDataMatchesReference)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(13);
    Tensor acts(n, c, h, h);
    Tensor weights(f, c, k, k);
    weights.fillSmallInt(rng, 3);
    ConvSpec spec{stride, pad};
    int oh = spec.outDim(h, k);
    Tensor go(n, f, oh, oh);
    go.fillSmallInt(rng, 3);
    go.dropout(rng, 0.5f);

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerBackwardData(go, weights, acts.shape(),
                                             spec);
    Tensor got = executeLowered(lowered, TileConfig{});
    Tensor want = conv2dBackwardData(go, weights, acts.shape(), spec);
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST_P(DataflowFunctional, BackwardWeightsMatchesReference)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(17);
    Tensor acts(n, c, h, h);
    acts.fillSmallInt(rng, 2);
    acts.dropout(rng, 0.3f);
    Tensor weights(f, c, k, k);
    ConvSpec spec{stride, pad};
    int oh = spec.outDim(h, k);
    Tensor go(n, f, oh, oh);
    go.fillSmallInt(rng, 2);
    go.dropout(rng, 0.6f);

    Dataflow df(funcConfig());
    for (WgSide side : {WgSide::Gradients, WgSide::Activations,
                        WgSide::Auto}) {
        LoweredOp lowered = df.lowerBackwardWeights(go, acts, k, k, spec,
                                                    side);
        Tensor got = executeLowered(lowered, TileConfig{});
        Tensor want = conv2dBackwardWeights(go, acts, k, k, spec);
        EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
    }
}

/** (N, C, F, H, K, stride, pad) conv geometries the suites sweep. */
const std::tuple<int, int, int, int, int, int, int> kGeometries[] = {
    std::make_tuple(1, 3, 2, 6, 3, 1, 1),
    std::make_tuple(2, 4, 4, 6, 3, 1, 0),
    std::make_tuple(1, 2, 3, 8, 3, 2, 1),
    std::make_tuple(2, 17, 5, 5, 3, 1, 1),  // channels > lanes
    std::make_tuple(1, 1, 1, 7, 1, 1, 0),   // 1x1 kernel
    std::make_tuple(1, 5, 2, 9, 5, 2, 2),
    std::make_tuple(2, 33, 3, 4, 2, 2, 0),
    std::make_tuple(1, 4, 2, 7, 2, 2, 0),   // does not tile exactly
    // One-pixel output maps: WxG reduces over the batch alone.
    std::make_tuple(3, 5, 4, 3, 3, 1, 0),
    std::make_tuple(2, 3, 2, 1, 3, 1, 1),   // taps fall in padding
    std::make_tuple(5, 20, 3, 1, 1, 1, 0)}; // FC, channels > lanes

INSTANTIATE_TEST_SUITE_P(Geometries, DataflowFunctional,
                         ::testing::ValuesIn(kGeometries));

TEST(Dataflow, FcLayerLowersAsConv)
{
    // Fully connected = conv with 1x1 spatial (paper section 2.1).
    Rng rng(19);
    Tensor acts(4, 40, 1, 1);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.5f);
    Tensor weights(24, 40, 1, 1);
    weights.fillSmallInt(rng, 3);

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 0});
    Tensor got = executeLowered(lowered, TileConfig{});
    Tensor want = fcForward(acts, weights);
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST(Dataflow, StepsCoverReductionWithPadding)
{
    Rng rng(23);
    Tensor acts(1, 20, 6, 6); // 20 channels -> 2 rows per (ky,kx) pair?
    acts.fillSmallInt(rng, 2);
    Tensor weights(2, 20, 3, 3);
    weights.fillSmallInt(rng, 2);
    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    // reduction = 20*9 = 180 -> ceil(180/16) = 12 steps.
    EXPECT_EQ(lowered.steps, 12);
    for (const auto &job : lowered.jobs)
        for (const auto &s : job.b)
            EXPECT_EQ(s.rows(), 12);
}

TEST(Dataflow, TotalMacSlotsAccounting)
{
    Tensor acts(1, 16, 4, 4);
    Tensor weights(8, 16, 1, 1);
    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 0});
    // windows = 16, filters = 8, steps = 1, lanes = 16.
    EXPECT_EQ(lowered.total_mac_slots, 16u * 8u * 1u * 16u);
    EXPECT_EQ(lowered.total_jobs, 4u * 2u);
    EXPECT_TRUE(lowered.exhaustive());
}

TEST(Dataflow, SamplingCapsWorkAndSetsWeights)
{
    Rng rng(29);
    Tensor acts(2, 32, 12, 12);
    acts.fillNormal(rng);
    Tensor weights(16, 32, 3, 3);
    weights.fillNormal(rng);

    DataflowConfig cfg;
    cfg.max_sampled_macs = 100000;
    Dataflow df(cfg);
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    EXPECT_LT(lowered.sampled_jobs, lowered.total_jobs);
    EXPECT_GT(lowered.sampled_jobs, 0u);
    uint64_t macs_per_job = (uint64_t)lowered.steps * 16 * 4 * 4;
    EXPECT_LE(lowered.sampled_jobs * macs_per_job, 100000u + macs_per_job);
    for (const auto &job : lowered.jobs)
        EXPECT_NEAR(job.weight,
                    (double)lowered.total_jobs / lowered.sampled_jobs,
                    1e-9);
}

TEST(Dataflow, SamplingPreservesSparsityEstimate)
{
    // The sampled B-side sparsity must track the tensor's sparsity.
    Rng rng(31);
    Tensor acts(2, 64, 12, 12);
    acts.fill(1.0f);
    acts.dropout(rng, 0.55f);
    Tensor weights(16, 64, 3, 3);
    weights.fill(1.0f);

    DataflowConfig cfg;
    cfg.max_sampled_macs = 400000;
    Dataflow df(cfg);
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    double sampled_density =
        (double)lowered.b_nonzero_slots / (double)lowered.b_total_slots;
    // Window gathers include boundary-padding zeros (~11% of taps for
    // 3x3/pad-1 on 12x12), so density sits just below
    // (1 - 0.55) * 0.89 ~= 0.40.
    EXPECT_NEAR(sampled_density, 0.45 * 0.89, 0.04);
}

TEST(Dataflow, BackwardWeightsAutoPicksSparserTensor)
{
    Rng rng(37);
    Tensor acts(1, 8, 8, 8);
    acts.fill(1.0f); // dense activations
    Tensor go(1, 4, 6, 6);
    go.fill(1.0f);
    go.dropout(rng, 0.9f); // very sparse gradients

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerBackwardWeights(go, acts, 3, 3,
                                                ConvSpec{1, 0},
                                                WgSide::Auto);
    EXPECT_TRUE(lowered.wg_b_is_gradients);

    // Flip the sparsity: activations much sparser.
    Tensor acts2(1, 8, 8, 8);
    acts2.fill(1.0f);
    acts2.dropout(rng, 0.9f);
    Tensor go2(1, 4, 6, 6);
    go2.fill(1.0f);
    LoweredOp lowered2 = df.lowerBackwardWeights(go2, acts2, 3, 3,
                                                 ConvSpec{1, 0},
                                                 WgSide::Auto);
    EXPECT_FALSE(lowered2.wg_b_is_gradients);
}

TEST(Dataflow, DilationZerosAppearForStride2)
{
    // With stride 2, the dilated gradient windows of Eq. 6 contain
    // structural zeros; the lowered B streams must reflect them even
    // when GO itself is fully dense.
    Rng rng(41);
    Tensor acts(1, 2, 8, 8);
    Tensor weights(4, 2, 3, 3);
    weights.fillSmallInt(rng, 2);
    ConvSpec spec{2, 1};
    int oh = spec.outDim(8, 3);
    Tensor go(1, 4, oh, oh);
    go.fill(1.0f); // dense

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerBackwardData(go, weights, acts.shape(),
                                             spec);
    double density =
        (double)lowered.b_nonzero_slots / (double)lowered.b_total_slots;
    EXPECT_LT(density, 0.6); // dilation holes dominate
    EXPECT_GT(density, 0.05);
}

TEST(Dataflow, TrainOpNames)
{
    EXPECT_STREQ(trainOpName(TrainOp::Forward), "AxW");
    EXPECT_STREQ(trainOpName(TrainOp::BackwardData), "AxG");
    EXPECT_STREQ(trainOpName(TrainOp::BackwardWeights), "WxG");
}

TEST(Dataflow, AcceleratorFunctionalPath)
{
    // End-to-end through Accelerator::runFunctional.
    Rng rng(43);
    Tensor acts(1, 6, 6, 6);
    acts.fillSmallInt(rng, 2);
    acts.dropout(rng, 0.5f);
    Tensor weights(4, 6, 3, 3);
    weights.fillSmallInt(rng, 2);
    ConvSpec spec{1, 1};

    AcceleratorConfig cfg;
    cfg.max_sampled_macs = 0;
    Accelerator accel(cfg);
    Dataflow df(cfg.dataflow(true));
    Tensor got = accel.runFunctional(df.lowerForward(acts, weights,
                                                     spec));
    Tensor want = conv2dForward(acts, weights, spec);
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST(Dataflow, BackwardDataRejectsMismatchedInputShape)
{
    // GO (1, 4, 4, 4) and W (4, 2, 3, 3) come from a (1, 2, 6, 6)
    // input under stride 1, pad 0.
    Tensor go(1, 4, 4, 4);
    Tensor weights(4, 2, 3, 3);
    ConvSpec spec{1, 0};
    Dataflow df(funcConfig());
    EXPECT_NO_THROW(df.lowerBackwardData(go, weights, Shape{1, 2, 6, 6},
                                         spec));
    setLogThrowMode(true);
    EXPECT_THROW(df.lowerBackwardData(go, weights, Shape{2, 2, 6, 6}, spec),
                 SimError);
    EXPECT_THROW(df.lowerBackwardData(go, weights, Shape{1, 3, 6, 6}, spec),
                 SimError);
    EXPECT_THROW(df.lowerBackwardData(go, weights, Shape{1, 2, 8, 6}, spec),
                 SimError);
    EXPECT_THROW(df.lowerBackwardData(go, weights, Shape{1, 2, 6, 8}, spec),
                 SimError);
    setLogThrowMode(false);
}

TEST(Dataflow, FcBackwardDataRejectsMismatchedInputShape)
{
    Tensor go(4, 8, 1, 1);
    Tensor weights(8, 5, 1, 1);
    Dataflow df(funcConfig());
    EXPECT_NO_THROW(df.lowerFcBackwardData(go, weights, Shape{4, 5, 1, 1}));
    setLogThrowMode(true);
    EXPECT_THROW(df.lowerFcBackwardData(go, weights, Shape{5, 5, 1, 1}),
                 SimError);
    EXPECT_THROW(df.lowerFcBackwardData(go, weights, Shape{4, 6, 1, 1}),
                 SimError);
    setLogThrowMode(false);
}

/** Every lowering of @p t's three ops under every side policy. */
std::vector<LoweredOp>
lowerEverySide(const Dataflow &df, const LayerTensors &t, bool fc)
{
    std::vector<LoweredOp> out;
    const Shape &in = t.acts.shape();
    int k = t.weights.shape().h;
    for (FwdSide side : {FwdSide::Activations, FwdSide::Weights,
                         FwdSide::Auto}) {
        out.push_back(fc ? df.lowerFcForward(t.acts, t.weights, side)
                         : df.lowerForward(t.acts, t.weights, t.spec,
                                           side));
    }
    for (BwdDataSide side : {BwdDataSide::Gradients, BwdDataSide::Weights,
                             BwdDataSide::Auto}) {
        out.push_back(fc
            ? df.lowerFcBackwardData(t.grads, t.weights, in, side)
            : df.lowerBackwardData(t.grads, t.weights, in, t.spec, side));
    }
    for (WgSide side : {WgSide::Gradients, WgSide::Activations,
                        WgSide::Auto}) {
        out.push_back(fc
            ? df.lowerFcBackwardWeights(t.grads, t.acts, side)
            : df.lowerBackwardWeights(t.grads, t.acts, k, k, t.spec,
                                      side));
    }
    return out;
}

/** Mask-mode streams must be the zero pattern of value-mode ones. */
void
expectMaskMatchesValues(const std::vector<BlockStream> &masks,
                        const std::vector<BlockStream> &values)
{
    ASSERT_EQ(masks.size(), values.size());
    for (size_t s = 0; s < masks.size(); ++s) {
        ASSERT_FALSE(masks[s].hasValues());
        ASSERT_TRUE(values[s].hasValues());
        ASSERT_EQ(masks[s].rows(), values[s].rows());
        ASSERT_EQ(masks[s].lanes(), values[s].lanes());
        for (int r = 0; r < masks[s].rows(); ++r) {
            uint32_t pattern = 0;
            for (int l = 0; l < values[s].lanes(); ++l)
                if (values[s].value(r, l) != 0.0f)
                    pattern |= 1u << l;
            EXPECT_EQ(values[s].nzMask(r), pattern);
            EXPECT_EQ(masks[s].nzMask(r), pattern) << "stream " << s
                                                   << " row " << r;
        }
    }
}

void
expectMaskModeMatchesValueMode(const LayerTensors &t, bool fc)
{
    for (int lanes : {4, 16, 32}) {
        for (uint64_t cap : {uint64_t{0}, uint64_t{3000}}) {
            SCOPED_TRACE(testing::Message() << "lanes " << lanes
                                            << " cap " << cap);
            DataflowConfig cfg;
            cfg.lanes = lanes;
            cfg.max_sampled_macs = cap;
            cfg.seed = 5;
            std::vector<LoweredOp> masks =
                lowerEverySide(Dataflow(cfg), t, fc);
            cfg.with_values = true;
            std::vector<LoweredOp> values =
                lowerEverySide(Dataflow(cfg), t, fc);
            ASSERT_EQ(masks.size(), values.size());
            for (size_t i = 0; i < masks.size(); ++i) {
                const LoweredOp &m = masks[i];
                const LoweredOp &v = values[i];
                SCOPED_TRACE(testing::Message() << "lowering " << i);
                EXPECT_EQ(m.steps, v.steps);
                EXPECT_EQ(m.total_jobs, v.total_jobs);
                EXPECT_EQ(m.sampled_jobs, v.sampled_jobs);
                EXPECT_EQ(m.b_nonzero_slots, v.b_nonzero_slots);
                EXPECT_EQ(m.b_total_slots, v.b_total_slots);
                EXPECT_EQ(m.job_b_ids, v.job_b_ids);
                EXPECT_EQ(m.job_a_ids, v.job_a_ids);
                EXPECT_EQ(m.b_is_default_side, v.b_is_default_side);
                EXPECT_EQ(m.wg_b_is_gradients, v.wg_b_is_gradients);
                ASSERT_EQ(m.jobs.size(), v.jobs.size());
                for (size_t j = 0; j < m.jobs.size(); ++j) {
                    EXPECT_EQ(m.jobs[j].weight, v.jobs[j].weight);
                    expectMaskMatchesValues(m.jobs[j].b, v.jobs[j].b);
                    // Mask mode gathers no A side: one empty
                    // placeholder per column (the ids compared above
                    // name them), where value mode gathers full rows.
                    ASSERT_EQ(m.jobs[j].a.size(), v.jobs[j].a.size());
                    ASSERT_EQ(m.jobs[j].a.size(), m.job_a_ids[j].size());
                    for (size_t c = 0; c < m.jobs[j].a.size(); ++c) {
                        const BlockStream &ma = m.jobs[j].a[c];
                        EXPECT_FALSE(ma.hasValues());
                        EXPECT_EQ(ma.rows(), 0);
                        EXPECT_EQ(ma.lanes(), lanes);
                        EXPECT_TRUE(v.jobs[j].a[c].hasValues());
                        EXPECT_EQ(v.jobs[j].a[c].rows(), v.steps);
                    }
                }
            }
        }
    }
}

TEST(Dataflow, MaskModeMatchesValueModeZeros)
{
    Rng rng(47);
    for (const auto &[n, c, f, h, k, stride, pad] : kGeometries) {
        SCOPED_TRACE(testing::Message() << n << "x" << c << "x" << h
                                        << " f" << f << " k" << k << " s"
                                        << stride << " p" << pad);
        LayerTensors t;
        t.spec = ConvSpec{stride, pad};
        t.acts = Tensor(n, c, h, h);
        t.acts.fillSmallInt(rng, 2);
        t.acts.dropout(rng, 0.4f);
        t.weights = Tensor(f, c, k, k);
        t.weights.fillSmallInt(rng, 2);
        t.weights.dropout(rng, 0.3f);
        int oh = t.spec.outDim(h, k);
        t.grads = Tensor(n, f, oh, oh);
        t.grads.fillSmallInt(rng, 2);
        t.grads.dropout(rng, 0.5f);
        expectMaskModeMatchesValueMode(t, false);
    }
    // FC shapes: reductions shorter than, equal to and longer than a
    // lane row.
    for (const auto &[n, c, f] : {std::make_tuple(3, 5, 7),
                                  std::make_tuple(4, 16, 9),
                                  std::make_tuple(6, 40, 24)}) {
        SCOPED_TRACE(testing::Message() << "fc " << n << "x" << c << "->"
                                        << f);
        LayerTensors t;
        t.acts = Tensor(n, c, 1, 1);
        t.acts.fillSmallInt(rng, 2);
        t.acts.dropout(rng, 0.4f);
        t.weights = Tensor(f, c, 1, 1);
        t.weights.fillSmallInt(rng, 2);
        t.weights.dropout(rng, 0.3f);
        t.grads = Tensor(n, f, 1, 1);
        t.grads.fillSmallInt(rng, 2);
        t.grads.dropout(rng, 0.5f);
        expectMaskModeMatchesValueMode(t, true);
    }
}

/** FNV over every job's ids and every B and A mask row (of a
 * value-mode lowering: mask mode gathers no A masks). */
uint64_t
maskFingerprint(const LoweredOp &lowered)
{
    FnvHasher h;
    h.u64(lowered.jobs.size());
    for (size_t j = 0; j < lowered.jobs.size(); ++j) {
        for (const auto *ids : {&lowered.job_b_ids[j],
                                &lowered.job_a_ids[j]}) {
            h.u64(ids->size());
            for (int id : *ids)
                h.i64(id);
        }
        for (const auto *streams : {&lowered.jobs[j].b,
                                    &lowered.jobs[j].a}) {
            h.u64(streams->size());
            for (const BlockStream &s : *streams) {
                h.u64((uint64_t)s.rows());
                for (int r = 0; r < s.rows(); ++r)
                    h.u64(s.nzMask(r));
            }
        }
    }
    return h.value();
}

TEST(Dataflow, LoweringKnownAnswer)
{
    // Every mask of AxW, AxG and WxG on synthesized zoo layers at
    // fig13's lowering config (4x4 tile, 16 lanes, 600k cap), under
    // the default and the flipped side.  The constants pin the
    // gathers: any change to which operand lands in which lane of
    // which job moves a fingerprint.  The lowerings keep values so
    // both sides' masks exist; by MaskModeMatchesValueModeZeros they
    // are the mask-mode B masks, so the constants are those of mask
    // mode when it gathered both sides.
    struct Case
    {
        const char *model;
        const char *layer;
        uint64_t want[6]; ///< AxW, AxG, WxG; default then flipped side
    };
    const Case cases[] = {
        {"VGG16", "conv1_1", // first conv, C = 3
         {0x11cccfdbc2037e8full, 0x95b4eca4cc6ad090ull,
          0x78b75cfd0569acadull, 0x5a9a0ff0a6339b93ull,
          0xe753debffab16910ull, 0x8359d72cc3338c5cull}},
        {"SqueezeNet", "conv1", // 7x7, stride 2, pad 3
         {0xc1d8a21275c95651ull, 0x3d0c8cd503c8b5ddull,
          0x2a5f6929c6276a2full, 0x28161344af4bf8ffull,
          0xd3bc9ec968e97339ull, 0x10fddecc81f131d6ull}},
        {"resnet50_DS90", "s2.1x1a", // 1x1, pruned weights
         {0x3301fe5616229dd4ull, 0x965171bcd710cbd2ull,
          0x829ee4653571e6dcull, 0x0389d6ff741a0ef5ull,
          0xde119605b318de62ull, 0x23b30f96b87c8a77ull}},
        {"SNLI", "cls1", // FC
         {0xdbcb26e4b46a9f32ull, 0x5bd4e9cc80c7f977ull,
          0xb64622f9d6a3609aull, 0x96faaf10b5d3c7bcull,
          0xc1bd2b2c78096f65ull, 0x52c1d24c6c45665aull}},
    };
    DataflowConfig cfg;
    cfg.max_sampled_macs = 600000;
    cfg.seed = 7;
    cfg.with_values = true;
    Dataflow df(cfg);
    for (const Case &c : cases) {
        ModelProfile model = ModelZoo::byName(c.model);
        const LayerSpec *layer = nullptr;
        for (const LayerSpec &l : model.layers)
            if (l.name == c.layer)
                layer = &l;
        ASSERT_NE(layer, nullptr) << c.model << " " << c.layer;
        Rng rng(1234);
        LayerTensors lt = ModelZoo::synthesize(model, *layer, 0.5, rng);
        const Tensor &a = lt.acts;
        const Tensor &w = lt.weights;
        const Tensor &g = lt.grads;
        int k = layer->kernel;
        uint64_t got[6];
        got[0] = maskFingerprint(
            df.lowerForward(a, w, lt.spec, FwdSide::Activations));
        got[1] = maskFingerprint(df.lowerBackwardData(
            g, w, a.shape(), lt.spec, BwdDataSide::Gradients));
        got[2] = maskFingerprint(df.lowerBackwardWeights(
            g, a, k, k, lt.spec, WgSide::Gradients));
        got[3] = maskFingerprint(
            df.lowerForward(a, w, lt.spec, FwdSide::Weights));
        got[4] = maskFingerprint(df.lowerBackwardData(
            g, w, a.shape(), lt.spec, BwdDataSide::Weights));
        got[5] = maskFingerprint(df.lowerBackwardWeights(
            g, a, k, k, lt.spec, WgSide::Activations));
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(got[i], c.want[i])
                << c.model << " " << c.layer << " lowering " << i
                << ": 0x" << FnvHasher::toHex(got[i]);
        }
    }
}

} // namespace
} // namespace tensordash
