/**
 * @file
 * Integration tests for the accelerator top level: lowering + tiles +
 * memory traffic + energy, the split of an op into its tile-array
 * half and its per-config finish, plus the power-gating behaviour of
 * paper section 3.5.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "sim/accelerator.hh"

namespace tensordash {
namespace {

struct ConvTensors
{
    Tensor acts;
    Tensor weights;
    Tensor go;
    ConvSpec spec;
};

ConvTensors
makeLayer(Rng &rng, double act_sparsity, double grad_sparsity,
          int n = 2, int c = 32, int h = 10, int f = 16, int k = 3,
          int pad = 1)
{
    ConvSpec spec{1, pad};
    ConvTensors t{Tensor(n, c, h, h), Tensor(f, c, k, k),
                  Tensor(n, f, spec.outDim(h, k), spec.outDim(h, k)),
                  spec};
    t.acts.fillNormal(rng);
    t.acts.dropout(rng, (float)act_sparsity);
    t.weights.fillNormal(rng);
    t.go.fillNormal(rng);
    t.go.dropout(rng, (float)grad_sparsity);
    return t;
}

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg;
    cfg.tiles = 4;
    cfg.max_sampled_macs = 300000;
    // These tests pin down the compute model (tile cycles, speedup
    // bounds, exact tile-count scaling), so they run with the analytic
    // memory charge; the pipelined model has its own suite in
    // test_memory_pipeline.cc.
    cfg.memory_model = MemoryModel::Analytic;
    return cfg;
}

TEST(Accelerator, DenseLayerGetsNoSpeedupButNoSlowdown)
{
    // pad = 0 so no boundary-halo zeros exist: streams are fully dense
    // and TensorDash must match the baseline cycle for cycle.
    Rng rng(1);
    ConvTensors t = makeLayer(rng, 0.0, 0.0, 2, 32, 10, 16, 3, 0);
    Accelerator accel(smallConfig());
    OpResult r = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec);
    EXPECT_NEAR(r.speedup(), 1.0, 1e-9);
}

TEST(Accelerator, PaddingHalosAreLegitimatelySkipped)
{
    // With pad = 1 the baseline burns cycles on boundary-halo zeros;
    // TensorDash skips them, yielding a small speedup even on a fully
    // dense tensor.
    Rng rng(1);
    ConvTensors t = makeLayer(rng, 0.0, 0.0);
    Accelerator accel(smallConfig());
    OpResult r = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec);
    EXPECT_GT(r.speedup(), 1.0);
    EXPECT_LT(r.speedup(), 1.1);
}

TEST(Accelerator, SparseActivationsSpeedUpForwardOnly)
{
    Rng rng(2);
    ConvTensors t = makeLayer(rng, 0.6, 0.0);
    Accelerator accel(smallConfig());
    OpResult fwd = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                   t.go, t.spec);
    OpResult bwd = accel.runConvOp(TrainOp::BackwardData, t.acts,
                                   t.weights, t.go, t.spec);
    EXPECT_GT(fwd.speedup(), 1.5);
    // Dense gradients: backward-data sees only stride-1 full windows,
    // no sparsity -> no speedup beyond boundary effects.
    EXPECT_LT(bwd.speedup(), 1.2);
}

TEST(Accelerator, SparseGradientsSpeedUpBackward)
{
    Rng rng(3);
    ConvTensors t = makeLayer(rng, 0.0, 0.7);
    Accelerator accel(smallConfig());
    OpResult bwd_data = accel.runConvOp(TrainOp::BackwardData, t.acts,
                                        t.weights, t.go, t.spec);
    OpResult bwd_w = accel.runConvOp(TrainOp::BackwardWeights, t.acts,
                                     t.weights, t.go, t.spec);
    EXPECT_GT(bwd_data.speedup(), 1.5);
    EXPECT_GT(bwd_w.speedup(), 1.5);
}

TEST(Accelerator, SpeedupNeverExceedsStagingDepth)
{
    Rng rng(4);
    for (double sp : {0.5, 0.9, 0.99}) {
        ConvTensors t = makeLayer(rng, sp, sp);
        Accelerator accel(smallConfig());
        for (TrainOp op : {TrainOp::Forward, TrainOp::BackwardData,
                           TrainOp::BackwardWeights}) {
            OpResult r = accel.runConvOp(op, t.acts, t.weights, t.go,
                                         t.spec);
            EXPECT_LE(r.speedup(), 3.0 + 1e-9);
            EXPECT_GE(r.speedup(), 1.0 - 1e-9);
        }
    }
}

TEST(Accelerator, PotentialBoundsActualSpeedup)
{
    Rng rng(5);
    ConvTensors t = makeLayer(rng, 0.5, 0.5);
    Accelerator accel(smallConfig());
    OpResult r = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec);
    EXPECT_LE(r.speedup(),
              std::min(3.0, r.potentialSpeedup()) + 1e-9);
    EXPECT_GT(r.potentialSpeedup(), 1.5);
}

/** Bit-exact comparison handle for an op result. */
std::vector<uint8_t>
opBytes(const OpResult &r)
{
    ByteWriter w;
    r.serialize(w);
    return w.data();
}

/** An array run's bytes: its result and its traffic counts. */
std::vector<uint8_t>
arrayBytes(const ArrayRun &run)
{
    ByteWriter w;
    run.result.serialize(w);
    const OpTraffic &t = run.traffic;
    for (uint64_t v : {t.in0_nz, t.in0_total, t.in1_nz, t.in1_total,
                       t.out_total, t.transposed})
        w.u64(v);
    return w.data();
}

/** One named change to an accelerator configuration. */
using ConfigFlip =
    std::pair<const char *, std::function<void(AcceleratorConfig &)>>;

/** One flip per field AcceleratorConfig::arrayConfig() resets. */
std::vector<ConfigFlip>
finishingFlips()
{
    return {
        {"tiles", [](AcceleratorConfig &c) { c.tiles = 4; }},
        {"dtype", [](AcceleratorConfig &c) { c.dtype = DataType::Bf16; }},
        {"freq_ghz", [](AcceleratorConfig &c) { c.freq_ghz = 1.0; }},
        {"dram.channels",
         [](AcceleratorConfig &c) { c.dram.channels = 1; }},
        {"energy.sram_read_pj",
         [](AcceleratorConfig &c) { c.energy.sram_read_pj = 40.0; }},
        {"memory_model",
         [](AcceleratorConfig &c) {
             c.memory_model = c.memory_model == MemoryModel::Analytic
                 ? MemoryModel::Pipelined
                 : MemoryModel::Analytic;
         }},
        {"mem_pipeline.chunk_bytes",
         [](AcceleratorConfig &c) {
             c.mem_pipeline.chunk_bytes = 32.0 * 1024.0;
         }},
    };
}

TEST(Accelerator, TileCountDividesCycles)
{
    Rng rng(6);
    ConvTensors t = makeLayer(rng, 0.4, 0.0);
    AcceleratorConfig one = smallConfig();
    one.tiles = 1;
    AcceleratorConfig four = smallConfig();
    four.tiles = 4;
    Accelerator a1(one), a4(four);
    OpResult r1 = a1.runConvOp(TrainOp::Forward, t.acts, t.weights, t.go,
                               t.spec);
    OpResult r4 = a4.runConvOp(TrainOp::Forward, t.acts, t.weights, t.go,
                               t.spec);
    EXPECT_NEAR(r1.td_cycles / r4.td_cycles, 4.0, 1e-6);
    EXPECT_NEAR(r1.speedup(), r4.speedup(), 1e-9);

    // The finish contract: the tile count, and every other field
    // arrayConfig() resets, reaches only finishOp().  Flipping one
    // leaves the tile-array half bit-identical, and finishing that
    // half under the flipped config is runConvOp() under it, bit for
    // bit.
    const double out_sparsity = 0.3;
    const LayerNonzeros nz = LayerNonzeros::count(t.acts, t.weights, t.go);
    for (TrainOp op : {TrainOp::Forward, TrainOp::BackwardData,
                       TrainOp::BackwardWeights}) {
        const std::vector<uint8_t> base = arrayBytes(
            a1.runArray(op, t.acts, t.weights, t.go, t.spec, nz));
        for (const ConfigFlip &flip : finishingFlips()) {
            AcceleratorConfig cfg = one;
            flip.second(cfg);
            Accelerator accel(cfg);
            ArrayRun run =
                accel.runArray(op, t.acts, t.weights, t.go, t.spec, nz);
            EXPECT_EQ(arrayBytes(run), base)
                << flip.first << " op " << (int)op;
            EXPECT_EQ(opBytes(accel.finishOp(run, out_sparsity)),
                      opBytes(accel.runConvOp(op, t.acts, t.weights,
                                              t.go, t.spec,
                                              out_sparsity)))
                << flip.first << " op " << (int)op;
        }
    }
    // runArray() returns the cycle sums before the tile division.
    ArrayRun fwd = a4.runArray(TrainOp::Forward, t.acts, t.weights, t.go,
                               t.spec, nz);
    EXPECT_EQ(fwd.result.td_cycles / 4, r4.td_cycles);
}

TEST(Accelerator, ArrayConfigKeysEveryArrayField)
{
    // Two configs share an array run only when their arrayConfig()
    // fingerprints match: every field the tile-array half reads must
    // move it, and no field that only finishOp() reads may.
    const AcceleratorConfig base;
    const uint64_t fp = base.arrayConfig().fingerprint();
    const std::vector<ConfigFlip> array_fields = {
        {"tile.rows", [](AcceleratorConfig &c) { c.tile.rows = 8; }},
        {"tile.cols", [](AcceleratorConfig &c) { c.tile.cols = 8; }},
        {"tile.lanes", [](AcceleratorConfig &c) { c.tile.lanes = 8; }},
        {"tile.depth", [](AcceleratorConfig &c) { c.tile.depth = 2; }},
        {"tile.interconnect",
         [](AcceleratorConfig &c) {
             c.tile.interconnect = InterconnectKind::LookaheadOnly;
         }},
        {"max_sampled_macs",
         [](AcceleratorConfig &c) { c.max_sampled_macs = 1000; }},
        {"seed", [](AcceleratorConfig &c) { c.seed = 2; }},
        {"power_gating",
         [](AcceleratorConfig &c) { c.power_gating = true; }},
        {"gate_min_sparsity",
         [](AcceleratorConfig &c) { c.gate_min_sparsity = 0.2; }},
        {"fwd_side",
         [](AcceleratorConfig &c) { c.fwd_side = FwdSide::Weights; }},
        {"bwd_data_side",
         [](AcceleratorConfig &c) {
             c.bwd_data_side = BwdDataSide::Weights;
         }},
        {"wg_side",
         [](AcceleratorConfig &c) { c.wg_side = WgSide::Gradients; }},
    };
    for (const ConfigFlip &flip : array_fields) {
        AcceleratorConfig cfg = base;
        flip.second(cfg);
        EXPECT_NE(cfg.arrayConfig().fingerprint(), fp) << flip.first;
    }
    for (const ConfigFlip &flip : finishingFlips()) {
        AcceleratorConfig cfg = base;
        flip.second(cfg);
        EXPECT_NE(cfg.fingerprint(), base.fingerprint()) << flip.first;
        EXPECT_EQ(cfg.arrayConfig().fingerprint(), fp) << flip.first;
    }
}

/**
 * The array run the parent design made by scanning: lower through
 * Dataflow's tensor entry points (which resolve Auto sides from
 * sparsity()), run the jobs on one tile and count the operands.
 */
ArrayRun
scanningArrayRun(const AcceleratorConfig &config, TrainOp op,
                 const ConvTensors &t)
{
    Dataflow df(config.dataflow(false));
    int k = t.weights.shape().h;
    LoweredOp lowered;
    uint64_t transposed = 0;
    switch (op) {
      case TrainOp::Forward:
        lowered = df.lowerForward(t.acts, t.weights, t.spec,
                                  config.fwd_side);
        break;
      case TrainOp::BackwardData:
        lowered = df.lowerBackwardData(t.go, t.weights, t.acts.shape(),
                                       t.spec, config.bwd_data_side);
        transposed = t.weights.size();
        break;
      case TrainOp::BackwardWeights:
        lowered = df.lowerBackwardWeights(t.go, t.acts, k, k, t.spec,
                                          config.wg_side);
        transposed = t.go.size();
        break;
    }
    AcceleratorConfig one = config;
    one.tiles = 1;
    OpResult result = Accelerator(one).runOp(lowered);
    result.activity.cycles = 0.0; // runArray() leaves it to finishOp()
    const Tensor &in0 = op == TrainOp::Forward ? t.acts : t.go;
    const Tensor &in1 = op == TrainOp::BackwardWeights ? t.acts
                                                        : t.weights;
    return {result,
            {in0.nonzeros(), in0.size(), in1.nonzeros(), in1.size(),
             lowered.out_shape.size(), transposed}};
}

/** Zero every other element of @p t: sparsity exactly 0.5. */
void
zeroEveryOther(Tensor &t)
{
    t.fill(1.0f);
    for (size_t i = 0; i < t.size(); i += 2)
        t[i] = 0.0f;
}

TEST(Accelerator, CountedArrayRunMatchesScanning)
{
    // runArray() fills its traffic and resolves Auto sides from the
    // nonzero counts it is handed, and must serialize equal to the
    // scanning path under every side policy.  The tied layer's three
    // operands are all exactly half zero, so Auto keeps the default
    // side for AxW and AxG and the gradients for WxG.  Of the skewed
    // layers, the first makes Auto flip all three ops (sparsest
    // weights, densest gradients) and the second none.
    Rng rng(31);
    std::vector<ConvTensors> layers;
    layers.push_back(makeLayer(rng, 0.0, 0.0));
    zeroEveryOther(layers.back().acts);
    zeroEveryOther(layers.back().weights);
    zeroEveryOther(layers.back().go);
    layers.push_back(makeLayer(rng, 0.6, 0.3));
    layers.back().weights.dropout(rng, 0.8f);
    layers.push_back(makeLayer(rng, 0.2, 0.7));
    for (size_t i = 0; i < layers.size(); ++i) {
        const ConvTensors &t = layers[i];
        const LayerNonzeros nz =
            LayerNonzeros::count(t.acts, t.weights, t.go);
        EXPECT_EQ(nz.acts, t.acts.nonzeros());
        EXPECT_EQ(nz.weights, t.weights.nonzeros());
        EXPECT_EQ(nz.grads, t.go.nonzeros());
        for (int side = 0; side < 3; ++side) {
            AcceleratorConfig cfg = smallConfig();
            cfg.fwd_side = (FwdSide)side;
            cfg.bwd_data_side = (BwdDataSide)side;
            cfg.wg_side = (WgSide)side;
            Accelerator accel(cfg);
            for (TrainOp op : {TrainOp::Forward, TrainOp::BackwardData,
                               TrainOp::BackwardWeights}) {
                EXPECT_EQ(arrayBytes(accel.runArray(op, t.acts, t.weights,
                                                    t.go, t.spec, nz)),
                          arrayBytes(scanningArrayRun(cfg, op, t)))
                    << "layer " << i << " side " << side << " op "
                    << (int)op;
            }
        }
    }
    // The ties resolve to the default sides.
    const ConvTensors &tied = layers[0];
    AcceleratorConfig autos = smallConfig();
    autos.fwd_side = FwdSide::Auto;
    autos.bwd_data_side = BwdDataSide::Auto;
    autos.wg_side = WgSide::Auto;
    AcceleratorConfig defaults = smallConfig();
    defaults.fwd_side = FwdSide::Activations;
    defaults.bwd_data_side = BwdDataSide::Gradients;
    defaults.wg_side = WgSide::Gradients;
    for (TrainOp op : {TrainOp::Forward, TrainOp::BackwardData,
                       TrainOp::BackwardWeights}) {
        EXPECT_EQ(arrayBytes(scanningArrayRun(autos, op, tied)),
                  arrayBytes(scanningArrayRun(defaults, op, tied)))
            << "op " << (int)op;
    }
}

TEST(Accelerator, MemoryTrafficCharged)
{
    Rng rng(7);
    ConvTensors t = makeLayer(rng, 0.5, 0.5);
    Accelerator accel(smallConfig());
    OpResult fwd = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                   t.go, t.spec, 0.5);
    EXPECT_GT(fwd.activity.dram_read_bytes, 0.0);
    EXPECT_GT(fwd.activity.dram_write_bytes, 0.0);
    EXPECT_GT(fwd.activity.sram_block_reads, 0.0);
    EXPECT_EQ(fwd.activity.transposer_groups, 0.0); // no transpose

    OpResult bwd = accel.runConvOp(TrainOp::BackwardData, t.acts,
                                   t.weights, t.go, t.spec, 0.5);
    EXPECT_GT(bwd.activity.transposer_groups, 0.0);
}

TEST(Accelerator, CompressedTrafficShrinksWithSparsity)
{
    Rng rng(8);
    ConvTensors dense = makeLayer(rng, 0.0, 0.0);
    ConvTensors sparse = makeLayer(rng, 0.9, 0.0);
    Accelerator accel(smallConfig());
    OpResult rd = accel.runConvOp(TrainOp::Forward, dense.acts,
                                  dense.weights, dense.go, dense.spec);
    OpResult rs = accel.runConvOp(TrainOp::Forward, sparse.acts,
                                  sparse.weights, sparse.go, sparse.spec);
    EXPECT_LT(rs.activity.dram_read_bytes, rd.activity.dram_read_bytes);
}

TEST(Accelerator, EnergyEfficiencyTracksSpeedup)
{
    Rng rng(9);
    ConvTensors t = makeLayer(rng, 0.65, 0.0);
    Accelerator accel(smallConfig());
    OpResult r = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec, 0.65);
    EnergyBreakdown base = accel.energy(r, false);
    EnergyBreakdown td = accel.energy(r, true);
    double core_eff = base.core_j / td.core_j;
    double overall_eff = base.total() / td.total();
    // Core efficiency ~ speedup / power overhead.
    EXPECT_NEAR(core_eff, r.speedup() * 13957.0 / 14205.0, 0.02);
    // Overall efficiency diluted by the (identical) memory energy.
    EXPECT_LT(overall_eff, core_eff);
    EXPECT_GT(overall_eff, 1.0);
}

TEST(Accelerator, PowerGatingSkipsSparseFrontEndWhenDense)
{
    Rng rng(10);
    ConvTensors t = makeLayer(rng, 0.0, 0.0);
    AcceleratorConfig cfg = smallConfig();
    cfg.power_gating = true;
    Accelerator accel(cfg);
    // Counters observed a dense activation tensor.
    accel.powerGate().observe("acts", 0.0);
    OpResult r = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec);
    EXPECT_TRUE(r.gated);
    EXPECT_NEAR(r.speedup(), 1.0, 1e-12);
    // Gated runs burn baseline power: no energy penalty.
    EnergyBreakdown base = accel.energy(r, false);
    EnergyBreakdown td = accel.energy(r, true);
    EXPECT_DOUBLE_EQ(base.total(), td.total());
}

TEST(Accelerator, PowerGatingKeepsFrontEndWhenSparse)
{
    Rng rng(11);
    ConvTensors t = makeLayer(rng, 0.6, 0.0);
    AcceleratorConfig cfg = smallConfig();
    cfg.power_gating = true;
    Accelerator accel(cfg);
    accel.powerGate().observe("acts", 0.6);
    OpResult r = accel.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec);
    EXPECT_FALSE(r.gated);
    EXPECT_GT(r.speedup(), 1.5);
}

TEST(PowerGate, DefaultsToEnabledUntilObserved)
{
    PowerGateController gate(0.05);
    EXPECT_TRUE(gate.enabled("layer0.acts"));
    gate.observe("layer0.acts", 0.01);
    EXPECT_FALSE(gate.enabled("layer0.acts"));
    gate.observe("layer0.acts", 0.5);
    EXPECT_TRUE(gate.enabled("layer0.acts"));
    EXPECT_DOUBLE_EQ(gate.lastObserved("layer0.acts"), 0.5);
    EXPECT_DOUBLE_EQ(gate.lastObserved("unknown"), -1.0);
    gate.clear();
    EXPECT_TRUE(gate.enabled("layer0.acts"));
}

TEST(Accelerator, OpResultMergeAggregates)
{
    OpResult a, b;
    a.base_cycles = 100;
    a.td_cycles = 50;
    a.mac_slots = 1000;
    b.base_cycles = 50;
    b.td_cycles = 50;
    b.mac_slots = 500;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.base_cycles, 150.0);
    EXPECT_DOUBLE_EQ(a.speedup(), 1.5);
    EXPECT_DOUBLE_EQ(a.mac_slots, 1500.0);
}

TEST(Accelerator, SampledSpeedupMatchesExhaustive)
{
    // Sampling must give an unbiased estimate of the full-layer
    // speedup: compare against the exhaustive run on a mid-size layer.
    Rng rng(12);
    ConvTensors t = makeLayer(rng, 0.55, 0.0, 1, 24, 12, 8, 3);
    AcceleratorConfig full_cfg = smallConfig();
    full_cfg.max_sampled_macs = 0;
    AcceleratorConfig samp_cfg = smallConfig();
    samp_cfg.max_sampled_macs = 200000;
    Accelerator full(full_cfg), sampled(samp_cfg);
    OpResult rf = full.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                 t.go, t.spec);
    OpResult rs = sampled.runConvOp(TrainOp::Forward, t.acts, t.weights,
                                    t.go, t.spec);
    EXPECT_NEAR(rs.speedup(), rf.speedup(), 0.1);
}

} // namespace
} // namespace tensordash
