/**
 * @file
 * Tests for the declarative sweep API: axis expansion and variant
 * addressing, per-variant TaskKey sensitivity (changing one axis value
 * re-simulates only that variant's cells), N-way shard merges across a
 * config axis, equivalence of a single-variant SweepSpec with the
 * legacy runMany() path, array runs shared across tile-count and
 * memory-model variants, custom synthesis hooks, and Shard/spec
 * validation at the API boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Two small conv models with unequal layer counts, so shard and
 * variant boundaries never align with model boundaries. */
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

/** Fast configuration; @p seed keeps each test's task keys disjoint
 * from every other test's (and from test_result_store's), so the
 * process-wide memo cannot leak state between them. */
RunConfig
specConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0; // default parallelism: exercises concurrent claims
    return cfg;
}

/** The rows axis every variant test sweeps. */
SweepAxis
rowsAxis(std::initializer_list<int> rows)
{
    return axis("rows", rows, [](RunConfig &cfg, int r) {
        cfg.accel.tile.rows = r;
    });
}

/**
 * Serialized sweep content with the cache telemetry zeroed: two
 * sweeps holding bit-identical simulation results compare equal even
 * when one was served from cache and the other simulated.
 */
std::vector<uint8_t>
contentBytes(SweepResult s)
{
    s.cache_hits = 0;
    s.simulated = 0;
    return s.serialize();
}

TEST(SweepSpecTest, AxisExpansionAndVariantLabels)
{
    SweepSpec spec;
    spec.models = tinyModels();
    spec.axes = {rowsAxis({2, 4}),
                 axis("gating", {false, true}, [](RunConfig &cfg,
                                                  bool on) {
                     cfg.accel.power_gating = on;
                 })};
    EXPECT_EQ(spec.variantCount(), 4u);
    // First axis slowest-varying; bools label as on/off.
    EXPECT_EQ(spec.variantLabel(0), "rows=2,gating=off");
    EXPECT_EQ(spec.variantLabel(1), "rows=2,gating=on");
    EXPECT_EQ(spec.variantLabel(2), "rows=4,gating=off");
    EXPECT_EQ(spec.variantLabel(3), "rows=4,gating=on");

    RunConfig base = specConfig(1);
    RunConfig v3 = spec.variantConfig(base, 3);
    EXPECT_EQ(v3.accel.tile.rows, 4);
    EXPECT_TRUE(v3.accel.power_gating);
    RunConfig v0 = spec.variantConfig(base, 0);
    EXPECT_EQ(v0.accel.tile.rows, 2);
    EXPECT_FALSE(v0.accel.power_gating);

    // No axes: one base variant with an empty label.
    SweepSpec plain;
    plain.models = tinyModels();
    EXPECT_EQ(plain.variantCount(), 1u);
    EXPECT_EQ(plain.variantLabel(0), "");
}

TEST(SweepSpecTest, SingleVariantSpecMatchesLegacyRunMany)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = specConfig(21001);
    cfg.cache = false;
    const std::vector<double> points = {0.25, 0.75};
    const auto models = tinyModels();

    SweepSpec spec;
    spec.models = models;
    spec.progress_points = points;

    SweepResult via_spec = ModelRunner(cfg).runSweep(spec);
    SweepResult via_many = ModelRunner(cfg).runMany(models, points);
    ASSERT_TRUE(via_spec.complete());
    EXPECT_EQ(via_spec.variantCount(), 1u);
    EXPECT_EQ(via_spec.variants, std::vector<std::string>{""});
    EXPECT_EQ(via_spec.fingerprint, via_many.fingerprint);
    // The simulation-free fingerprint (the merge driver's shard-file
    // check) agrees with what a real run produces.
    EXPECT_EQ(ModelRunner(cfg).sweepFingerprint(spec),
              via_spec.fingerprint);
    // The acceptance bar: bit-identical grids and aggregates, so a
    // shard written by one entry point merges with the other's.
    EXPECT_EQ(contentBytes(via_spec), contentBytes(via_many));
    for (size_t m = 0; m < models.size(); ++m)
        for (size_t p = 0; p < points.size(); ++p)
            EXPECT_EQ(via_spec.at(m, p).total.td_cycles,
                      via_many.at(m, p).total.td_cycles);
}

TEST(SweepSpecTest, ChangingOneAxisValueChangesOnlyThatVariantsCells)
{
    // Key level: a variant's cells are fingerprinted under its
    // *effective* config, so swapping one axis value leaves the other
    // variant's keys (and cached results) untouched.
    RunConfig base = specConfig(21002);
    SweepSpec a;
    a.models = tinyModels();
    a.axes = {rowsAxis({2, 4})};
    SweepSpec b = a;
    b.axes = {rowsAxis({2, 8})};

    ModelProfile m = tinyModel();
    TaskKey a0 = TaskKey::forOp(a.variantConfig(base, 0), m, 0,
                                TrainOp::Forward, 0.5);
    TaskKey b0 = TaskKey::forOp(b.variantConfig(base, 0), m, 0,
                                TrainOp::Forward, 0.5);
    TaskKey a1 = TaskKey::forOp(a.variantConfig(base, 1), m, 0,
                                TrainOp::Forward, 0.5);
    TaskKey b1 = TaskKey::forOp(b.variantConfig(base, 1), m, 0,
                                TrainOp::Forward, 0.5);
    EXPECT_EQ(a0.value, b0.value); // shared rows=2 variant
    EXPECT_NE(a1.value, b1.value); // rows=4 vs rows=8
    EXPECT_NE(a0.value, a1.value);

    // Cache level: rerunning with one value swapped re-simulates only
    // the swapped variant's cells (5 layers x 1 point x 3 training
    // ops per variant).
    ResultStore::shared().clearMemo();
    SweepResult cold = ModelRunner(base).runSweep(a);
    EXPECT_EQ(cold.simulated, 30u);
    SweepResult swapped = ModelRunner(base).runSweep(b);
    EXPECT_EQ(swapped.cache_hits, 15u);
    EXPECT_EQ(swapped.simulated, 15u);
    // The shared variant's cells are bit-identical across the specs.
    for (size_t m2 = 0; m2 < cold.modelCount(); ++m2)
        EXPECT_EQ(cold.at(m2, 0, 0).total.td_cycles,
                  swapped.at(m2, 0, 0).total.td_cycles);
    ResultStore::shared().clearMemo();
}

TEST(SweepSpecTest, NWayShardMergeIsBitIdenticalAcrossAConfigAxis)
{
    RunConfig cfg = specConfig(21003);
    cfg.cache = false; // every shard must really simulate
    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4, 8})};
    ModelRunner runner(cfg);

    SweepResult full = runner.runSweep(spec);
    ASSERT_TRUE(full.complete());
    ASSERT_EQ(full.taskCount(), 15u); // 3 variants x (2 + 3 layers)
    ASSERT_EQ(full.variantCount(), 3u);
    EXPECT_EQ(runner.sweepFingerprint(spec), full.fingerprint);

    const std::vector<GridCellInfo> plan = runner.planSweep(spec);
    for (size_t n : {2u, 3u}) {
        std::vector<SweepResult> shards;
        uint64_t synth_keys = 0;
        for (size_t i = 0; i < n; ++i) {
            SynthCache::shared().resetCounters();
            shards.push_back(runner.runSweep(spec, Shard{i, n}));
            synth_keys += SynthCache::shared().counters().keys;
            // One ownership path: a Shard is a filter over the plan's
            // cells, so the shard and the explicit list of its cells
            // serialize byte for byte alike.
            std::vector<size_t> cells;
            for (const GridCellInfo &c : plan)
                if (c.group % n == i)
                    cells.push_back(c.cell);
            EXPECT_EQ(shards.back().serialize(),
                      runner.runSweepCells(spec, cells).serialize())
                << "shard " << i << "/" << n;
        }
        // A shard owns whole synthesis groups, so the shards together
        // synthesize each of the 5 layers once, as the unsharded run
        // does, whatever n.
        EXPECT_EQ(synth_keys, 5u) << n << " shards";
        for (const SweepResult &s : shards) {
            EXPECT_FALSE(s.complete());
            EXPECT_TRUE(s.results.empty());
        }
        SweepResult merged = std::move(shards.front());
        for (size_t i = 1; i < n; ++i)
            merged.merge(shards[i]);
        ASSERT_TRUE(merged.complete());
        EXPECT_EQ(contentBytes(full), contentBytes(merged));
        for (size_t v = 0; v < full.variantCount(); ++v) {
            for (size_t m = 0; m < full.modelCount(); ++m) {
                EXPECT_EQ(full.at(m, 0, v).total.td_cycles,
                          merged.at(m, 0, v).total.td_cycles);
                EXPECT_EQ(full.at(m, 0, v).speedup(),
                          merged.at(m, 0, v).speedup());
            }
        }
    }
}

/** One layer slot's cells, serialized. */
std::vector<uint8_t>
slotBytes(const LayerResult &slot)
{
    ByteWriter w;
    slot.serialize(w);
    return w.data();
}

TEST(SweepSpecTest, TileAndMemoryVariantsShareEachArrayRun)
{
    // A tile count and a memory model change only how an op finishes,
    // so a layer's group task lowers and tile-runs each op once for
    // all four variants.  The sharing must never show in a cell: each
    // variant's cells equal that variant run alone.
    RunConfig cfg = specConfig(21009);
    cfg.cache = false; // every run below must really simulate
    SweepSpec spec;
    spec.models = tinyModels();
    spec.axes = {
        axis("tiles", {1, 4},
             [](RunConfig &c, int tiles) { c.accel.tiles = tiles; }),
        axis("memory",
             {{"analytic",
               [](RunConfig &c) {
                   c.accel.memory_model = MemoryModel::Analytic;
               }},
              {"pipelined", [](RunConfig &c) {
                   c.accel.memory_model = MemoryModel::Pipelined;
               }}})};
    SynthCache::shared().resetCounters();
    SweepResult full = ModelRunner(cfg).runSweep(spec);
    const SynthCounters counts = SynthCache::shared().counters();
    ASSERT_TRUE(full.complete());
    const size_t layers = full.slotsPerVariant(); // 2 + 3, one point
    ASSERT_EQ(layers, 5u);
    EXPECT_EQ(counts.keys, layers);
    EXPECT_EQ(counts.array_runs, layers * 3);
    EXPECT_EQ(counts.array_reuses, 3 * counts.array_runs);

    SweepSpec alone;
    alone.models = spec.models;
    for (size_t v = 0; v < spec.variantCount(); ++v) {
        SweepResult solo =
            ModelRunner(spec.variantConfig(cfg, v)).runSweep(alone);
        ASSERT_EQ(solo.taskCount(), layers);
        for (size_t s = 0; s < layers; ++s)
            EXPECT_EQ(slotBytes(full.layer_results[v * layers + s]),
                      slotBytes(solo.layer_results[s]))
                << spec.variantLabel(v) << " slot " << s;
    }
}

TEST(SweepSpecTest, VariantGridSerializeRoundTrips)
{
    RunConfig cfg = specConfig(21004);
    cfg.cache = false;
    SweepSpec spec;
    spec.models = {tinyModel()};
    spec.axes = {axis("memory",
                      {{"analytic",
                        [](RunConfig &c) {
                            c.accel.memory_model = MemoryModel::Analytic;
                        }},
                       {"pipelined", [](RunConfig &c) {
                            c.accel.memory_model =
                                MemoryModel::Pipelined;
                        }}})};
    SweepResult full = ModelRunner(cfg).runSweep(spec);
    ASSERT_TRUE(full.complete());

    // Each variant's results are tagged with *its* memory model.
    EXPECT_EQ(full.at(0, 0, 0).memory_model, MemoryModel::Analytic);
    EXPECT_EQ(full.at(0, 0, 1).memory_model, MemoryModel::Pipelined);

    std::vector<uint8_t> bytes = full.serialize();
    SweepResult restored;
    ASSERT_TRUE(SweepResult::deserialize(bytes, &restored));
    EXPECT_EQ(restored.serialize(), bytes);
    EXPECT_EQ(restored.variants, full.variants);
    EXPECT_EQ(restored.variants[0], "memory=analytic");
    EXPECT_EQ(restored.at(0, 0, 1).memory_model,
              MemoryModel::Pipelined);
    EXPECT_EQ(restored.at(0, 0, 0).total.td_cycles,
              full.at(0, 0, 0).total.td_cycles);

    // A partial shard of the variant grid round-trips unreduced.
    SweepResult part = ModelRunner(cfg).runSweep(spec, Shard{0, 2});
    SweepResult part2;
    ASSERT_TRUE(SweepResult::deserialize(part.serialize(), &part2));
    EXPECT_FALSE(part2.complete());
    EXPECT_EQ(part2.serialize(), part.serialize());
}

TEST(SweepSpecTest, CustomSynthesisIsKeyedByItsSalt)
{
    // Two sweeps with the same grid but different synthesis salts must
    // not share cached cells; the same salt shares them fully.
    ResultStore::shared().clearMemo();
    RunConfig cfg = specConfig(21005);
    SweepSpec spec;
    spec.models = {tinyModel()};
    spec.synthesize = [](const RunConfig &, const ModelProfile &m,
                         size_t layer, double progress) {
        Rng rng(layer * 977 + 13);
        return ModelZoo::synthesize(m, m.layers[layer], progress, rng);
    };
    spec.synthesis_salt = 0x1111;
    spec.estimate_out_sparsity = false;

    SweepResult first = ModelRunner(cfg).runSweep(spec);
    EXPECT_EQ(first.simulated, first.cellCount());
    SweepResult same_salt = ModelRunner(cfg).runSweep(spec);
    EXPECT_EQ(same_salt.simulated, 0u);
    EXPECT_EQ(contentBytes(first), contentBytes(same_salt));

    SweepSpec other = spec;
    other.synthesis_salt = 0x2222;
    SweepResult resalted = ModelRunner(cfg).runSweep(other);
    EXPECT_EQ(resalted.simulated, resalted.cellCount());
    EXPECT_NE(resalted.fingerprint, first.fingerprint);

    // The write-back sizing switch is part of every key too.
    ModelProfile m = tinyModel();
    TaskKey est =
        TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5, 0, true);
    TaskKey dense =
        TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5, 0, false);
    EXPECT_NE(est.value, dense.value);

    // A custom hook may seed off the model's identity, so its cells
    // fingerprint the name; the zoo path stays name-independent.
    ModelProfile renamed = m;
    renamed.name = "renamed";
    EXPECT_NE(
        TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5, 0x1111).value,
        TaskKey::forOp(cfg, renamed, 0, TrainOp::Forward, 0.5, 0x1111)
            .value);
    EXPECT_EQ(
        TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5).value,
        TaskKey::forOp(cfg, renamed, 0, TrainOp::Forward, 0.5).value);
    ResultStore::shared().clearMemo();
}

TEST(SweepSpecTest, ShardIsValidatedAtTheApiBoundary)
{
    setLogThrowMode(true);
    RunConfig cfg = specConfig(21006);
    SweepSpec spec;
    spec.models = {tinyModel()};
    ModelRunner runner(cfg);
    // An out-of-range shard owns zero cells; reject it instead of
    // writing an empty shard file that fails only at merge time.
    EXPECT_THROW(runner.runSweep(spec, Shard{2, 2}), SimError);
    EXPECT_THROW(runner.runSweep(spec, Shard{5, 2}), SimError);
    EXPECT_THROW(runner.runSweep(spec, Shard{0, 0}), SimError);
    const auto models = tinyModels();
    EXPECT_THROW(runner.runMany(models, {}, Shard{3, 3}), SimError);
    setLogThrowMode(false);
}

TEST(SweepSpecTest, MalformedSpecsAreRejected)
{
    setLogThrowMode(true);
    RunConfig cfg = specConfig(21007);
    ModelRunner runner(cfg);

    SweepSpec no_models;
    EXPECT_THROW(runner.runSweep(no_models), SimError);
    // runMany is a no-axes runSweep, so it rejects the same input.
    EXPECT_THROW(runner.runMany(std::vector<ModelProfile>{}), SimError);

    SweepSpec empty_axis;
    empty_axis.models = {tinyModel()};
    empty_axis.axes = {SweepAxis{"rows", {}, {}}};
    EXPECT_THROW(runner.runSweep(empty_axis), SimError);

    SweepSpec mismatched;
    mismatched.models = {tinyModel()};
    mismatched.axes = {SweepAxis{"rows", {"2", "4"}, {}}};
    EXPECT_THROW(runner.runSweep(mismatched), SimError);

    // A custom hook without a salt would alias the zoo's cache cells.
    SweepSpec unsalted;
    unsalted.models = {tinyModel()};
    unsalted.synthesize = [](const RunConfig &, const ModelProfile &m,
                             size_t layer, double progress) {
        Rng rng(7);
        return ModelZoo::synthesize(m, m.layers[layer], progress, rng);
    };
    EXPECT_THROW(runner.runSweep(unsalted), SimError);
    setLogThrowMode(false);
}

TEST(SweepSpecTest, VariantCoordinateIsRangeChecked)
{
    setLogThrowMode(true);
    RunConfig cfg = specConfig(21008);
    cfg.cache = false;
    SweepSpec spec;
    spec.models = {tinyModel()};
    spec.axes = {rowsAxis({2, 4})};
    SweepResult sweep = ModelRunner(cfg).runSweep(spec);
    EXPECT_NO_THROW(sweep.at(0, 0, 1));
    EXPECT_THROW(sweep.at(0, 0, 2), SimError);
    EXPECT_THROW(sweep.speedups(0, 2), SimError);
    setLogThrowMode(false);
}

} // namespace
} // namespace tensordash
