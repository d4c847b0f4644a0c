/**
 * @file
 * Tests for the content-addressed synthesis cache: SynthKey covers
 * exactly the synthesis-affecting inputs (and nothing else), a
 * multi-variant geometry sweep synthesizes each cell once, a shared
 * synthesis is bit-identical to each variant run alone at any thread
 * count and under both memory models, a synthesized layer lives only
 * as long as the task that serves its slots so a returned, cancelled
 * or thrown sweep holds nothing, and custom synthesize hooks key on
 * their salt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Small conv models with unequal layer counts (mirrors
 * test_sweep_spec's grid shapes). */
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

/** Fast configuration; @p seed keeps each test's task and synth keys
 * disjoint from every other test's — the result memo is
 * process-wide. */
RunConfig
specConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0; // default parallelism: exercises concurrent claims
    // Bit-identity tests compare runs that share cells: the result
    // memo would serve the repeat without simulating, hiding exactly
    // the synthesis paths under test.
    cfg.cache = false;
    return cfg;
}

SweepAxis
rowsAxis(std::initializer_list<int> rows)
{
    return axis("rows", rows, [](RunConfig &cfg, int r) {
        cfg.accel.tile.rows = r;
    });
}

/** Serialized bytes of one layer's op cells. */
std::vector<uint8_t>
layerBytes(const LayerResult &r)
{
    ByteWriter w;
    r.serialize(w);
    return w.data();
}

/** Expect no synthesized tensors to be held anywhere. */
void
expectNothingResident(const char *after)
{
    EXPECT_EQ(SynthCache::shared().residentBytes(), 0u) << after;
}

TEST(SynthKeyTest, CoversSynthesisInputsOnly)
{
    RunConfig cfg = specConfig(9100);
    ModelProfile model = tinyModel();
    uint64_t base = SynthKey::forCell(cfg, model, 0, 0.5).value;

    // Stable across recomputation.
    EXPECT_EQ(base, SynthKey::forCell(cfg, model, 0, 0.5).value);

    // Every synthesis-affecting input moves the key.
    {
        RunConfig c = cfg;
        c.seed += 1;
        EXPECT_NE(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.batch_override = 4;
        EXPECT_NE(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    EXPECT_NE(base, SynthKey::forCell(cfg, model, 1, 0.5).value);
    EXPECT_NE(base, SynthKey::forCell(cfg, model, 0, 0.25).value);
    {
        ModelProfile m = model;
        m.sparsity.act = 0.3;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    {
        ModelProfile m = model;
        m.sparsity.cluster_strength = 0.9;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    {
        ModelProfile m = model;
        m.layers[0].in_c += 1;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    {
        ModelProfile m = model;
        m.batch = 2;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    EXPECT_NE(base, SynthKey::forCell(cfg, model, 0, 0.5, 7).value);

    // Execution and simulation knobs do not: geometry, memory model,
    // fidelity, phase, caching, threads.
    {
        RunConfig c = cfg;
        c.accel.tile.rows *= 2;
        c.accel.tiles *= 2;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.accel.memory_model = MemoryModel::Pipelined;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.fidelity = Fidelity::Estimate;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.phase = WorkloadPhase::Inference;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.cache = true;
        c.threads = 3;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }

    // The model name only matters under a custom hook (non-zero
    // salt), which may legitimately seed off it.
    {
        ModelProfile m = model;
        m.name = "renamed";
        EXPECT_EQ(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
        EXPECT_NE(SynthKey::forCell(cfg, model, 0, 0.5, 7).value,
                  SynthKey::forCell(cfg, m, 0, 0.5, 7).value);
    }
}

TEST(SynthCacheTest, CrossVariantReuseOnTwoAxisGrid)
{
    RunConfig cfg = specConfig(9200);
    ModelRunner runner(cfg);

    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4}),
                 axis("tiles", {1, 2}, [](RunConfig &c, int t) {
                     c.accel.tiles = t;
                 })};

    const SynthCounters before = SynthCache::shared().counters();
    SweepResult sweep = runner.runSweep(spec);
    const SynthCounters after = SynthCache::shared().counters();

    // 4 geometry variants x 5 layers x 1 progress point: 5 unique
    // synthesis cells, each synthesized once and reused 3 times.
    const uint64_t cells = 5;
    const uint64_t variants = 4;
    EXPECT_EQ(after.keys - before.keys, cells);
    EXPECT_EQ(after.reuses - before.reuses, (variants - 1) * cells);
    EXPECT_EQ(sweep.taskCount(), variants * cells);
}

TEST(SynthCacheTest, EstimateVariantsNeverSynthesize)
{
    RunConfig cfg = specConfig(9250);
    cfg.fidelity = Fidelity::Estimate;
    ModelRunner runner(cfg);

    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4})};

    const SynthCounters before = SynthCache::shared().counters();
    SweepResult sweep = runner.runSweep(spec);
    const SynthCounters after = SynthCache::shared().counters();
    EXPECT_EQ(after.keys, before.keys);
    EXPECT_EQ(after.reuses, before.reuses);
    EXPECT_EQ(sweep.estimated, sweep.cellCount());
}

TEST(SynthCacheTest, BitIdentityColdWarmDisabledAcrossThreads)
{
    for (MemoryModel mm :
         {MemoryModel::Analytic, MemoryModel::Pipelined}) {
        RunConfig cfg = specConfig(
            9300 + (mm == MemoryModel::Pipelined ? 7 : 0));
        cfg.accel.memory_model = mm;

        SweepSpec spec;
        spec.models = tinyModels();
        spec.progress_points = {0.25, 0.75};
        spec.axes = {rowsAxis({2, 4})};

        // Reference: each variant alone on one thread, where every
        // task serves one slot from tensors of its own.
        RunConfig ref_cfg = cfg;
        ref_cfg.threads = 1;
        std::vector<SweepResult> alone;
        for (int rows : {2, 4}) {
            SweepSpec one = spec;
            one.axes = {rowsAxis({rows})};
            alone.push_back(ModelRunner(ref_cfg).runSweep(one));
        }
        const size_t slots = alone[0].taskCount();

        for (int threads : {1, 2, 8}) {
            RunConfig c = cfg;
            c.threads = threads;
            // Run twice: a finished sweep leaves nothing behind, so
            // the repeat shares one synthesis per key from scratch.
            for (int run = 0; run < 2; ++run) {
                SweepResult shared = ModelRunner(c).runSweep(spec);
                ASSERT_EQ(shared.taskCount(), 2 * slots);
                for (size_t v = 0; v < 2; ++v)
                    for (size_t i = 0; i < slots; ++i)
                        EXPECT_EQ(layerBytes(alone[v].layer_results[i]),
                                  layerBytes(
                                      shared.layer_results[v * slots + i]))
                            << "variant " << v << ", slot " << i
                            << ", threads=" << threads << ", run " << run;
                expectNothingResident("two-variant sweep");
            }
        }
    }
}

TEST(SynthCacheTest, SweepHoldsOneLayerPerRunningTask)
{
    // A synthesized layer is the direct synthesis, measured, and its
    // bytes stay resident exactly as long as it is held.
    SynthCache cache;
    uint64_t layer_bytes = 0; ///< the largest layer's tensors
    for (const ModelProfile &model : tinyModels()) {
        for (const LayerSpec &layer : model.layers) {
            auto synth = [&] {
                Rng rng(1001);
                return ModelZoo::synthesize(model, layer, 0.5, rng);
            };
            LayerTensors direct = synth();
            std::shared_ptr<const SynthTensors> st =
                cache.synthesize(synth);
            EXPECT_EQ(st->tensors.acts.maxAbsDiff(direct.acts), 0.0f);
            EXPECT_EQ(st->tensors.weights.maxAbsDiff(direct.weights),
                      0.0f);
            EXPECT_EQ(st->tensors.grads.maxAbsDiff(direct.grads), 0.0f);
            EXPECT_EQ(st->act_sparsity, direct.acts.sparsity());
            EXPECT_EQ(st->weight_sparsity, direct.weights.sparsity());
            EXPECT_EQ(st->grad_sparsity, direct.grads.sparsity());
            EXPECT_EQ(st->bytes,
                      (direct.acts.size() + direct.weights.size() +
                       direct.grads.size()) * sizeof(float));
            EXPECT_EQ(cache.residentBytes(), st->bytes);
            layer_bytes = std::max(layer_bytes, st->bytes);
        }
    }
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(cache.counters().keys, 5u);
    EXPECT_EQ(cache.counters().reuses, 0u);

    // On one thread a rows-axis sweep runs one layer's task at a time:
    // every progress report sees that layer's tensors and no other.
    RunConfig c = specConfig(9800);
    c.threads = 1;
    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4, 8})};
    uint64_t peak = 0;
    RunHooks hooks;
    hooks.progress = [&](const SweepProgress &) {
        peak = std::max(peak, SynthCache::shared().residentBytes());
    };
    ModelRunner(c).runSweep(spec, {}, hooks);
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, layer_bytes);
    expectNothingResident("one-thread rows sweep");
}

TEST(SynthCacheTest, SweepsLeaveNothingResident)
{
    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4}),
                 axis("tiles", {1, 2}, [](RunConfig &c, int t) {
                     c.accel.tiles = t;
                 })};

    // Cold two-axis sweep.
    const SynthCounters before = SynthCache::shared().counters();
    ModelRunner(specConfig(9600)).runSweep(spec);
    EXPECT_GT(SynthCache::shared().counters().keys, before.keys);
    expectNothingResident("cold two-axis sweep");

    // Widening an axis of a finished sweep with the memo on: the old
    // variants hit on every cell, so each layer's task synthesizes
    // once, for the new variant alone.
    RunConfig memo = specConfig(9650);
    memo.cache = true;
    SweepSpec narrow = spec;
    narrow.axes = {rowsAxis({2, 4})};
    ModelRunner(memo).runSweep(narrow);
    SweepSpec wide = narrow;
    wide.axes = {rowsAxis({2, 4, 8})};
    const SynthCounters mid = SynthCache::shared().counters();
    SweepResult widened = ModelRunner(memo).runSweep(wide);
    EXPECT_EQ(widened.cache_hits, 2 * widened.cellCount() / 3);
    EXPECT_EQ(SynthCache::shared().counters().keys - mid.keys, 5u);
    EXPECT_EQ(SynthCache::shared().counters().reuses, mid.reuses);
    expectNothingResident("widened sweep");

    // A sweep cancelled from its progress hook: a task that stops
    // between slots frees its tensors too.
    for (int threads : {1, 4}) {
        RunConfig c = specConfig(9700);
        c.threads = threads;
        std::atomic<bool> cancel{false};
        RunHooks hooks;
        hooks.cancel = &cancel;
        hooks.progress = [&](const SweepProgress &) { cancel = true; };
        SweepResult partial = ModelRunner(c).runSweep(spec, {}, hooks);
        if (threads == 1) {
            EXPECT_EQ(partial.presentCount(), 1u);
        }
        expectNothingResident("cancelled sweep");
    }

    // A sweep whose synthesize hook throws: the throwing task and
    // every task still running free their tensors on the way out.
    for (int threads : {1, 4}) {
        RunConfig c = specConfig(9750);
        c.threads = threads;
        SweepSpec throwing = spec;
        throwing.synthesis_salt = 19;
        throwing.synthesize = [](const RunConfig &cfg,
                                 const ModelProfile &m, size_t layer,
                                 double progress) {
            if (layer == 1)
                throw std::runtime_error("synthesis failed");
            Rng rng(cfg.seed + layer);
            return ModelZoo::synthesize(m, m.layers[layer], progress,
                                        rng);
        };
        EXPECT_THROW(ModelRunner(c).runSweep(throwing),
                     std::runtime_error);
        expectNothingResident("sweep that threw");
    }
}

TEST(SynthCacheTest, CustomHookSweepsKeyOnSalt)
{
    RunConfig cfg = specConfig(9500);
    ModelRunner runner(cfg);

    std::atomic<size_t> hook_calls{0};
    auto makeSpec = [&](uint64_t salt) {
        SweepSpec spec;
        spec.models = {tinyModel()};
        spec.progress_points = {0.5};
        spec.axes = {rowsAxis({2, 4})};
        spec.synthesize = [&hook_calls](const RunConfig &c,
                                        const ModelProfile &m,
                                        size_t layer, double progress) {
            ++hook_calls;
            Rng rng(c.seed * 31 + layer * 7 +
                    (uint64_t)(progress * 100));
            return ModelZoo::synthesize(m, m.layers[layer], progress,
                                        rng);
        };
        spec.synthesis_salt = salt;
        return spec;
    };

    const SynthCounters before = SynthCache::shared().counters();
    runner.runSweep(makeSpec(11));
    // 2 variants x 2 layers, one hook call per unique cell.
    EXPECT_EQ(hook_calls.load(), 2u);
    const SynthCounters mid = SynthCache::shared().counters();
    EXPECT_EQ(mid.keys - before.keys, 2u);
    EXPECT_EQ(mid.reuses - before.reuses, 2u);

    // A different salt is a different hook contract: nothing reuses
    // across salts even though models and seeds agree.
    runner.runSweep(makeSpec(12));
    EXPECT_EQ(hook_calls.load(), 4u);
    const SynthCounters after = SynthCache::shared().counters();
    EXPECT_EQ(after.keys - mid.keys, 2u);
}

} // namespace
} // namespace tensordash
