/**
 * @file
 * Tests for content-addressed simulation results: FNV fingerprinting
 * and binary serialization primitives, TaskKey stability and
 * sensitivity, ResultStore memo/disk caching (cached run bit-identical
 * to a cold run), and sharded sweep execution (N-way shard merges
 * bit-identical to an unsharded run under both memory models).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Two small conv models with unequal layer counts, so shard
 * boundaries never align with model boundaries. */
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

/** Fast configuration for store tests; @p seed keeps each test's task
 * keys disjoint from every other test's, so the process-wide memo
 * cannot leak state between them. */
RunConfig
storeConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    // Pool default on purpose: under the TSan CI job (TD_THREADS=4)
    // this exercises the cache lookup/insert path from concurrent
    // claim-loop threads.  Results are thread-count independent.
    cfg.threads = 0;
    return cfg;
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

TEST(Hashing, Fnv1aGoldenVectors)
{
    // Published FNV-1a 64 test vectors: the hasher must be the real
    // algorithm, not an approximation, or fingerprints stop being
    // portable identities.
    EXPECT_EQ(FnvHasher().value(), 0xcbf29ce484222325ull);
    FnvHasher a;
    a.bytes("a", 1);
    EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
    FnvHasher foobar;
    foobar.bytes("foobar", 6);
    EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
}

TEST(Hashing, TypedMixersAreByteStable)
{
    // u64 must mix exactly its 8 little-endian bytes, making the
    // fingerprint independent of host endianness and padding.
    FnvHasher via_u64;
    via_u64.u64(0x1122334455667788ull);
    const uint8_t le[8] = {0x88, 0x77, 0x66, 0x55,
                           0x44, 0x33, 0x22, 0x11};
    EXPECT_EQ(via_u64.value(), FnvHasher::hashBytes(le, 8));

    // f64 mixes the IEEE-754 bit pattern: -0.0 and 0.0 differ.
    FnvHasher pos, neg;
    pos.f64(0.0);
    neg.f64(-0.0);
    EXPECT_NE(pos.value(), neg.value());

    // Length-prefixed strings keep field boundaries exact: ("ab", "c")
    // and ("a", "bc") must not collide.
    FnvHasher ab_c, a_bc;
    ab_c.str("ab");
    ab_c.str("c");
    a_bc.str("a");
    a_bc.str("bc");
    EXPECT_NE(ab_c.value(), a_bc.value());

    EXPECT_EQ(FnvHasher::toHex(0x0123456789abcdefull),
              "0123456789abcdef");
    EXPECT_EQ(FnvHasher::toHex(0), "0000000000000000");
}

TEST(Serial, WriterReaderRoundTrip)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.f64(-1234.5e-67);
    w.b(true);
    w.b(false);
    w.str("hello");
    w.str("");

    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), -1234.5e-67); // bit-exact, not approximate
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serial, TruncationLatchesNotOk)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.ok());
    r.u64(); // past the end
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.atEnd());

    // A string whose declared length exceeds the buffer must fail
    // cleanly instead of reading out of bounds.
    ByteWriter w2;
    w2.u32(1000);
    w2.u8('x');
    ByteReader r2(w2.data());
    EXPECT_EQ(r2.str(), "");
    EXPECT_FALSE(r2.ok());
}

TEST(TaskKeyTest, IndependentlyBuiltIdenticalInputsGiveTheSameKey)
{
    // The key is a pure function of values: rebuilding the same
    // config/model from scratch (different addresses, different
    // process history) yields the identical key.
    TaskKey a = TaskKey::forOp(storeConfig(1), tinyModel(), 1,
                               TrainOp::Forward, 0.5);
    TaskKey b = TaskKey::forOp(storeConfig(1), tinyModel(), 1,
                               TrainOp::Forward, 0.5);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 16u);
}

TEST(TaskKeyTest, NamesDoNotAffectTheKey)
{
    // Content addressing: what a model or layer is *called* does not
    // change what is simulated.
    RunConfig cfg = storeConfig(1);
    ModelProfile m = tinyModel();
    TaskKey base = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    m.name = "renamed";
    m.description = "different description";
    m.layers[0].name = "renamed_layer";
    EXPECT_EQ(TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5).value,
              base.value);
}

TEST(TaskKeyTest, EveryResultAffectingFieldChangesTheKey)
{
    // One mutation per result-affecting input; all keys (baseline
    // included) must be pairwise distinct.  A new config field that is
    // forgotten in hashInto() would serve stale cached results, so
    // extend this list whenever one is added.
    std::vector<uint64_t> keys;
    auto add = [&](auto mutate) {
        RunConfig cfg = storeConfig(1);
        ModelProfile m = tinyModel();
        size_t layer = 0;
        double progress = 0.5;
        mutate(cfg, m, layer, progress);
        keys.push_back(TaskKey::forOp(cfg, m, layer, TrainOp::Forward,
                                      progress)
                           .value);
    };
    auto nop = [](RunConfig &, ModelProfile &, size_t &, double &) {};
    add(nop); // baseline

    using C = RunConfig;
    using M = ModelProfile;
    auto cfg_mut = [&](auto f) {
        add([f](C &c, M &, size_t &, double &) { f(c); });
    };
    auto model_mut = [&](auto f) {
        add([f](C &, M &m, size_t &, double &) { f(m); });
    };

    // Run-level inputs.
    add([](C &, M &, size_t &l, double &) { l = 1; });
    add([](C &, M &, size_t &, double &p) { p = 0.75; });
    cfg_mut([](C &c) { c.seed = 2; });

    // Model-level inputs.
    model_mut([](M &m) { m.batch = 2; });
    model_mut([](M &m) { m.wg_side = WgSide::Gradients; });
    model_mut([](M &m) { m.sparsity.act = 0.61; });
    model_mut([](M &m) { m.sparsity.grad = 0.51; });
    model_mut([](M &m) { m.sparsity.weight = 0.1; });
    model_mut([](M &m) { m.sparsity.cluster_strength = 0.6; });
    model_mut(
        [](M &m) { m.sparsity.temporal = TemporalShape::Flat; });

    // Layer shape.
    model_mut([](M &m) { m.layers[0].fc = true; });
    model_mut([](M &m) { m.layers[0].in_c = 5; });
    model_mut([](M &m) { m.layers[0].in_hw = 10; });
    model_mut([](M &m) { m.layers[0].out_c = 6; });
    model_mut([](M &m) { m.layers[0].kernel = 1; });
    model_mut([](M &m) { m.layers[0].stride = 2; });
    model_mut([](M &m) { m.layers[0].pad = 0; });
    model_mut([](M &m) { m.layers[0].act_sparsity = 0.3; });
    model_mut([](M &m) { m.layers[0].grad_sparsity = 0.3; });

    // Accelerator geometry and sampling.
    cfg_mut([](C &c) { c.accel.tiles = 4; });
    cfg_mut([](C &c) { c.accel.tile.rows = 2; });
    cfg_mut([](C &c) { c.accel.tile.cols = 2; });
    cfg_mut([](C &c) { c.accel.tile.lanes = 8; });
    cfg_mut([](C &c) { c.accel.tile.depth = 2; });
    cfg_mut([](C &c) {
        c.accel.tile.interconnect = InterconnectKind::Crossbar;
    });
    cfg_mut([](C &c) { c.accel.dtype = DataType::Bf16; });
    cfg_mut([](C &c) { c.accel.freq_ghz = 1.0; });
    cfg_mut([](C &c) { c.accel.max_sampled_macs = 30000; });
    cfg_mut([](C &c) { c.accel.seed = 9; });

    // Memory system, including the satellite turnaround knob.
    cfg_mut([](C &c) { c.accel.memory_model = MemoryModel::Analytic; });
    cfg_mut([](C &c) { c.accel.dram.channels = 2; });
    cfg_mut([](C &c) { c.accel.dram.mega_transfers = 1600.0; });
    cfg_mut([](C &c) { c.accel.dram.channel_bytes = 4.0; });
    cfg_mut([](C &c) { c.accel.dram.pj_per_byte_read = 30.0; });
    cfg_mut([](C &c) { c.accel.dram.pj_per_byte_write = 40.0; });
    cfg_mut([](C &c) { c.accel.dram.turnaround_cycles = 4.0; });
    cfg_mut([](C &c) { c.accel.dram.row_buffer_hit_rate = 0.9; });
    cfg_mut([](C &c) {
        c.accel.mem_pipeline.chunk_bytes = 64.0 * 1024.0;
    });
    cfg_mut([](C &c) {
        c.accel.mem_pipeline.staging_bytes = 128 * 1024;
    });
    cfg_mut([](C &c) { c.accel.mem_pipeline.staging_banks = 2; });
    cfg_mut([](C &c) { c.accel.mem_pipeline.transposers = 8; });

    // Energy constants (cached energies depend on them).
    cfg_mut([](C &c) { c.accel.energy.sram_read_pj = 21.0; });
    cfg_mut([](C &c) { c.accel.energy.sram_write_pj = 25.0; });
    cfg_mut([](C &c) { c.accel.energy.spad_access_pj = 3.0; });
    cfg_mut([](C &c) { c.accel.energy.transposer_group_pj = 121.0; });
    cfg_mut([](C &c) { c.accel.energy.sram_leakage_mw = 400.0; });

    // Scheduling policies and power gating.
    cfg_mut([](C &c) { c.accel.power_gating = true; });
    cfg_mut([](C &c) { c.accel.gate_min_sparsity = 0.2; });
    cfg_mut([](C &c) { c.accel.fwd_side = FwdSide::Weights; });
    cfg_mut(
        [](C &c) { c.accel.bwd_data_side = BwdDataSide::Weights; });

    // Which convolution the cell holds is part of the key (the
    // workload *phase* deliberately is not — phase only selects which
    // cells a run addresses, so training and inference sweeps share
    // their Forward cells).
    keys.push_back(TaskKey::forOp(storeConfig(1), tinyModel(), 0,
                                  TrainOp::BackwardData, 0.5)
                       .value);
    keys.push_back(TaskKey::forOp(storeConfig(1), tinyModel(), 0,
                                  TrainOp::BackwardWeights, 0.5)
                       .value);

    // The sweep-level synthesis contract (custom hook salt and the
    // write-back sizing switch) is part of every key too.
    keys.push_back(TaskKey::forOp(storeConfig(1), tinyModel(), 0,
                                  TrainOp::Forward, 0.5,
                                  /*synthesis_salt=*/0x77)
                       .value);
    keys.push_back(TaskKey::forOp(storeConfig(1), tinyModel(), 0,
                                  TrainOp::Forward, 0.5,
                                  /*synthesis_salt=*/0,
                                  /*estimate_out_sparsity=*/false)
                       .value);

    std::set<uint64_t> unique(keys.begin(), keys.end());
    EXPECT_EQ(unique.size(), keys.size())
        << "two different inputs produced the same TaskKey";
}

TEST(TaskKeyTest, ModelWgSideOverrideBeatsTheConfig)
{
    // simulateTask() applies the model's wg_side to the accelerator
    // config, so the key must fingerprint the effective value: a
    // config-level wg_side change is invisible when the model
    // overrides it anyway.
    RunConfig cfg = storeConfig(1);
    ModelProfile m = tinyModel();
    m.wg_side = WgSide::Gradients;
    TaskKey base =
        TaskKey::forOp(cfg, m, 0, TrainOp::BackwardWeights, 0.5);
    cfg.accel.wg_side = WgSide::Activations; // overridden: no effect
    EXPECT_EQ(
        TaskKey::forOp(cfg, m, 0, TrainOp::BackwardWeights, 0.5).value,
        base.value);
}

TEST(ResultStoreTest, WarmMemoRunIsBitIdenticalWithZeroSimulations)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(1001);
    ModelRunner runner(cfg);
    const std::vector<ModelProfile> models = {tinyModel(),
                                              tinyModelB()};

    SweepResult cold = runner.runMany(models);
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_EQ(cold.simulated, cold.cellCount());

    SweepResult warm = runner.runMany(models);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());
    EXPECT_EQ(warm.simulated, 0u);

    // The acceptance bar: a cached run is bit-identical to a cold
    // run, raw grid and reduced aggregates alike.
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));
    for (size_t m = 0; m < cold.modelCount(); ++m) {
        EXPECT_EQ(cold.at(m).total.td_cycles,
                  warm.at(m).total.td_cycles);
        EXPECT_EQ(cold.at(m).energy_td.total(),
                  warm.at(m).energy_td.total());
    }
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, CacheOffNeverConsultsTheStore)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(2002);
    const std::vector<ModelProfile> models = {tinyModel()};
    SweepResult first = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(first.simulated, first.cellCount());

    cfg.cache = false;
    SweepResult second = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(second.cache_hits, 0u);
    EXPECT_EQ(second.simulated, second.cellCount());
    EXPECT_EQ(contentBytes(first), contentBytes(second));
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, DiskCacheServesAFreshProcessWorthOfRuns)
{
    // A cache dir that does not exist yet is created on first use,
    // parents included.
    const std::string root = freshCacheDir("td_store_disk");
    const std::string dir = root + "/nested/sub";
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(3003);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel(),
                                              tinyModelB()};

    SweepResult cold = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(cold.simulated, cold.cellCount());
    // One .tdlr entry per (layer, op) cell, not per task slot.
    size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        entries += e.path().extension() == ".tdlr";
    EXPECT_EQ(entries, cold.cellCount());

    // Clearing the memo simulates a fresh process sharing the dir.
    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));

    // A path that cannot become a directory (its parent is a file)
    // resolves to memory-only instead of failing every insert.
    ASSERT_TRUE(writeFileBytes(root + "/file", {'x'}));
    EXPECT_EQ(ResultStore::resolveDir(root + "/file/sub"), "");
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, CorruptDiskEntryIsAMissNotAnError)
{
    const std::string dir = freshCacheDir("td_store_corrupt");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4004);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel()};

    SweepResult cold = ModelRunner(cfg).runMany(models);
    ASSERT_EQ(cold.simulated, cold.cellCount());

    // Truncate one entry and garbage another field of a second run.
    auto it = std::filesystem::directory_iterator(dir);
    std::filesystem::path victim = it->path();
    std::vector<uint8_t> garbage = {'n', 'o', 'p', 'e'};
    ASSERT_TRUE(writeFileBytes(victim.string(), garbage));

    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, 1u); // only the corrupt cell re-ran
    EXPECT_EQ(warm.cache_hits, warm.cellCount() - 1);
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));

    // A well-formed entry whose op byte names no TrainOp (byte 16,
    // right after the magic/version/key header) is corrupt too.
    victim = std::filesystem::directory_iterator(dir)->path();
    std::vector<uint8_t> entry;
    ASSERT_TRUE(readFileBytes(victim.string(), &entry));
    ASSERT_GT(entry.size(), 16u);
    entry[16] = 0xff;
    ASSERT_TRUE(writeFileBytes(victim.string(), entry));

    ResultStore::shared().clearMemo();
    warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, 1u); // only the bad-op cell re-ran
    EXPECT_EQ(warm.cache_hits, warm.cellCount() - 1);
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, UnwritableDirWarnsOncePerDirectory)
{
    // A resolved dir removed afterwards rejects every write, the way a
    // read-only one does (permission bits would not stop root).
    const std::string dir =
        ResultStore::resolveDir(freshCacheDir("td_store_gone"));
    ASSERT_FALSE(dir.empty());
    std::filesystem::remove_all(dir);

    ResultStore store;
    const uint64_t cells = 40;
    testing::internal::CaptureStdout();
    for (uint64_t i = 1; i <= cells; ++i)
        store.insert(TaskKey{i}, OpCellResult{}, dir);
    const std::string out = testing::internal::GetCapturedStdout();

    size_t warnings = 0;
    for (size_t at = out.find("cannot write"); at != std::string::npos;
         at = out.find("cannot write", at + 1)) {
        ++warnings;
    }
    EXPECT_EQ(warnings, 1u) << out;
    EXPECT_FALSE(std::filesystem::exists(dir));
    // Every cell stays memoised in memory.
    EXPECT_EQ(store.memoSize(), cells);
    OpCellResult got;
    EXPECT_TRUE(store.lookup(TaskKey{cells}, &got, dir));
}

TEST(ResultStoreTest, ListDirReportsEveryEntryWithValidHeaders)
{
    const std::string dir = freshCacheDir("td_store_ls");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4104);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel()};
    SweepResult cold = ModelRunner(cfg).runMany(models);

    std::vector<CacheEntryInfo> entries = ResultStore::listDir(dir);
    ASSERT_EQ(entries.size(), cold.cellCount());
    for (const CacheEntryInfo &e : entries) {
        EXPECT_TRUE(e.valid);
        EXPECT_EQ(e.version, kResultFormatVersion);
        EXPECT_GT(e.bytes, 0u);
        // The header key matches the hash-derived file name.
        EXPECT_NE(e.path.find(FnvHasher::toHex(e.key)),
                  std::string::npos);
    }
    // Oldest first, ties broken by path: the order is deterministic.
    for (size_t i = 1; i < entries.size(); ++i)
        EXPECT_TRUE(entries[i - 1].mtime < entries[i].mtime ||
                    (entries[i - 1].mtime == entries[i].mtime &&
                     entries[i - 1].path < entries[i].path));

    // A garbage file with the entry extension is visible as invalid.
    ASSERT_TRUE(writeFileBytes(dir + "/junk.tdlr", {'x'}));
    entries = ResultStore::listDir(dir);
    ASSERT_EQ(entries.size(), cold.cellCount() + 1);
    size_t invalid = 0;
    for (const CacheEntryInfo &e : entries)
        invalid += !e.valid;
    EXPECT_EQ(invalid, 1u);

    // A missing directory lists empty instead of erroring.
    EXPECT_TRUE(ResultStore::listDir(dir + "/nonexistent").empty());
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, PruneBoundsTheDirectoryOldestFirst)
{
    const std::string dir = freshCacheDir("td_store_prune");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4105);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel(),
                                              tinyModelB()};
    SweepResult cold = ModelRunner(cfg).runMany(models);

    std::vector<CacheEntryInfo> before = ResultStore::listDir(dir);
    uint64_t total = 0;
    for (const CacheEntryInfo &e : before)
        total += e.bytes;

    // Prune to roughly half: stats balance, the survivors are the
    // newest entries, and the bound holds.
    CachePruneStats stats = ResultStore::prune(dir, total / 2);
    EXPECT_EQ(stats.scanned, before.size());
    EXPECT_EQ(stats.scanned_bytes, total);
    EXPECT_GT(stats.evicted, 0u);
    EXPECT_LT(stats.evicted, before.size());
    EXPECT_LE(stats.remainingBytes(), total / 2);
    std::vector<CacheEntryInfo> after = ResultStore::listDir(dir);
    EXPECT_EQ(after.size(), before.size() - stats.evicted);
    uint64_t remaining = 0;
    for (const CacheEntryInfo &e : after)
        remaining += e.bytes;
    EXPECT_EQ(remaining, stats.remainingBytes());

    // Eviction is safe: a fresh process re-simulates exactly the
    // pruned cells and the output is bit-identical.
    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, stats.evicted);
    EXPECT_EQ(warm.cache_hits, warm.cellCount() - stats.evicted);
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));

    // max_bytes 0 empties the directory.
    CachePruneStats wipe = ResultStore::prune(dir, 0);
    EXPECT_EQ(wipe.evicted, wipe.scanned);
    EXPECT_TRUE(ResultStore::listDir(dir).empty());
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, PruneMaxAgeEvictsOnlyEntriesOlderThanCutoff)
{
    const std::string dir = freshCacheDir("td_store_prune_age");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4106);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel()};
    ModelRunner(cfg).runMany(models);

    std::vector<CacheEntryInfo> before = ResultStore::listDir(dir);
    ASSERT_FALSE(before.empty());
    const int64_t newest = before.back().mtime;

    // Pin "now" so the test is immune to wall-clock skew.  With every
    // entry younger than the cutoff, nothing is evicted.
    CachePruneOptions keep;
    keep.max_age_seconds = 3600;
    keep.now = newest + 10;
    CachePruneStats stats = ResultStore::prune(dir, keep);
    EXPECT_EQ(stats.scanned, before.size());
    EXPECT_EQ(stats.evicted, 0u);
    EXPECT_EQ(ResultStore::listDir(dir).size(), before.size());

    // Move "now" past the age bound: every entry is over-age.
    CachePruneOptions expire;
    expire.max_age_seconds = 3600;
    expire.now = newest + 3602;
    stats = ResultStore::prune(dir, expire);
    EXPECT_EQ(stats.evicted, before.size());
    EXPECT_EQ(stats.evicted_bytes, stats.scanned_bytes);
    EXPECT_TRUE(ResultStore::listDir(dir).empty());
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, PruneDryRunReportsVictimsWithoutDeleting)
{
    const std::string dir = freshCacheDir("td_store_prune_dry");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4107);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel()};
    ModelRunner(cfg).runMany(models);

    std::vector<CacheEntryInfo> before = ResultStore::listDir(dir);
    ASSERT_FALSE(before.empty());

    // A dry run under both bounds reports the full eviction set ...
    CachePruneOptions opts;
    opts.max_bytes = 0;
    opts.max_age_seconds = 0;
    opts.now = before.back().mtime + 100;
    opts.dry_run = true;
    CachePruneStats stats = ResultStore::prune(dir, opts);
    EXPECT_EQ(stats.evicted, before.size());
    EXPECT_EQ(stats.evicted_bytes, stats.scanned_bytes);
    EXPECT_EQ(stats.remainingBytes(), 0u);

    // ... but mutates nothing: same entries, bytes and mtimes.
    std::vector<CacheEntryInfo> after = ResultStore::listDir(dir);
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(after[i].path, before[i].path);
        EXPECT_EQ(after[i].bytes, before[i].bytes);
        EXPECT_EQ(after[i].mtime, before[i].mtime);
    }

    // The real run with the same options then empties the directory.
    opts.dry_run = false;
    stats = ResultStore::prune(dir, opts);
    EXPECT_EQ(stats.evicted, before.size());
    EXPECT_TRUE(ResultStore::listDir(dir).empty());
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, PruneStaleVersionsEvictsOnlyOrphanedEntries)
{
    const std::string dir = freshCacheDir("td_store_prune_stale");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4108);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel()};
    SweepResult cold = ModelRunner(cfg).runMany(models);
    const size_t live = cold.cellCount();

    // Plant two entries a format bump orphaned (valid header, older
    // version) and one corrupt file (not a result blob at all).
    for (const char *name : {"/old_a.tdlr", "/old_b.tdlr"}) {
        ByteWriter w;
        w.u32(0x524c4454); // entry magic
        w.u32(kResultFormatVersion - 1);
        w.u64(0x1234);
        w.str("payload from a previous format");
        ASSERT_TRUE(writeFileBytes(dir + name, w.data()));
    }
    ASSERT_TRUE(writeFileBytes(dir + "/junk.tdlr", {'x'}));
    ASSERT_EQ(ResultStore::listDir(dir).size(), live + 3);

    // Dry run: the two stale entries are the only victims, and
    // nothing is deleted.
    CachePruneOptions opts;
    opts.stale_versions = true;
    opts.dry_run = true;
    CachePruneStats stats = ResultStore::prune(dir, opts);
    EXPECT_EQ(stats.scanned, live + 3);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.stale_evicted, 2u);
    EXPECT_EQ(ResultStore::listDir(dir).size(), live + 3);

    // Real run: stale entries gone; live entries and the corrupt file
    // (which may not be a result blob at all) are untouched.
    opts.dry_run = false;
    stats = ResultStore::prune(dir, opts);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.stale_evicted, 2u);
    std::vector<CacheEntryInfo> after = ResultStore::listDir(dir);
    ASSERT_EQ(after.size(), live + 1);
    for (const CacheEntryInfo &e : after)
        EXPECT_TRUE(!e.valid || e.version == kResultFormatVersion);

    // The surviving live entries still serve a fresh process fully.
    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, CountersTrackMemoDiskAndMissTraffic)
{
    const std::string dir = freshCacheDir("td_store_counters");
    ResultStore::shared().clearMemo();
    ResultStore::shared().resetCounters();
    RunConfig cfg = storeConfig(4109);
    cfg.cache_dir = dir;
    const std::vector<ModelProfile> models = {tinyModel()};

    // Cold run: every lookup misses, every result is inserted.
    SweepResult cold = ModelRunner(cfg).runMany(models);
    CacheCounters c = ResultStore::shared().counters();
    EXPECT_EQ(c.memo_hits, 0u);
    EXPECT_EQ(c.disk_hits, 0u);
    EXPECT_EQ(c.misses, cold.cellCount());
    EXPECT_EQ(c.inserts, cold.cellCount());

    // Warm memo run: pure memo hits, nothing new inserted.
    ResultStore::shared().resetCounters();
    ModelRunner(cfg).runMany(models);
    c = ResultStore::shared().counters();
    EXPECT_EQ(c.memo_hits, cold.cellCount());
    EXPECT_EQ(c.disk_hits, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.inserts, 0u);

    // Fresh process (cleared memo) sharing the dir: pure disk hits.
    ResultStore::shared().clearMemo();
    ResultStore::shared().resetCounters();
    ModelRunner(cfg).runMany(models);
    c = ResultStore::shared().counters();
    EXPECT_EQ(c.memo_hits, 0u);
    EXPECT_EQ(c.disk_hits, cold.cellCount());
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.inserts, 0u);
    ResultStore::shared().clearMemo();
    ResultStore::shared().resetCounters();
}

TEST(ShardedSweep, NWayMergeIsBitIdenticalUnderBothMemoryModels)
{
    const std::vector<ModelProfile> models = {tinyModel(),
                                              tinyModelB()};
    const std::vector<double> points = {0.25, 0.75};
    for (MemoryModel mm :
         {MemoryModel::Analytic, MemoryModel::Pipelined}) {
        RunConfig cfg = storeConfig(5005);
        cfg.accel.memory_model = mm;
        cfg.cache = false; // every shard must really simulate
        ModelRunner runner(cfg);

        SweepResult full = runner.runMany(models, points);
        ASSERT_TRUE(full.complete());
        ASSERT_EQ(full.taskCount(), 10u); // (2 + 3 layers) x 2 points

        for (size_t n : {2u, 3u}) {
            std::vector<SweepResult> shards;
            for (size_t i = 0; i < n; ++i)
                shards.push_back(
                    runner.runMany(models, points, Shard{i, n}));

            // Partial shards expose no model-level results yet.  Each
            // owned task slot simulates its three training-op cells.
            for (const SweepResult &s : shards) {
                EXPECT_FALSE(s.complete());
                EXPECT_TRUE(s.results.empty());
                EXPECT_EQ(s.simulated, 3 * s.presentCount());
            }

            SweepResult merged = std::move(shards.front());
            for (size_t i = 1; i < n; ++i)
                merged.merge(shards[i]);
            ASSERT_TRUE(merged.complete());
            EXPECT_EQ(contentBytes(full), contentBytes(merged));
            for (size_t m = 0; m < full.modelCount(); ++m) {
                for (size_t p = 0; p < full.pointCount(); ++p) {
                    EXPECT_EQ(full.at(m, p).total.td_cycles,
                              merged.at(m, p).total.td_cycles);
                    EXPECT_EQ(full.at(m, p).total.base_cycles,
                              merged.at(m, p).total.base_cycles);
                    EXPECT_EQ(full.at(m, p).energy_td.total(),
                              merged.at(m, p).energy_td.total());
                    EXPECT_EQ(full.at(m, p).speedup(),
                              merged.at(m, p).speedup());
                }
            }
        }
    }
}

TEST(ShardedSweep, SerializeDeserializeRoundTrips)
{
    RunConfig cfg = storeConfig(6006);
    cfg.cache = false;
    const std::vector<ModelProfile> models = {tinyModel()};
    SweepResult full = ModelRunner(cfg).runMany(models);

    std::vector<uint8_t> bytes = full.serialize();
    SweepResult restored;
    ASSERT_TRUE(SweepResult::deserialize(bytes, &restored));
    EXPECT_EQ(restored.serialize(), bytes);
    EXPECT_TRUE(restored.complete());
    EXPECT_EQ(restored.models, full.models);
    EXPECT_EQ(restored.progress_points, full.progress_points);
    EXPECT_EQ(restored.fingerprint, full.fingerprint);
    // The reduce re-ran on deserialize and must agree bit for bit.
    EXPECT_EQ(restored.at(0).total.td_cycles,
              full.at(0).total.td_cycles);
    EXPECT_EQ(restored.at(0).energy_base.total(),
              full.at(0).energy_base.total());

    // A partial shard round-trips too, without reducing.
    SweepResult part =
        ModelRunner(cfg).runMany(models, {}, Shard{0, 2});
    SweepResult part2;
    ASSERT_TRUE(SweepResult::deserialize(part.serialize(), &part2));
    EXPECT_FALSE(part2.complete());
    EXPECT_TRUE(part2.results.empty());
    EXPECT_EQ(part2.serialize(), part.serialize());
}

TEST(ShardedSweep, DeserializeRejectsCorruptBuffers)
{
    RunConfig cfg = storeConfig(7007);
    cfg.cache = false;
    const std::vector<ModelProfile> models = {tinyModel()};
    std::vector<uint8_t> bytes =
        ModelRunner(cfg).runMany(models).serialize();

    SweepResult out;
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xff; // wrong magic
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));

    bad = bytes;
    bad[4] ^= 0xff; // wrong version
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));

    bad = bytes;
    bad.resize(bad.size() / 2); // truncated
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));

    bad = bytes;
    bad.push_back(0); // trailing junk
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));

    EXPECT_FALSE(SweepResult::deserialize({}, &out));

    // Header layout up to the shard fields: magic, version and
    // fingerprint (16 bytes), memory model (16), variant count, the
    // one variant's empty label, its memory model (25) and phase,
    // model count, "tiny" with its layer count, point count and the
    // one point, then shard index (55) and shard count (59).
    const size_t kMemoryModel = 16, kVariantMemoryModel = 25,
                 kShardIndex = 55, kShardCount = 59;
    auto u32At = [&](size_t at) {
        return std::vector<uint8_t>(bytes.begin() + at,
                                    bytes.begin() + at + 4);
    };
    ASSERT_EQ(u32At(kShardIndex), (std::vector<uint8_t>{0, 0, 0, 0}));
    ASSERT_EQ(u32At(kShardCount), (std::vector<uint8_t>{1, 0, 0, 0}));
    for (size_t at : {kMemoryModel, kVariantMemoryModel}) {
        bad = bytes;
        bad[at] = 2; // one past MemoryModel::Pipelined
        EXPECT_FALSE(SweepResult::deserialize(bad, &out)) << at;
    }
    bad = bytes;
    bad[kShardCount] = 0; // shard 0 of 0
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));
    bad = bytes;
    bad[kShardIndex] = 1; // shard 1 of 1
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));
}

TEST(ShardedSweep, DeserializeRejectsHugeDeclaredGrids)
{
    // An internally consistent but absurd task count (layer count and
    // grid size both 2^32-1) must be rejected by the bytes-present
    // bound before any allocation, not crash the merge driver with
    // bad_alloc.
    ByteWriter w;
    w.u32(0x57534454); // "TDSW" magic
    w.u32(kResultFormatVersion);
    w.u64(0);          // fingerprint
    w.u8(0);           // memory model
    w.u32(1);          // one variant
    w.str("");         // variant label
    w.u8(0);           // variant memory model
    w.u8(0);           // variant phase (training)
    w.u32(1);          // one model
    w.str("evil");
    w.u32(0xffffffffu); // layer count
    w.u32(1);           // one progress point
    w.f64(0.5);
    w.u32(0);           // shard index
    w.u32(1);           // shard count
    w.u64(0);           // cache hits
    w.u64(0);           // simulated
    w.u32(0xffffffffu); // task count: matches 0xffffffff x 1 x 1
    SweepResult out;
    EXPECT_FALSE(SweepResult::deserialize(w.data(), &out));
}

TEST(ShardedSweep, MergeRejectsMismatchedSweeps)
{
    setLogThrowMode(true);
    RunConfig cfg = storeConfig(8008);
    cfg.cache = false;
    const std::vector<ModelProfile> models = {tinyModel()};
    SweepResult a = ModelRunner(cfg).runMany(models, {}, Shard{0, 2});
    cfg.seed = 8009; // different grid fingerprint
    SweepResult b = ModelRunner(cfg).runMany(models, {}, Shard{1, 2});
    EXPECT_THROW(a.merge(b), SimError);
    setLogThrowMode(false);
}

TEST(ShardedSweep, PartialSweepRejectsModelLevelReads)
{
    setLogThrowMode(true);
    RunConfig cfg = storeConfig(9009);
    cfg.cache = false;
    const std::vector<ModelProfile> models = {tinyModel()};
    SweepResult part =
        ModelRunner(cfg).runMany(models, {}, Shard{0, 2});
    EXPECT_THROW(part.at(0), SimError);
    EXPECT_THROW(part.meanSpeedup(), SimError);
    setLogThrowMode(false);
}

} // namespace
} // namespace tensordash
