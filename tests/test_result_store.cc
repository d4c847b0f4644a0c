/**
 * @file
 * Tests for content-addressed simulation results: FNV fingerprinting
 * and binary serialization primitives, TaskKey stability and
 * sensitivity, ResultStore memo/disk caching (cached run bit-identical
 * to a cold run), and sharded sweep execution (N-way shard merges
 * bit-identical to an unsharded run under both memory models).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
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
    // Default parallelism on purpose: under the TSan CI job (TD_THREADS=4)
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

/** Byte offset of a pack's first record payload: the 12-byte pack
 * header (magic, version, count), then the record's key u64 and
 * payload length u32. */
constexpr size_t kFirstPayload = 24;

/** Move @p path's mtime an hour back, so "oldest first" and "changed
 * since the last listing" never hinge on one timestamp tick. */
void
ageByAnHour(const std::string &path)
{
    std::filesystem::last_write_time(
        path,
        std::filesystem::last_write_time(path) - std::chrono::hours(1));
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
    // One pack per sweep, holding a record per (layer, op) cell, and
    // nothing else: no per-cell file, no leftover temp file.
    std::vector<CacheEntryInfo> packs = ResultStore::listDir(dir);
    ASSERT_EQ(packs.size(), 1u);
    EXPECT_EQ(packs[0].state, CacheEntryState::Ok);
    EXPECT_EQ(packs[0].cells, cold.cellCount());
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(packs[0].path, &bytes));
    EXPECT_EQ(ResultStore::decodePack(bytes).size(), cold.cellCount());
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".tdpk");
        ++files;
    }
    EXPECT_EQ(files, 1u);

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
    std::vector<CacheEntryInfo> packs = ResultStore::listDir(dir);
    ASSERT_EQ(packs.size(), 1u);
    const std::string pack = packs[0].path;
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(pack, &bytes));
    ASSERT_GT(bytes.size(), kFirstPayload + 16);

    // Flip a byte inside the first record's payload: its checksum
    // fails, and exactly that cell re-simulates.
    std::vector<uint8_t> damaged = bytes;
    damaged[kFirstPayload + 8] ^= 0x01;
    ASSERT_TRUE(writeFileBytes(pack, damaged));

    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, 1u); // only the corrupt cell re-ran
    EXPECT_EQ(warm.cache_hits, warm.cellCount() - 1);
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));

    // A record whose checksum matches but whose op byte (the payload's
    // first) names no TrainOp is rejected by deserialize: corrupt too.
    std::vector<uint8_t> bad_op = bytes;
    bad_op[kFirstPayload] = 0xff;
    ByteReader len_field(bad_op.data() + kFirstPayload - 4, 4);
    const size_t len = len_field.u32();
    ASSERT_LE(kFirstPayload + len + 8, bad_op.size());
    const uint64_t sum =
        FnvHasher::hashBytes(bad_op.data() + 12, 12 + len);
    for (int i = 0; i < 8; ++i)
        bad_op[kFirstPayload + len + i] = (uint8_t)(sum >> (8 * i));
    EXPECT_EQ(ResultStore::decodePack(bad_op).size(),
              cold.cellCount() - 1);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(writeFileBytes(pack, bad_op));

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
    for (uint64_t i = 1; i <= cells; ++i) {
        store.insert(TaskKey{i}, OpCellResult{}, dir);
        EXPECT_FALSE(store.flush());
    }
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
    // Two sweeps, two packs: the second holds only the cells the
    // first did not simulate.
    SweepResult first = ModelRunner(cfg).runMany(
        std::vector<ModelProfile>{tinyModel()});
    SweepResult both = ModelRunner(cfg).runMany(
        std::vector<ModelProfile>{tinyModel(), tinyModelB()});
    ASSERT_EQ(both.simulated, both.cellCount() - first.cellCount());

    std::vector<CacheEntryInfo> entries = ResultStore::listDir(dir);
    ASSERT_EQ(entries.size(), 2u);
    uint64_t cells = 0;
    for (const CacheEntryInfo &e : entries) {
        EXPECT_EQ(e.state, CacheEntryState::Ok);
        EXPECT_EQ(e.version, kResultFormatVersion);
        EXPECT_GT(e.bytes, 0u);
        cells += e.cells;
        // A pack is named by the hash of its bytes.
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(readFileBytes(e.path, &bytes));
        EXPECT_EQ(bytes.size(), e.bytes);
        EXPECT_NE(e.path.find(FnvHasher::toHex(
                      FnvHasher::hashBytes(bytes.data(), bytes.size()))),
                  std::string::npos);
    }
    EXPECT_EQ(cells, both.cellCount());
    // Oldest first, ties broken by path: the order is deterministic.
    for (size_t i = 1; i < entries.size(); ++i)
        EXPECT_TRUE(entries[i - 1].mtime < entries[i].mtime ||
                    (entries[i - 1].mtime == entries[i].mtime &&
                     entries[i - 1].path < entries[i].path));

    // A garbage file with the pack extension is visible as corrupt,
    // and a per-cell file a pre-pack cache wrote as stale.
    ASSERT_TRUE(writeFileBytes(dir + "/junk.tdpk", {'x'}));
    ByteWriter legacy;
    legacy.u32(0x524c4454); // per-cell entry magic "TDLR"
    legacy.u32(kResultFormatVersion);
    legacy.u64(0x1234);
    ASSERT_TRUE(writeFileBytes(dir + "/0000000000001234.tdlr",
                               legacy.data()));
    entries = ResultStore::listDir(dir);
    ASSERT_EQ(entries.size(), 4u);
    size_t corrupt = 0, stale = 0;
    for (const CacheEntryInfo &e : entries) {
        corrupt += e.state == CacheEntryState::Corrupt;
        stale += e.state == CacheEntryState::Stale;
    }
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(stale, 1u);

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
    // Two packs, the older (tinyModel's cells) an hour older.
    ModelRunner(cfg).runMany(std::vector<ModelProfile>{tinyModel()});
    ASSERT_EQ(ResultStore::listDir(dir).size(), 1u);
    ageByAnHour(ResultStore::listDir(dir)[0].path);
    SweepResult cold = ModelRunner(cfg).runMany(models);

    std::vector<CacheEntryInfo> before = ResultStore::listDir(dir);
    ASSERT_EQ(before.size(), 2u);
    ASSERT_LT(before[0].mtime, before[1].mtime);
    uint64_t total = 0;
    for (const CacheEntryInfo &e : before)
        total += e.bytes;

    // Prune to the newest pack's size: stats balance, the survivor is
    // the newest pack, and the bound holds.
    const uint64_t bound = before.back().bytes;
    CachePruneStats stats = ResultStore::prune(dir, bound);
    EXPECT_EQ(stats.scanned, before.size());
    EXPECT_EQ(stats.scanned_bytes, total);
    EXPECT_GT(stats.evicted, 0u);
    EXPECT_LT(stats.evicted, before.size());
    EXPECT_LE(stats.remainingBytes(), bound);
    std::vector<CacheEntryInfo> after = ResultStore::listDir(dir);
    EXPECT_EQ(after.size(), before.size() - stats.evicted);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].path, before.back().path);
    uint64_t remaining = 0;
    for (const CacheEntryInfo &e : after)
        remaining += e.bytes;
    EXPECT_EQ(remaining, stats.remainingBytes());

    // Eviction is safe: a fresh process re-simulates exactly the
    // pruned pack's cells and the output is bit-identical.
    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, before[0].cells);
    EXPECT_EQ(warm.cache_hits, warm.cellCount() - before[0].cells);
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
    const size_t live = 1; // one pack per sweep

    // Plant two entries a format change orphaned — a pack of the
    // previous format version and a per-cell file a pre-pack cache
    // wrote, stale even at the current version — and one corrupt file
    // (not a cache file at all).
    ByteWriter old_pack;
    old_pack.u32(0x4b504454); // pack magic "TDPK"
    old_pack.u32(kResultFormatVersion - 1);
    old_pack.u32(0);
    ASSERT_TRUE(writeFileBytes(dir + "/old_a.tdpk", old_pack.data()));
    ByteWriter per_cell;
    per_cell.u32(0x524c4454); // per-cell entry magic "TDLR"
    per_cell.u32(kResultFormatVersion);
    per_cell.u64(0x1234);
    per_cell.str("payload of a per-cell entry");
    ASSERT_TRUE(writeFileBytes(dir + "/old_b.tdlr", per_cell.data()));
    ASSERT_TRUE(writeFileBytes(dir + "/junk.tdpk", {'x'}));
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

    // Real run: stale entries gone; the live pack and the corrupt
    // file (which may not be a cache file at all) are untouched.
    opts.dry_run = false;
    stats = ResultStore::prune(dir, opts);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.stale_evicted, 2u);
    std::vector<CacheEntryInfo> after = ResultStore::listDir(dir);
    ASSERT_EQ(after.size(), live + 1);
    for (const CacheEntryInfo &e : after)
        EXPECT_NE(e.state, CacheEntryState::Stale);

    // The surviving live entries still serve a fresh process fully.
    ResultStore::shared().clearMemo();
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(contentBytes(cold), contentBytes(warm));
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, PackWrittenAfterScanIsSeen)
{
    // Two stores stand for two processes sharing one dir.  B lists the
    // dir on a miss; A then flushes a pack, and B's next miss must
    // find it.  The dir's mtime is aged first, so A's write moves it
    // even within one timestamp tick.
    const std::string dir = freshCacheDir("td_store_visibility");
    ageByAnHour(dir);
    ResultStore a, b;
    OpCellResult cell;
    cell.op.td_cycles = 42.0;
    OpCellResult got;
    EXPECT_FALSE(b.lookup(TaskKey{7}, &got, dir));

    a.insert(TaskKey{7}, cell, dir);
    ASSERT_TRUE(a.flush());
    ASSERT_TRUE(b.lookup(TaskKey{7}, &got, dir));
    EXPECT_EQ(got.op.td_cycles, 42.0);
    CacheCounters c = b.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.disk_hits, 1u);

    // The record moved into B's memo: the repeat is a memo hit.
    ASSERT_TRUE(b.lookup(TaskKey{7}, &got, dir));
    EXPECT_EQ(b.counters().memo_hits, 1u);
    EXPECT_EQ(b.counters().disk_hits, 1u);
}

TEST(ResultStoreTest, CancelledSweepPersistsFinishedCells)
{
    const std::string dir = freshCacheDir("td_store_cancel");
    ResultStore::shared().clearMemo();
    RunConfig cfg = storeConfig(4110);
    cfg.cache_dir = dir;
    cfg.threads = 1; // one task at a time: the cancel lands after one
    SweepSpec spec;
    spec.models = {tinyModel(), tinyModelB()};

    // Cancel as the first layer task completes; the rest are skipped.
    std::atomic<bool> cancel{false};
    RunHooks hooks;
    hooks.cancel = &cancel;
    hooks.progress = [&](const SweepProgress &) { cancel = true; };
    SweepResult partial = ModelRunner(cfg).runSweep(spec, {}, hooks);
    ASSERT_FALSE(partial.complete());
    ASSERT_GT(partial.simulated, 0u);
    ASSERT_LT(partial.simulated, partial.cellCount());

    // The drained sweep still flushed its finished cells as one pack.
    std::vector<CacheEntryInfo> packs = ResultStore::listDir(dir);
    ASSERT_EQ(packs.size(), 1u);
    EXPECT_EQ(packs[0].cells, partial.simulated);

    // A fresh process resumes: the finished cells hit, the rest
    // simulate, and the result matches an uncached run bit for bit.
    ResultStore::shared().clearMemo();
    SweepResult resumed = ModelRunner(cfg).runSweep(spec);
    EXPECT_EQ(resumed.cache_hits, partial.simulated);
    EXPECT_EQ(resumed.simulated,
              resumed.cellCount() - partial.simulated);
    RunConfig uncached = cfg;
    uncached.cache = false;
    EXPECT_EQ(contentBytes(resumed),
              contentBytes(ModelRunner(uncached).runSweep(spec)));
    ResultStore::shared().clearMemo();
}

TEST(ResultStoreTest, PackMutationSweepNeverYieldsAChangedCell)
{
    // Three distinct cells, flushed as one pack.  The store writes
    // records in key order, and so does the map.
    const std::string dir = freshCacheDir("td_store_mutation");
    ResultStore store;
    std::map<uint64_t, std::vector<uint8_t>> payloads;
    for (uint64_t i = 0; i < 3; ++i) {
        OpCellResult c;
        c.op.op = (TrainOp)i;
        c.op.base_cycles = 1000.0 + (double)i;
        c.op.td_cycles = 400.0 + (double)i;
        c.op.memory_bound = i == 1;
        c.op.mac_slots = 1e6 * (double)(i + 1);
        c.energy_td.dram_j = 3.5 * (double)(i + 1);
        const uint64_t key = 0x0123456789abcdefull * (i + 1);
        ByteWriter w;
        c.serialize(w);
        payloads[key] = w.data();
        store.insert(TaskKey{key}, c, dir);
    }
    ASSERT_TRUE(store.flush());
    const std::vector<CacheEntryInfo> packs = ResultStore::listDir(dir);
    ASSERT_EQ(packs.size(), 1u);
    std::vector<uint8_t> pack;
    ASSERT_TRUE(readFileBytes(packs[0].path, &pack));

    // Decode @p bytes; every record must be one of the originals,
    // byte for byte, at most once.  @return the decoded keys.
    auto decodedKeys = [&](const std::vector<uint8_t> &bytes) {
        std::set<uint64_t> keys;
        for (const PackedCell &c : ResultStore::decodePack(bytes)) {
            ByteWriter w;
            c.second.serialize(w);
            auto it = payloads.find(c.first);
            EXPECT_TRUE(it != payloads.end() && it->second == w.data())
                << "decoded a changed cell";
            EXPECT_TRUE(keys.insert(c.first).second);
        }
        return keys;
    };
    std::set<uint64_t> all;
    for (const auto &kv : payloads)
        all.insert(kv.first);
    ASSERT_EQ(decodedKeys(pack), all);

    // Every prefix truncation yields a subset.
    for (size_t n = 0; n < pack.size(); ++n)
        decodedKeys(std::vector<uint8_t>(pack.begin(), pack.begin() + n));

    // Every single-bit flip yields a subset, and a flip inside one
    // record's payload drops exactly that record.  A record's payload
    // starts after the 12-byte header, the earlier records (20 bytes
    // of framing each) and its own key and length.
    std::map<uint64_t, std::pair<size_t, size_t>> payload_at;
    size_t pos = 12;
    for (const auto &[key, payload] : payloads) {
        payload_at[key] = {pos + 12, pos + 12 + payload.size()};
        pos += 20 + payload.size();
    }
    ASSERT_EQ(pos, pack.size());
    for (size_t bit = 0; bit < pack.size() * 8; ++bit) {
        std::vector<uint8_t> flipped = pack;
        flipped[bit / 8] ^= (uint8_t)(1u << (bit % 8));
        const std::set<uint64_t> keys = decodedKeys(flipped);
        for (const auto &[key, at] : payload_at) {
            if (bit / 8 < at.first || bit / 8 >= at.second)
                continue;
            std::set<uint64_t> expect = all;
            expect.erase(key);
            EXPECT_EQ(keys, expect) << "bit " << bit;
        }
    }
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

    // Header layout up to the one variant's enum bytes: magic, version
    // and fingerprint (16 bytes), variant count, the variant's empty
    // label, then its memory model (24) and phase (25).
    const size_t kVariantMemoryModel = 24, kVariantPhase = 25;
    ASSERT_EQ(bytes[kVariantMemoryModel], (uint8_t)cfg.accel.memory_model);
    ASSERT_EQ(bytes[kVariantPhase], (uint8_t)WorkloadPhase::Training);
    bad = bytes;
    bad[kVariantMemoryModel] = 2; // one past MemoryModel::Pipelined
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));
    bad = bytes;
    bad[kVariantPhase] = 2; // one past WorkloadPhase::Inference
    EXPECT_FALSE(SweepResult::deserialize(bad, &out));
}

TEST(ShardedSweep, DeserializeRejectsHugeDeclaredGrids)
{
    // An internally consistent but absurd task count (layer count and
    // grid size both 2^32-1) must be rejected by the bytes-present
    // bound before any allocation, not crash the merge driver with
    // bad_alloc.
    auto header = [](uint32_t layers) {
        ByteWriter w;
        w.u32(0x57534454); // "TDSW" magic
        w.u32(kResultFormatVersion);
        w.u64(0);          // fingerprint
        w.u32(1);          // one variant
        w.str("");         // variant label
        w.u8(0);           // variant memory model
        w.u8(0);           // variant phase (training)
        w.u32(1);          // one model
        w.str("evil");
        w.u32(layers);     // layer count
        w.u32(1);          // one progress point
        w.f64(0.5);
        w.u64(0);          // cache hits
        w.u64(0);          // simulated
        w.u64(0);          // estimated
        w.u32(layers);     // task count: layers x 1 point x 1 variant
        return w.data();
    };
    SweepResult out;
    EXPECT_FALSE(SweepResult::deserialize(header(0xffffffffu), &out));

    // Positive control: the same header declaring one layer, followed
    // by its absent slot's mask byte, parses — so the rejection above
    // is the grid bound, not a malformed header.
    std::vector<uint8_t> one = header(1);
    one.push_back(0);
    ASSERT_TRUE(SweepResult::deserialize(one, &out));
    EXPECT_EQ(out.taskCount(), 1u);
    EXPECT_EQ(out.presentCellCount(), 0u);
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
