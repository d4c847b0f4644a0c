/**
 * @file
 * Tests for the TensorDash tile (paper section 3.3, Fig. 11).
 *
 * Key behaviours: one-side (B) extraction with a shared schedule per
 * row, lockstep window advance (min AS across rows), work-imbalance
 * stalls, and exact functional results for every PE in the grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/tile.hh"

namespace tensordash {
namespace {

BlockStream
randomStream(Rng &rng, int lanes, int rows, double sparsity,
             bool with_values = true)
{
    BlockStream s(lanes, with_values);
    std::vector<float> row(lanes);
    for (int r = 0; r < rows; ++r) {
        uint32_t mask = 0;
        for (int l = 0; l < lanes; ++l) {
            bool zero = rng.bernoulli((float)sparsity);
            float v = zero ? 0.0f : (float)rng.uniformInt(1, 4) *
                                    (rng.bernoulli(0.5f) ? 1.0f : -1.0f);
            row[l] = v;
            if (v != 0.0f)
                mask |= 1u << l;
        }
        if (with_values)
            s.appendValueRow(row.data());
        else
            s.appendMaskRow(mask);
    }
    return s;
}

TileJob
randomJob(Rng &rng, const TileConfig &cfg, int steps, double b_sparsity,
          double a_sparsity, bool with_values = true)
{
    TileJob job;
    for (int r = 0; r < cfg.rows; ++r)
        job.b.push_back(randomStream(rng, cfg.lanes, steps, b_sparsity,
                                     with_values));
    for (int c = 0; c < cfg.cols; ++c)
        job.a.push_back(randomStream(rng, cfg.lanes, steps, a_sparsity,
                                     with_values));
    return job;
}

double
denseDot(const BlockStream &a, const BlockStream &b)
{
    double acc = 0.0;
    for (int r = 0; r < a.rows(); ++r)
        for (int l = 0; l < a.lanes(); ++l)
            acc += (double)a.value(r, l) * (double)b.value(r, l);
    return acc;
}

TEST(Tile, DenseJobTakesBaselineCycles)
{
    Rng rng(1);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 20, 0.0, 0.0, false);
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), 20u);
    EXPECT_EQ(Tile::baselineCycles(job), 20u);
    EXPECT_DOUBLE_EQ(stats.speedup(), 1.0);
}

TEST(Tile, AllZeroBSideHitsDepthCap)
{
    Rng rng(2);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 30, 1.0, 0.0, false);
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), 10u);
}

TEST(Tile, OneSideExtractionIgnoresASparsity)
{
    Rng rng(3);
    TileConfig cfg;
    Tile tile(cfg);
    // Sparse A, dense B: a tile extracts sparsity only from B.
    TileJob job = randomJob(rng, cfg, 25, 0.0, 0.9, false);
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), 25u);
}

TEST(Tile, SlowestRowGatesAdvance)
{
    // One dense row stream among sparse ones: the tile advances at the
    // dense row's pace (1 step/cycle), the paper's imbalance effect.
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job;
    int steps = 24;
    for (int r = 0; r < 4; ++r) {
        BlockStream s(16, false);
        for (int i = 0; i < steps; ++i)
            s.appendMaskRow(r == 0 ? 0xffffu : 0x0000u);
        job.b.push_back(s);
    }
    for (int c = 0; c < 4; ++c) {
        BlockStream s(16, false);
        for (int i = 0; i < steps; ++i)
            s.appendMaskRow(0xffffu);
        job.a.push_back(s);
    }
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), (uint64_t)steps);
    EXPECT_GT(stats.stall_cycles, 0u);
}

TEST(Tile, SingleRowAvoidsImbalance)
{
    // The same sparse stream runs faster in a 1-row tile than when a
    // dense neighbour gates it (Fig. 17's trend).
    Rng rng(4);
    int steps = 48;
    BlockStream sparse = randomStream(rng, 16, steps, 0.9, false);
    BlockStream dense = randomStream(rng, 16, steps, 0.0, false);
    BlockStream acts = randomStream(rng, 16, steps, 0.0, false);

    TileConfig one_row{.rows = 1, .cols = 1};
    Tile tile1(one_row);
    TileJob job1;
    job1.b.push_back(sparse);
    job1.a.push_back(acts);
    TileStats s1;
    uint64_t fast = tile1.run(job1, s1);

    TileConfig two_rows{.rows = 2, .cols = 1};
    Tile tile2(two_rows);
    TileJob job2;
    job2.b.push_back(dense);
    job2.b.push_back(sparse);
    job2.a.push_back(acts);
    TileStats s2;
    uint64_t slow = tile2.run(job2, s2);

    EXPECT_LT(fast, slow);
    EXPECT_EQ(slow, (uint64_t)steps);
}

/** Functional sweep over geometry and sparsity. */
class TileFunctional : public ::testing::TestWithParam<
    std::tuple<int, int, int, int>>
{
    // (rows, cols, sparsity_pct, seed)
};

TEST_P(TileFunctional, EveryPeMatchesDenseDotExactly)
{
    auto [rows, cols, sparsity_pct, seed] = GetParam();
    Rng rng((uint64_t)seed * 97 + rows * 13 + cols * 7 + sparsity_pct);
    TileConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 30, sparsity_pct / 100.0,
                            sparsity_pct / 100.0);
    TileStats stats;
    std::vector<std::vector<double>> outputs;
    tile.run(job, stats, &outputs);
    ASSERT_EQ(outputs.size(), (size_t)rows);
    for (int r = 0; r < rows; ++r) {
        ASSERT_EQ(outputs[r].size(), (size_t)cols);
        for (int c = 0; c < cols; ++c)
            EXPECT_EQ(outputs[r][c], denseDot(job.a[c], job.b[r]))
                << "PE(" << r << "," << c << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, TileFunctional,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4),
                       ::testing::Values(0, 40, 80),
                       ::testing::Values(1, 2)));

/** Cycle property sweep: more rows can only slow a tile down. */
class TileRows : public ::testing::TestWithParam<int>
{
};

TEST_P(TileRows, CyclesBoundedByDenseAndDepth)
{
    int sparsity_pct = GetParam();
    Rng rng(500 + sparsity_pct);
    TileConfig cfg;
    Tile tile(cfg);
    TileStats stats;
    for (int trial = 0; trial < 5; ++trial) {
        TileJob job = randomJob(rng, cfg, 40, sparsity_pct / 100.0, 0.0,
                                false);
        uint64_t cycles = tile.run(job, stats);
        EXPECT_LE(cycles, 40u);
        EXPECT_GE(cycles, (40u + 2) / 3);
    }
}

INSTANTIATE_TEST_SUITE_P(Sparsities, TileRows,
                         ::testing::Values(0, 25, 50, 75, 95));

TEST(Tile, MoreRowsNeverFaster)
{
    // Average over several jobs: a 8-row tile sharing one window cannot
    // beat 4 independent 2-row tiles on the same streams.
    Rng rng(42);
    int steps = 64;
    std::vector<BlockStream> b_streams;
    for (int r = 0; r < 8; ++r)
        b_streams.push_back(randomStream(rng, 16, steps, 0.7, false));
    BlockStream acts = randomStream(rng, 16, steps, 0.0, false);

    TileConfig big{.rows = 8, .cols = 1};
    Tile big_tile(big);
    TileJob big_job;
    big_job.b = b_streams;
    big_job.a.push_back(acts);
    TileStats bs;
    uint64_t big_cycles = big_tile.run(big_job, bs);

    TileConfig small{.rows = 2, .cols = 1};
    Tile small_tile(small);
    uint64_t small_cycles_max = 0;
    for (int g = 0; g < 4; ++g) {
        TileJob job;
        job.b = {b_streams[2 * g], b_streams[2 * g + 1]};
        job.a.push_back(acts);
        TileStats ss;
        small_cycles_max = std::max(small_cycles_max,
                                    small_tile.run(job, ss));
    }
    EXPECT_GE(big_cycles, small_cycles_max);
}

TEST(Tile, PartialJobsUseFewerStreams)
{
    Rng rng(6);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job;
    job.b.push_back(randomStream(rng, 16, 12, 0.5));
    job.a.push_back(randomStream(rng, 16, 12, 0.0));
    job.a.push_back(randomStream(rng, 16, 12, 0.0));
    TileStats stats;
    std::vector<std::vector<double>> outputs;
    tile.run(job, stats, &outputs);
    ASSERT_EQ(outputs.size(), 1u);
    ASSERT_EQ(outputs[0].size(), 2u);
    for (int c = 0; c < 2; ++c)
        EXPECT_EQ(outputs[0][c], denseDot(job.a[c], job.b[0]));
}

TEST(Tile, RejectsOversizedJobs)
{
    setLogThrowMode(true);
    Rng rng(7);
    TileConfig cfg{.rows = 2, .cols = 2};
    Tile tile(cfg);
    TileJob job = randomJob(rng, TileConfig{.rows = 4, .cols = 2}, 4,
                            0.0, 0.0, false);
    TileStats stats;
    EXPECT_THROW(tile.run(job, stats), SimError);
    setLogThrowMode(false);
}

TEST(Tile, RejectsMismatchedStreamLengths)
{
    setLogThrowMode(true);
    Rng rng(8);
    TileConfig cfg{.rows = 2, .cols = 1};
    Tile tile(cfg);
    TileJob job;
    job.b.push_back(randomStream(rng, 16, 4, 0.0, false));
    job.b.push_back(randomStream(rng, 16, 5, 0.0, false));
    job.a.push_back(randomStream(rng, 16, 4, 0.0, false));
    TileStats stats;
    EXPECT_THROW(tile.run(job, stats), SimError);
    setLogThrowMode(false);
}

TEST(Tile, PlaceholderASideRunsLikeGatheredStreams)
{
    // A performance run reads only the A side's column count, so
    // empty placeholders (what mask-mode lowering emits) give the
    // gathered streams' cycles and stats; a functional run, which
    // moves A values, still rejects them.
    Rng rng(12);
    TileConfig cfg;
    Tile tile(cfg);
    for (double sparsity : {0.0, 0.5, 0.9}) {
        TileJob job = randomJob(rng, cfg, 24, sparsity, 0.3, false);
        TileJob placeholders = job;
        for (BlockStream &a : placeholders.a)
            a = BlockStream(cfg.lanes);
        TileStats full, empty;
        EXPECT_EQ(tile.run(placeholders, empty), tile.run(job, full));
        EXPECT_EQ(empty.cycles, full.cycles);
        EXPECT_EQ(empty.mult_ops, full.mult_ops);
        EXPECT_EQ(empty.idle_mult_slots, full.idle_mult_slots);
        EXPECT_EQ(empty.stall_cycles, full.stall_cycles);
        EXPECT_EQ(empty.a_rows_fetched, full.a_rows_fetched);
    }
    setLogThrowMode(true);
    TileJob job = randomJob(rng, cfg, 8, 0.5, 0.0, true);
    job.a[1] = BlockStream(cfg.lanes, true);
    std::vector<std::vector<double>> outputs;
    TileStats stats;
    EXPECT_THROW(tile.run(job, stats, &outputs), SimError);
    setLogThrowMode(false);
}

TEST(Tile, DeepCrossbarPicksFarLookasides)
{
    // One pair at (step 5, lane 3) of an 8-step job on a 32-lane,
    // 8-deep crossbar: lane 0 reaches it as option 166 in the first
    // cycle, so the job takes one cycle and one multiplication.  An
    // 8-bit select wrapped that option negative, left the pair
    // pending and ran 2 cycles with 2 multiplications.
    TileConfig cfg{.rows = 1, .cols = 1, .lanes = 32, .depth = 8,
                   .interconnect = InterconnectKind::Crossbar};
    Tile tile(cfg);
    std::vector<float> row(32, 0.0f);
    TileJob values;
    values.b.emplace_back(32, true);
    values.a.emplace_back(32, true);
    TileJob masks;
    masks.b.emplace_back(32);
    masks.a.emplace_back(32);
    for (int step = 0; step < 8; ++step) {
        row[3] = step == 5 ? 3.0f : 0.0f;
        values.b[0].appendValueRow(row.data());
        values.a[0].appendValueRow(row.data());
        masks.b[0].appendMaskRow(step == 5 ? 1u << 3 : 0u);
    }
    TileStats stats;
    EXPECT_EQ(tile.run(masks, stats), 1u);
    EXPECT_EQ(stats.mult_ops, 1u);
    TileStats fstats;
    std::vector<std::vector<double>> outputs;
    EXPECT_EQ(tile.run(values, fstats, &outputs), 1u);
    EXPECT_EQ(fstats.mult_ops, 1u);
    EXPECT_EQ(outputs[0][0], 9.0);
}

TEST(Tile, MultOpsScaleWithColumns)
{
    Rng rng(9);
    int steps = 16;
    BlockStream b = randomStream(rng, 16, steps, 0.5, false);
    BlockStream a = randomStream(rng, 16, steps, 0.0, false);

    TileConfig one{.rows = 1, .cols = 1};
    TileConfig four{.rows = 1, .cols = 4};
    Tile t1(one), t4(four);
    TileJob j1, j4;
    j1.b.push_back(b);
    j1.a.push_back(a);
    j4.b.push_back(b);
    for (int c = 0; c < 4; ++c)
        j4.a.push_back(a);
    TileStats s1, s4;
    uint64_t c1 = t1.run(j1, s1);
    uint64_t c4 = t4.run(j4, s4);
    // Same schedule, same cycles, 4x the multiplications.
    EXPECT_EQ(c1, c4);
    EXPECT_EQ(s4.mult_ops, 4 * s1.mult_ops);
}

TEST(Tile, StatsRowFetchAccounting)
{
    Rng rng(10);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 10, 0.2, 0.0, false);
    TileStats stats;
    tile.run(job, stats);
    EXPECT_EQ(stats.b_rows_fetched, 4u * 10u);
    EXPECT_EQ(stats.a_rows_fetched, 4u * 10u);
    EXPECT_EQ(stats.dense_cycles, 10u);
}

TEST(Tile, MultSlotAccountingClosesEveryCycle)
{
    // Every cycle charges each of the job's rows exactly lanes x ncols
    // multiplier slots, split between mult_ops and idle_mult_slots —
    // including rows whose window was entirely zero (the fast path that
    // skips the scheduler call must keep the ledger balanced).  The
    // invariant per job: mult_ops + idle_mult_slots ==
    // lanes x cycles x ncols x nrows.
    Rng rng(11);
    for (double sparsity : {0.0, 0.5, 0.9, 1.0}) {
        for (int rows : {1, 4}) {
            TileConfig cfg;
            cfg.rows = rows;
            Tile tile(cfg);
            TileJob job = randomJob(rng, cfg, 40, sparsity, 0.0, false);
            TileStats stats;
            uint64_t cycles = tile.run(job, stats);
            EXPECT_EQ(stats.mult_ops + stats.idle_mult_slots,
                      (uint64_t)cfg.lanes * cycles * cfg.cols * rows)
                << "sparsity=" << sparsity << " rows=" << rows;
        }
    }
}

} // namespace
} // namespace tensordash
