/**
 * @file
 * Tests for scheduled-in-memory tensors (paper section 3.6) and the
 * backside scheduler (section 3.7): lossless round trips, footprint
 * accounting, and iterative timing.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/backside.hh"
#include "sim/prescheduler.hh"

namespace tensordash {
namespace {

BlockStream
randomStream(Rng &rng, int lanes, int rows, double sparsity)
{
    BlockStream s(lanes, true);
    std::vector<float> row(lanes);
    for (int r = 0; r < rows; ++r) {
        for (int l = 0; l < lanes; ++l)
            row[l] = rng.bernoulli((float)sparsity)
                ? 0.0f : (float)rng.uniformInt(1, 9);
        s.appendValueRow(row.data());
    }
    return s;
}

bool
streamsEqual(const BlockStream &a, const BlockStream &b)
{
    if (a.rows() != b.rows() || a.lanes() != b.lanes())
        return false;
    for (int r = 0; r < a.rows(); ++r)
        for (int l = 0; l < a.lanes(); ++l)
            if (a.value(r, l) != b.value(r, l))
                return false;
    return true;
}

/** Round-trip sweep across sparsity levels. */
class PreSchedulerRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(PreSchedulerRoundTrip, DecompressRestoresDenseForm)
{
    int sparsity_pct = GetParam();
    Rng rng(100 + sparsity_pct);
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BlockStream dense = randomStream(rng, 16, 40,
                                     sparsity_pct / 100.0);
    ScheduledStream packed = ps.schedule(dense);
    BlockStream back = ps.decompress(packed);
    EXPECT_TRUE(streamsEqual(dense, back));
}

INSTANTIATE_TEST_SUITE_P(Sparsities, PreSchedulerRoundTrip,
                         ::testing::Values(0, 20, 50, 80, 95, 100));

TEST(PreScheduler, PackedRowsMatchFrontEndCycles)
{
    // The packed row count equals the cycles the front-end scheduler
    // would take, so compression ratio mirrors speedup.
    Rng rng(1);
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BlockStream dense = randomStream(rng, 16, 60, 0.9);
    ScheduledStream packed = ps.schedule(dense);
    EXPECT_LT(packed.rows.size(), 30u); // > 2x fewer rows at 90%
    EXPECT_GE(packed.rows.size(), 20u); // capped by 3-deep staging
}

TEST(PreScheduler, DenseStreamGainsNothing)
{
    Rng rng(2);
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BlockStream dense = randomStream(rng, 16, 20, 0.0);
    ScheduledStream packed = ps.schedule(dense);
    EXPECT_EQ(packed.rows.size(), 20u);
    // Footprint slightly above dense (idx + occupancy overhead).
    EXPECT_GT(packed.packedBytes(4), packed.denseBytes(4));
    EXPECT_LT(packed.compressionRatio(4), 1.0);
}

TEST(PreScheduler, SparseStreamCompresses)
{
    Rng rng(3);
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BlockStream dense = randomStream(rng, 16, 64, 0.85);
    ScheduledStream packed = ps.schedule(dense);
    EXPECT_GT(packed.compressionRatio(4), 2.0);
}

TEST(PreScheduler, FootprintFormula)
{
    // One row, 3 nonzeros: 3 bytes header + 3 values + 2 idx bytes.
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BlockStream dense(16, true);
    float row[16] = {};
    row[0] = 1.0f;
    row[5] = 2.0f;
    row[9] = 3.0f;
    dense.appendValueRow(row);
    ScheduledStream packed = ps.schedule(dense);
    ASSERT_EQ(packed.rows.size(), 1u);
    EXPECT_EQ(packed.rows[0].picks, 3);
    EXPECT_EQ(packed.packedBytes(4), 3u + 3u * 4u + 2u);
    EXPECT_EQ(packed.denseBytes(4), 64u);
}

TEST(PreScheduler, EmptyStream)
{
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BlockStream dense(16, true);
    ScheduledStream packed = ps.schedule(dense);
    EXPECT_TRUE(packed.rows.empty());
    BlockStream back = ps.decompress(packed);
    EXPECT_EQ(back.rows(), 0);
}

TEST(PreScheduler, TwoDeepPatternRoundTrips)
{
    Rng rng(4);
    MuxPattern pattern(16, 2);
    PreScheduler ps(pattern);
    BlockStream dense = randomStream(rng, 16, 30, 0.7);
    ScheduledStream packed = ps.schedule(dense);
    EXPECT_TRUE(streamsEqual(dense, ps.decompress(packed)));
}

TEST(PreScheduler, DeepCrossbarRoundTripKeepsHighOptionIndex)
{
    // On a 32-lane, 8-deep crossbar the lone value at (step 5, lane 3)
    // is lane 0's option 166, past what 8 bits hold: stored narrow it
    // read back as an empty lane and decompression dropped the value.
    MuxPattern pattern(32, 8, InterconnectKind::Crossbar);
    PreScheduler ps(pattern);
    BlockStream dense(32, true);
    std::vector<float> row(32, 0.0f);
    for (int r = 0; r < 8; ++r) {
        row[3] = r == 5 ? 7.0f : 0.0f;
        dense.appendValueRow(row.data());
    }
    ScheduledStream packed = ps.schedule(dense);
    ASSERT_EQ(packed.rows.size(), 1u);
    EXPECT_EQ(packed.rows[0].picks, 1);
    EXPECT_EQ(packed.rows[0].idx[0], 166);
    EXPECT_EQ(packed.rows[0].values[0], 7.0f);
    BlockStream back = ps.decompress(packed);
    EXPECT_EQ(back.value(5, 3), 7.0f);
    EXPECT_TRUE(streamsEqual(dense, back));
}

TEST(Backside, SamePackingAsFrontSide)
{
    Rng rng(5);
    MuxPattern pattern(16, 3);
    PreScheduler front(pattern);
    BacksideScheduler back(pattern);
    BlockStream dense = randomStream(rng, 16, 48, 0.6);
    ScheduledStream a = front.schedule(dense);
    uint64_t cycles = 0;
    ScheduledStream b = back.schedule(dense, &cycles);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].picks, b.rows[i].picks);
        EXPECT_EQ(a.rows[i].advance, b.rows[i].advance);
    }
}

TEST(Backside, IterativeTimingIsSixCyclesPerRow)
{
    Rng rng(6);
    MuxPattern pattern(16, 3);
    BacksideScheduler back(pattern);
    EXPECT_EQ(back.cyclesPerRow(), 6); // 6 levels at 16 lanes
    BlockStream dense = randomStream(rng, 16, 30, 0.5);
    uint64_t cycles = 0;
    ScheduledStream packed = back.schedule(dense, &cycles);
    EXPECT_EQ(cycles, packed.rows.size() * 6u);
}

TEST(Backside, KeepsUpWithTypicalLayers)
{
    // Computing one output takes >= 6 cycles whenever the reduction is
    // >= 6 rows long; the iterative scheduler then never stalls the PE.
    MuxPattern pattern(16, 3);
    BacksideScheduler back(pattern);
    EXPECT_TRUE(back.keepsUpWith(8));   // e.g. 128-channel 1x1 conv
    EXPECT_TRUE(back.keepsUpWith(6));
    EXPECT_FALSE(back.keepsUpWith(4)); // very short dot products stall
}

} // namespace
} // namespace tensordash
