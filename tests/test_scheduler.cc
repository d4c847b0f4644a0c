/**
 * @file
 * Tests for the hierarchical hardware scheduler (paper section 3.2).
 *
 * Includes property sweeps (TEST_P) over sparsity levels and random
 * seeds that check schedule validity against the matching oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/scheduler.hh"
#include "sim/staging_buffer.hh"

namespace tensordash {
namespace {

/** Decode a schedule into consumed (step, lane) positions. */
std::vector<std::pair<int, int>>
consumedPositions(const MuxPattern &p, const Schedule &s)
{
    std::vector<std::pair<int, int>> out;
    for (int lane = 0; lane < p.lanes(); ++lane) {
        if (s.select[lane] < 0)
            continue;
        const MoveOption &o = p.options(lane)[s.select[lane]];
        out.emplace_back(o.step, o.lane);
    }
    return out;
}

TEST(Scheduler, DensePassthrough)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    uint32_t pending[3] = {0xffff, 0xffff, 0xffff};
    Schedule s = sched.schedule(pending, 3);
    EXPECT_EQ(s.picks, 16);
    for (int lane = 0; lane < 16; ++lane) {
        const MoveOption &o = p.options(lane)[s.select[lane]];
        EXPECT_EQ(o.step, 0);
        EXPECT_EQ(o.lane, lane);
    }
}

TEST(Scheduler, EmptyWindowSchedulesNothing)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    uint32_t pending[3] = {0, 0, 0};
    Schedule s = sched.schedule(pending, 3);
    EXPECT_EQ(s.picks, 0);
    for (int lane = 0; lane < 16; ++lane)
        EXPECT_EQ(s.select[lane], -1);
}

TEST(Scheduler, LookaheadValueConsumedByEarliestLevel)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    // Lane 4 empty at step 0 but pending at step 1.  (1, 4) is reachable
    // by lanes 3, 4, 5 and 7; lane 5 decides in level 0, before lane 4
    // (level 4), so the earlier level's lookaside wins -- but the pair
    // is consumed exactly once either way.
    uint32_t pending[3] = {0, 1u << 4, 0};
    Schedule s = sched.schedule(pending, 3);
    EXPECT_EQ(s.picks, 1);
    auto used = consumedPositions(p, s);
    ASSERT_EQ(used.size(), 1u);
    EXPECT_EQ(used[0], std::make_pair(1, 4));
    const MoveOption &o = p.options(5)[s.select[5]];
    EXPECT_EQ(o.step, 1);
    EXPECT_EQ(o.lane, 4);
}

TEST(Scheduler, LookasideStealsFromNeighbour)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    // Only (step 1, lane 7) pending: reachable by lanes 6, 7, 8 and 10.
    // Lane 10 decides first (level 0) via its (+1, i-3) option.
    uint32_t pending[3] = {0, 1u << 7, 0};
    Schedule s = sched.schedule(pending, 3);
    EXPECT_EQ(s.picks, 1);
    const MoveOption &o10 = p.options(10)[s.select[10]];
    EXPECT_EQ(o10.step, 1);
    EXPECT_EQ(o10.lane, 7);

    // With lane 7's dense value also pending, both pairs are consumed:
    // lane 7 takes its dense position, lane 10 lookasides into (1, 7).
    uint32_t pending2[3] = {1u << 7, 1u << 7, 0};
    Schedule s2 = sched.schedule(pending2, 3);
    EXPECT_EQ(s2.picks, 2);
    auto used = consumedPositions(p, s2);
    EXPECT_NE(std::find(used.begin(), used.end(),
                        std::make_pair(1, 7)), used.end());
    EXPECT_NE(std::find(used.begin(), used.end(),
                        std::make_pair(0, 7)), used.end());
}

TEST(Scheduler, PriorityOrderIsStatic)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    // Lane 3 has its dense value and lookahead values pending; the
    // dense (+0) option must win.
    uint32_t pending[3] = {1u << 3, 1u << 3, 1u << 3};
    Schedule s = sched.schedule(pending, 3);
    const MoveOption &o = p.options(3)[s.select[3]];
    EXPECT_EQ(o.step, 0);
    EXPECT_EQ(o.lane, 3);
}

TEST(Scheduler, RespectsValidRows)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    uint32_t pending[3] = {0, 0, 0xffff};
    // Step 2 exists but only 2 rows are valid: nothing to schedule.
    Schedule s = sched.schedule(pending, 2);
    EXPECT_EQ(s.picks, 0);
    // With 3 valid rows the step-2 values are reachable.
    Schedule s3 = sched.schedule(pending, 3);
    EXPECT_GT(s3.picks, 0);
}

TEST(Scheduler, NoDoubleConsumptionWithinCycle)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    Rng rng(21);
    for (int trial = 0; trial < 200; ++trial) {
        uint32_t pending[3];
        for (auto &m : pending)
            m = (uint32_t)rng.uniformInt(0, 0xffff);
        Schedule s = sched.schedule(pending, 3);
        auto used = consumedPositions(p, s);
        std::set<std::pair<int, int>> unique(used.begin(), used.end());
        EXPECT_EQ(unique.size(), used.size());
        // Every consumed position was actually pending.
        for (auto [step, lane] : used)
            EXPECT_TRUE(pending[step] >> lane & 1);
    }
}

TEST(Scheduler, Step0AlwaysFullyConsumed)
{
    // Forward-progress guarantee: all pending bits at step 0 are
    // consumed every cycle because only their own lane can select them
    // and nothing outranks them.
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    Rng rng(22);
    for (int trial = 0; trial < 200; ++trial) {
        uint32_t pending[3];
        for (auto &m : pending)
            m = (uint32_t)rng.uniformInt(0, 0xffff);
        Schedule s = sched.schedule(pending, 3);
        uint32_t consumed0 = 0;
        for (auto [step, lane] : consumedPositions(p, s))
            if (step == 0)
                consumed0 |= 1u << lane;
        EXPECT_EQ(consumed0, pending[0]);
    }
}

/**
 * The lane-by-lane reference: levels in order, each lane of a level
 * taking its first pending option in priority order, its pick
 * stripped from the window before the next lane.  @p pending holds
 * the consumed window afterwards.
 */
Schedule
laneWalk(const MuxPattern &p, uint32_t *pending, int valid)
{
    Schedule out;
    out.select.fill(-1);
    for (const auto &level : p.levels()) {
        for (int lane : level) {
            const auto &options = p.options(lane);
            for (size_t i = 0; i < options.size(); ++i) {
                const MoveOption &o = options[i];
                if (o.step < valid && (pending[o.step] >> o.lane & 1)) {
                    pending[o.step] &= ~(1u << o.lane);
                    out.select[lane] = (int16_t)i;
                    ++out.picks;
                    break;
                }
            }
        }
    }
    return out;
}

TEST(Scheduler, LevelsMatchTheLaneWalkOnEveryPattern)
{
    // Resolving a level's lanes together is the lane walk because a
    // level's option sets are disjoint.  Every interconnect, lane
    // count and depth, at window densities from empty to full and at
    // every valid-row count: equal selects, picks and consumed
    // windows, and consume() never touches a step past the window.
    const InterconnectKind kinds[] = {
        InterconnectKind::DenseOnly, InterconnectKind::LookaheadOnly,
        InterconnectKind::Paper, InterconnectKind::Crossbar};
    Rng rng(2024);
    for (InterconnectKind kind : kinds) {
        for (int lanes : {1, 2, 3, 4, 5, 8, 16, 32}) {
            for (int depth : {1, 2, 3, 4, 8}) {
                MuxPattern p(lanes, depth, kind);
                HierarchicalScheduler sched(p);
                SCOPED_TRACE(testing::Message()
                             << "kind " << (int)kind << " lanes " << lanes
                             << " depth " << depth);
                uint32_t full = lanes == 32 ? 0xffffffffu
                                            : (1u << lanes) - 1u;
                for (double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
                    for (int trial = 0; trial < 24; ++trial) {
                        int valid = 1 + trial % depth;
                        uint32_t window[MuxPattern::kMaxDepth];
                        for (int s = 0; s < depth; ++s) {
                            window[s] = 0;
                            for (int l = 0; l < lanes; ++l)
                                if (rng.bernoulli((float)density))
                                    window[s] |= 1u << l;
                        }
                        uint32_t walked[MuxPattern::kMaxDepth];
                        uint32_t consumed[MuxPattern::kMaxDepth];
                        std::copy_n(window, depth, walked);
                        std::copy_n(window, depth, consumed);
                        for (int s = valid; s < depth; ++s)
                            consumed[s] = ~full; // sentinel
                        Schedule want = laneWalk(p, walked, valid);
                        Schedule got = sched.schedule(window, valid);
                        EXPECT_EQ(got.picks, want.picks);
                        EXPECT_EQ(got.select, want.select);
                        EXPECT_EQ(sched.consume(consumed, valid),
                                  want.picks);
                        for (int s = 0; s < valid; ++s)
                            EXPECT_EQ(consumed[s], walked[s]) << s;
                        for (int s = valid; s < depth; ++s)
                            EXPECT_EQ(consumed[s], ~full) << s;
                    }
                }
            }
        }
    }
}

TEST(Scheduler, DeepCrossbarSelectsDoNotOverflow)
{
    // A 32-lane crossbar offers 32 options per step, so at depth 8
    // the lone pending pair at (step 5, lane 3) is lane 0's option
    // 166: an 8-bit select wrapped it negative, which read as an idle
    // lane.
    MuxPattern p(32, 8, InterconnectKind::Crossbar);
    HierarchicalScheduler sched(p);
    uint32_t pending[8] = {0, 0, 0, 0, 0, 1u << 3, 0, 0};
    Schedule s = sched.schedule(pending, 8);
    EXPECT_EQ(s.picks, 1);
    ASSERT_EQ(s.select[0], 166);
    const MoveOption &o = p.options(0)[s.select[0]];
    EXPECT_EQ(o.step, 5);
    EXPECT_EQ(o.lane, 3);
    auto used = consumedPositions(p, s);
    ASSERT_EQ(used.size(), 1u);
    EXPECT_EQ(used[0], std::make_pair(5, 3));
    EXPECT_EQ(sched.consume(pending, 8), 1);
    for (uint32_t m : pending)
        EXPECT_EQ(m, 0u);
}

/** Property sweep: (sparsity%, seed). */
class SchedulerProperty : public ::testing::TestWithParam<
    std::tuple<int, int>>
{
};

TEST_P(SchedulerProperty, ValidAndNearOracle)
{
    auto [sparsity_pct, seed] = GetParam();
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    Rng rng((uint64_t)seed * 1000 + sparsity_pct);

    double oracle_total = 0.0, picks_total = 0.0;
    for (int trial = 0; trial < 50; ++trial) {
        uint32_t pending[3];
        for (auto &m : pending) {
            m = 0;
            for (int l = 0; l < 16; ++l)
                if (!rng.bernoulli(sparsity_pct / 100.0f))
                    m |= 1u << l;
        }
        Schedule s = sched.schedule(pending, 3);
        int oracle = oracleMaxPicks(p, pending, 3);
        // The greedy hierarchical scheduler can never beat the oracle.
        EXPECT_LE(s.picks, oracle);
        // And it must consume at least the whole first row.
        EXPECT_GE(s.picks, __builtin_popcount(pending[0]));
        oracle_total += oracle;
        picks_total += s.picks;
    }
    // On aggregate the static-priority hardware gets close to optimal
    // (the paper relies on this, Fig. 20).
    if (oracle_total > 0) {
        EXPECT_GE(picks_total / oracle_total, 0.85);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SparsitySweep, SchedulerProperty,
    ::testing::Combine(::testing::Values(10, 30, 50, 70, 90),
                       ::testing::Values(1, 2, 3)));

TEST(StagingWindow, AdvancesThroughDenseStream)
{
    StagingWindow w(3);
    std::vector<uint32_t> masks(5, 0xffffu);
    w.reset(masks);
    EXPECT_EQ(w.validRows(), 3);
    // Consume row 0 entirely.
    for (int l = 0; l < 16; ++l)
        w.consume(0, l);
    EXPECT_EQ(w.advance(), 1);
    EXPECT_EQ(w.base(), 1);
    EXPECT_EQ(w.pending(2), 0xffffu); // refilled row 3
}

TEST(StagingWindow, RetiresUpToDepthRowsPerCycle)
{
    StagingWindow w(3);
    std::vector<uint32_t> masks(7, 0u); // fully ineffectual stream
    w.reset(masks);
    EXPECT_EQ(w.advance(), 3);
    EXPECT_EQ(w.advance(), 3);
    EXPECT_EQ(w.advance(), 1);
    EXPECT_TRUE(w.done());
}

TEST(StagingWindow, TailShrinksValidRows)
{
    StagingWindow w(3);
    std::vector<uint32_t> masks = {0x1, 0x2};
    w.reset(masks);
    EXPECT_EQ(w.validRows(), 2);
    w.consume(0, 0);
    EXPECT_EQ(w.advance(), 1);
    EXPECT_EQ(w.validRows(), 1);
    EXPECT_EQ(w.pending(0), 0x2u);
    w.consume(0, 1);
    EXPECT_EQ(w.advance(), 1);
    EXPECT_TRUE(w.done());
}

TEST(StagingWindow, DoubleConsumePanics)
{
    setLogThrowMode(true);
    StagingWindow w(3);
    std::vector<uint32_t> masks = {0x1};
    w.reset(masks);
    w.consume(0, 0);
    EXPECT_THROW(w.consume(0, 0), SimError);
    setLogThrowMode(false);
}

TEST(StagingWindow, SchedulerStepDrivesWindow)
{
    MuxPattern p(16, 3);
    HierarchicalScheduler sched(p);
    StagingWindow w(3);
    // 6 rows, each with a single pending bit: TensorDash should blast
    // through at up to 3 rows/cycle.
    std::vector<uint32_t> masks(6, 0x1u);
    w.reset(masks);
    int cycles = 0, picks = 0;
    while (!w.done()) {
        picks += sched.step(w);
        ++cycles;
    }
    EXPECT_EQ(picks, 6);
    EXPECT_LE(cycles, 3);
    EXPECT_GE(cycles, 2); // lane 0 can take at most 3 of its bits/cycle
}

/** The 2-deep configuration must cap the advance rate at 2. */
TEST(StagingWindow, TwoDeepCapsAdvance)
{
    StagingWindow w(2);
    std::vector<uint32_t> masks(8, 0u);
    w.reset(masks);
    int cycles = 0;
    while (!w.done()) {
        w.advance();
        ++cycles;
    }
    EXPECT_EQ(cycles, 4);
}

TEST(Oracle, MatchesHandComputedCases)
{
    MuxPattern p(16, 3);
    // Nothing pending.
    uint32_t none[3] = {0, 0, 0};
    EXPECT_EQ(oracleMaxPicks(p, none, 3), 0);
    // Full window: 16 lanes can consume at most 16 pairs.
    uint32_t full[3] = {0xffff, 0xffff, 0xffff};
    EXPECT_EQ(oracleMaxPicks(p, full, 3), 16);
    // A single pending bit reachable by several lanes still counts once.
    uint32_t one[3] = {0, 1u << 7, 0};
    EXPECT_EQ(oracleMaxPicks(p, one, 3), 1);
}

TEST(Oracle, CountsReachablePositionsOnly)
{
    MuxPattern p(16, 3);
    // Position (2, 5) is reachable only by lanes 3, 5 and 7, and their
    // step-0 dense positions are reachable only by themselves: four
    // pending positions but at most three can be matched to the three
    // capable lanes.
    uint32_t pending[3] = {(1u << 3) | (1u << 5) | (1u << 7), 0, 1u << 5};
    EXPECT_EQ(oracleMaxPicks(p, pending, 3), 3);
    // Freeing lane 3's dense slot lets the matching cover everything.
    uint32_t pending2[3] = {(1u << 5) | (1u << 7), 0, 1u << 5};
    EXPECT_EQ(oracleMaxPicks(p, pending2, 3), 3);
}

} // namespace
} // namespace tensordash
