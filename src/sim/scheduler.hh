#ifndef TENSORDASH_SIM_SCHEDULER_HH_
#define TENSORDASH_SIM_SCHEDULER_HH_

/**
 * @file
 * The TensorDash hardware scheduler (paper section 3.2, Fig. 10).
 *
 * Input: the window of pending effectual-pair masks (`Z` in the paper,
 * AZ AND BZ for two-side extraction, BZ alone for one-side tiles).
 * Output: one movement selection per lane (the MS signals) such that every
 * pending pair is consumed at most once.
 *
 * The hardware resolves conflicts hierarchically: lanes are grouped into
 * levels whose option sets are disjoint by construction; each level's
 * priority encoders decide independently, then AND-gates strip the chosen
 * bits from Z before it reaches the next level.  The whole block is
 * combinational and completes in one cycle.  This model reproduces that
 * behaviour exactly (levels come from MuxPattern::levels()), and like the
 * hardware it resolves a level's lanes together: per movement option, a
 * level's open lanes test their targets with one rotate-and-AND of that
 * step's mask and leave the window with one rotate-and-ANDNOT.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "sim/mux_pattern.hh"
#include "sim/staging_buffer.hh"

namespace tensordash {

/** Selection produced for one cycle. */
struct Schedule
{
    /** Option index per lane (into MuxPattern::options), -1 = lane
     * idle.  Sixteen bits wide: a 32-lane crossbar offers 32 options
     * per window step, so depths of 5 and more index past 127. */
    std::array<int16_t, 32> select;

    /** Number of pairs consumed this cycle. */
    int picks = 0;
};

/** Cycle-level model of the hierarchical scheduler block. */
class HierarchicalScheduler
{
  public:
    /**
     * @param pattern interconnect whose options/levels drive selection.
     * Construction turns the levels into lane masks and the movement
     * list into (step, rotation) pairs, so one level resolves a move
     * for all its lanes with a rotate and an AND.  One scheduler
     * serves millions of cycles.
     */
    explicit HierarchicalScheduler(const MuxPattern &pattern);

    const MuxPattern &pattern() const { return *pattern_; }

    /**
     * Compute one cycle's schedule.
     *
     * @param pending effectual-pair masks, one per window step
     * @param valid   number of valid window steps
     * @return the per-lane selections and pick count
     */
    Schedule schedule(const uint32_t *pending, int valid) const;

    /**
     * Schedule one cycle and clear its picks from the window in
     * place: after the call @p pending holds what schedule() would
     * leave pending once every selected pair is consumed.
     *
     * @param pending effectual-pair masks, one per window step
     * @param valid   number of valid window steps (only these are
     *                read or written)
     * @return number of pairs consumed
     */
    int consume(uint32_t *pending, int valid) const;

    /**
     * Run one full PE cycle against a staging window: schedule, consume
     * the picked pairs, then retire fully-consumed rows.
     *
     * @param window staging window to mutate
     * @param out    optional schedule output for callers that need the
     *               selections (e.g. the functional path)
     * @return number of pairs consumed
     */
    int step(StagingWindow &window, Schedule *out = nullptr) const;

  private:
    /** One relative movement: its window step, its lane delta as a
     * right rotation of the step's mask onto the reading lanes, and
     * its index in the priority order. */
    struct Move
    {
        int step;
        int rotation;
        int index;
    };

    /**
     * The one scheduling core: resolve the levels in order over the
     * window @p z, clearing picked bits in place.  With kSelect it
     * also records each picking lane's option index in @p select.
     *
     * @return number of pairs picked
     */
    template <bool kSelect>
    int resolve(uint32_t *z, int valid, int16_t *select) const;

    const MuxPattern *pattern_;
    std::vector<uint32_t> level_lanes_; ///< lane mask per level
    /** The moves a window of v valid steps can reach (step < v), in
     * priority order, at [v - 1]: steps past the window are never
     * read. */
    std::vector<std::vector<Move>> window_moves_;
    /** Option index into pattern.options(lane) of move m for lane l,
     * at [m * lanes + l]. */
    std::vector<int16_t> option_of_;
    /** moves()[0] is the dense position and no other move reads step
     * 0, so each lane's pending step-0 bit is its pick. */
    bool dense_first_ = false;
};

/**
 * Brute-force oracle: the maximum number of pending pairs any valid
 * one-cycle schedule could consume, via maximum bipartite matching of
 * lanes to reachable pending positions.  Used by tests as an upper bound
 * on (and near-target for) the hierarchical scheduler.
 */
int oracleMaxPicks(const MuxPattern &pattern, const uint32_t *pending,
                   int valid);

} // namespace tensordash

#endif // TENSORDASH_SIM_SCHEDULER_HH_
