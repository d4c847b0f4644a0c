#ifndef TENSORDASH_SIM_MUX_PATTERN_HH_
#define TENSORDASH_SIM_MUX_PATTERN_HH_

/**
 * @file
 * The sparse input interconnect of the TensorDash PE (paper Fig. 9).
 *
 * Each multiplier lane has one small multiplexer that can read a limited
 * set of positions from the staging buffer.  For the 3-deep staging buffer
 * the paper uses 8 options per lane, in static priority order:
 *
 *   (+0, i)              the original dense-schedule value
 *   (+1, i) (+2, i)      lookahead: same lane, 1 or 2 steps ahead
 *   (+1, i-1) (+1, i+1)  lookaside: neighbour lanes, 1 step ahead
 *   (+2, i-2) (+2, i+2)  lookaside: 2 lanes away, 2 steps ahead
 *   (+1, i-3)            lookaside: 3 lanes back, 1 step ahead
 *
 * Lane offsets wrap around the ends (the lanes form a ring).  The same
 * relative pattern is used by every lane.
 *
 * MuxPattern also derives the scheduler's level grouping (paper Fig. 10):
 * lanes whose option sets cannot overlap are grouped into one level so
 * their priority encoders can decide independently.  Greedy first-fit
 * reproduces the paper's 6 levels {0,5,10} {1,6,11} {2,7,12} {3,8,13}
 * {4,9,14} {15} for 16 lanes.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tensordash {

/** One movement option: absolute (step, lane) position after wrapping. */
struct MoveOption
{
    int step;
    int lane;
};

/** Relative movement (step, lane delta) before per-lane shifting. */
using RelMove = std::pair<int, int>;

/** Named interconnect variants used by the ablation bench. */
enum class InterconnectKind
{
    /** Dense only: no movement, models the baseline front end. */
    DenseOnly,
    /** Dense plus lookahead within the lane, no lookaside. */
    LookaheadOnly,
    /** The paper's 8-option (or 5-option for 2-deep) pattern. */
    Paper,
    /** Idealised full crossbar: any (step, lane) reachable. */
    Crossbar,
};

/** Sparse connectivity pattern for an N-lane, D-deep staging buffer. */
class MuxPattern
{
  public:
    /** Deepest supported staging buffer: the staging window, the
     * scheduler's per-step masks and the sweep service's depth axis
     * are all bounded by it. */
    static constexpr int kMaxDepth = 8;

    /**
     * Build a pattern.
     *
     * @param lanes number of multiplier lanes (paper: 16)
     * @param depth staging buffer depth (paper: 3, low-cost option: 2)
     * @param kind  interconnect variant (default: the paper pattern)
     */
    MuxPattern(int lanes, int depth,
               InterconnectKind kind = InterconnectKind::Paper);

    /** Build from an explicit relative movement list (priority order). */
    MuxPattern(int lanes, int depth, std::vector<RelMove> moves);

    int lanes() const { return lanes_; }
    int depth() const { return depth_; }

    /** Options for @p lane in priority order (wrapped absolute coords). */
    const std::vector<MoveOption> &options(int lane) const
    { return options_[lane]; }

    /** Number of options per lane (select signal fan-in). */
    int numOptions() const { return (int)moves_.size(); }

    /** The relative movement list. */
    const std::vector<RelMove> &moves() const { return moves_; }

    /**
     * Scheduler level groups: lanes within one group have pairwise
     * disjoint option sets (checked at construction).
     */
    const std::vector<std::vector<int>> &levels() const { return levels_; }

    /**
     * @return true if the option sets of @p lane_a and @p lane_b share any
     * (step, lane) position.
     */
    bool overlaps(int lane_a, int lane_b) const;

    /** Human-readable description for logs and bench headers. */
    std::string str() const;

    /** The paper's relative movement list for a given staging depth. */
    static std::vector<RelMove> paperMoves(int depth);

  private:
    void buildOptions();
    void buildLevels();

    int lanes_;
    int depth_;
    std::vector<RelMove> moves_;
    std::vector<std::vector<MoveOption>> options_;
    std::vector<std::vector<int>> levels_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_MUX_PATTERN_HH_
