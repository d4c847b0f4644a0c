#include "sim/mux_pattern.hh"

#include <set>
#include <sstream>

#include "common/logging.hh"

namespace tensordash {

namespace {

std::vector<RelMove>
movesForKind(int lanes, int depth, InterconnectKind kind)
{
    switch (kind) {
      case InterconnectKind::DenseOnly:
        return {{0, 0}};
      case InterconnectKind::LookaheadOnly: {
        std::vector<RelMove> moves;
        for (int s = 0; s < depth; ++s)
            moves.emplace_back(s, 0);
        return moves;
      }
      case InterconnectKind::Paper:
        return MuxPattern::paperMoves(depth);
      case InterconnectKind::Crossbar: {
        // Idealised: every (step, lane) position reachable.  Priority:
        // shallow steps first, then nearest lane offsets.
        std::vector<RelMove> moves;
        for (int s = 0; s < depth; ++s) {
            moves.emplace_back(s, 0);
            for (int d = 1; d <= lanes / 2; ++d) {
                moves.emplace_back(s, -d);
                if (d != (lanes + 1) / 2 || lanes % 2)
                    moves.emplace_back(s, d);
            }
        }
        return moves;
      }
    }
    TD_PANIC("unknown interconnect kind");
    return {};
}

} // namespace

std::vector<RelMove>
MuxPattern::paperMoves(int depth)
{
    TD_ASSERT(depth >= 1, "staging depth must be >= 1, got %d", depth);
    // Full 3-deep pattern (Fig. 9): dense, 2 lookahead, 5 lookaside.
    static const std::vector<RelMove> full = {
        {0, 0},          // dense
        {1, 0}, {2, 0},  // lookahead
        {1, -1}, {1, 1}, // lookaside, 1 step
        {2, -2}, {2, 2}, // lookaside, 2 steps
        {1, -3},         // lookaside, 1 step, 3 lanes back
    };
    // Shallower buffers simply drop the unreachable steps, yielding the
    // 5-movement configuration the paper evaluates for 2-deep staging.
    std::vector<RelMove> moves;
    for (const auto &m : full)
        if (m.first < depth)
            moves.push_back(m);
    // Deeper-than-paper buffers (ablations) extend the lookahead chain
    // and replicate the step-2 lookasides at deeper steps.
    for (int s = 3; s < depth; ++s) {
        moves.emplace_back(s, 0);
        moves.emplace_back(s, -2);
        moves.emplace_back(s, 2);
    }
    return moves;
}

MuxPattern::MuxPattern(int lanes, int depth, InterconnectKind kind)
    : MuxPattern(lanes, depth, movesForKind(lanes, depth, kind))
{
}

MuxPattern::MuxPattern(int lanes, int depth, std::vector<RelMove> moves)
    : lanes_(lanes), depth_(depth), moves_(std::move(moves))
{
    TD_ASSERT(lanes_ >= 1, "need at least one lane");
    TD_ASSERT(lanes_ <= 32, "lane masks are 32-bit; %d lanes unsupported",
              lanes_);
    TD_ASSERT(depth_ >= 1 && depth_ <= kMaxDepth,
              "unsupported staging depth %d", depth_);
    for (const auto &[step, delta] : moves_) {
        TD_ASSERT(step >= 0 && step < depth_,
                  "move step %d outside staging depth %d", step, depth_);
        (void)delta;
    }
    buildOptions();
    buildLevels();
}

void
MuxPattern::buildOptions()
{
    options_.assign(lanes_, {});
    for (int lane = 0; lane < lanes_; ++lane) {
        std::set<std::pair<int, int>> seen;
        for (const auto &[step, delta] : moves_) {
            int target = ((lane + delta) % lanes_ + lanes_) % lanes_;
            // Small lane counts can alias different deltas onto the same
            // position; keep only the highest-priority occurrence.
            if (!seen.insert({step, target}).second)
                continue;
            options_[lane].push_back({step, target});
        }
    }
}

bool
MuxPattern::overlaps(int lane_a, int lane_b) const
{
    for (const auto &a : options_[lane_a])
        for (const auto &b : options_[lane_b])
            if (a.step == b.step && a.lane == b.lane)
                return true;
    return false;
}

void
MuxPattern::buildLevels()
{
    // Greedy first-fit: a lane joins the first level in which its option
    // set is disjoint from every member's.  For the paper pattern with 16
    // lanes this yields the 6 levels of Fig. 10.
    levels_.clear();
    for (int lane = 0; lane < lanes_; ++lane) {
        bool placed = false;
        for (auto &level : levels_) {
            bool conflict = false;
            for (int member : level) {
                if (overlaps(lane, member)) {
                    conflict = true;
                    break;
                }
            }
            if (!conflict) {
                level.push_back(lane);
                placed = true;
                break;
            }
        }
        if (!placed)
            levels_.push_back({lane});
    }
}

std::string
MuxPattern::str() const
{
    std::ostringstream os;
    os << lanes_ << " lanes, depth " << depth_ << ", "
       << moves_.size() << " options/lane, "
       << levels_.size() << " scheduler levels";
    return os.str();
}

} // namespace tensordash
