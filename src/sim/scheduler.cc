#include "sim/scheduler.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include "common/logging.hh"

namespace tensordash {

HierarchicalScheduler::HierarchicalScheduler(const MuxPattern &pattern)
    : pattern_(&pattern)
{
    for (const auto &level : pattern.levels()) {
        uint32_t mask = 0;
        for (int lane : level)
            mask |= 1u << lane;
        level_lanes_.push_back(mask);
    }
    // Lane l reads move (step, delta) at lane (l + delta) mod lanes,
    // so the lanes a move can fill are its step's mask rotated right
    // by delta.  A small lane count can alias two moves of one lane
    // onto one position; MuxPattern keeps the first, and so does the
    // option index here (the later alias can never pick: its position
    // was already empty when the first one was tried).
    const auto &moves = pattern.moves();
    const int lanes = pattern.lanes();
    window_moves_.resize((size_t)pattern.depth());
    option_of_.assign(moves.size() * (size_t)lanes, -1);
    for (size_t m = 0; m < moves.size(); ++m) {
        auto [step, delta] = moves[m];
        Move move{step, (delta % lanes + lanes) % lanes, (int)m};
        for (int valid = step + 1; valid <= pattern.depth(); ++valid)
            window_moves_[(size_t)valid - 1].push_back(move);
        for (int lane = 0; lane < lanes; ++lane) {
            int target = (lane + move.rotation) % lanes;
            const auto &options = pattern.options(lane);
            for (size_t i = 0; i < options.size(); ++i) {
                if (options[i].step == step &&
                    options[i].lane == target) {
                    option_of_[m * lanes + lane] = (int16_t)i;
                    break;
                }
            }
        }
    }
    // Taking all of step 0 up front is the lane walk only when no
    // move but the dense one reads step 0: otherwise (a crossbar) an
    // earlier level's lookaside may take another lane's dense pair.
    dense_first_ = !moves.empty() && moves[0] == RelMove{0, 0};
    for (size_t m = 1; m < moves.size(); ++m)
        if (moves[m].first == 0)
            dense_first_ = false;
}

namespace {

/** @p x rotated right within @p lanes bits: bit l of the result is
 * bit (l + r) mod lanes of @p x. */
inline uint32_t
rotateRight(uint32_t x, int r, int lanes, uint32_t full)
{
    uint64_t twice = (uint64_t)x << lanes | x;
    return (uint32_t)(twice >> r) & full;
}

/** The inverse of rotateRight(). */
inline uint32_t
rotateLeft(uint32_t x, int r, int lanes, uint32_t full)
{
    uint64_t shifted = (uint64_t)x << r;
    return (uint32_t)(shifted | shifted >> lanes) & full;
}

} // namespace

template <bool kSelect>
int
HierarchicalScheduler::resolve(uint32_t *z, int valid,
                               int16_t *select) const
{
    valid = std::min(valid, pattern_->depth());
    const int lanes = pattern_->lanes();
    const auto full = (uint32_t)((uint64_t{1} << lanes) - 1);
    uint32_t live = 0; ///< window steps still holding pending pairs
    for (int s = 0; s < valid; ++s)
        live |= (uint32_t)(z[s] != 0) << s;
    if (!live)
        return 0;

    // Each lane picks at most once, so the picks are the lanes that
    // picked, counted once at the end.
    uint32_t picked = 0;
    const std::vector<Move> &moves = window_moves_[(size_t)valid - 1];
    size_t first = 0; ///< first move the levels still try
    if (dense_first_) {
        // Every lane's first choice is its own dense pair, which no
        // other lane can read: the pending step-0 bits are picks.
        picked = z[0];
        z[0] = 0;
        live &= ~1u;
        if constexpr (kSelect) {
            for (uint32_t t = picked; t; t &= t - 1)
                select[std::countr_zero(t)] = 0;
        }
        first = 1;
        if (picked == full || !live)
            return std::popcount(picked);
    }

    // Level by level, as the hardware's priority encoders decide.
    // Lanes of one level have disjoint option sets, so one lane's pick
    // never empties another's option: each move in priority order is
    // tried by every still-open lane of the level at once, which is
    // each lane's first pending option, exactly as a lane-by-lane
    // walk finds it.  Picks leave the window before the next level.
    for (uint32_t level : level_lanes_) {
        uint32_t open = level & ~picked;
        for (size_t m = first; open && m < moves.size(); ++m) {
            const Move mv = moves[m];
            uint32_t hit =
                rotateRight(z[mv.step], mv.rotation, lanes, full) & open;
            if (!hit)
                continue;
            uint32_t left =
                z[mv.step] & ~rotateLeft(hit, mv.rotation, lanes, full);
            z[mv.step] = left;
            open &= ~hit;
            picked |= hit;
            if constexpr (kSelect) {
                for (uint32_t h = hit; h; h &= h - 1) {
                    int lane = std::countr_zero(h);
                    select[lane] =
                        option_of_[(size_t)mv.index * lanes + lane];
                }
            }
            if (!left) {
                live &= ~(1u << mv.step);
                if (!live)
                    return std::popcount(picked);
            }
        }
    }
    return std::popcount(picked);
}

Schedule
HierarchicalScheduler::schedule(const uint32_t *pending, int valid) const
{
    Schedule out;
    out.select.fill(-1);
    // A full oldest row is the dense schedule: every lane picks its
    // own pair, the only move that reads step 0.
    const int lanes = pattern_->lanes();
    if (dense_first_ && valid > 0 &&
        pending[0] == (uint32_t)((uint64_t{1} << lanes) - 1)) {
        std::fill_n(out.select.begin(), lanes, int16_t{0});
        out.picks = lanes;
        return out;
    }
    std::array<uint32_t, MuxPattern::kMaxDepth> z{};
    std::copy_n(pending, std::clamp(valid, 0, pattern_->depth()),
                z.begin());
    out.picks = resolve<true>(z.data(), valid, out.select.data());
    return out;
}

int
HierarchicalScheduler::consume(uint32_t *pending, int valid) const
{
    return resolve<false>(pending, valid, nullptr);
}

int
HierarchicalScheduler::step(StagingWindow &window, Schedule *out) const
{
    int valid = window.validRows();
    Schedule sched = schedule(window.pendingMasks(), valid);
    for (int lane = 0; lane < pattern_->lanes(); ++lane) {
        int idx = sched.select[lane];
        if (idx < 0)
            continue;
        const MoveOption &opt = pattern_->options(lane)[idx];
        window.consume(opt.step, opt.lane);
    }
    window.advance();
    if (out)
        *out = sched;
    return sched.picks;
}

int
oracleMaxPicks(const MuxPattern &pattern, const uint32_t *pending,
               int valid)
{
    // Enumerate pending positions reachable by at least one lane.
    struct Pos { int step; int lane; };
    std::vector<Pos> positions;
    std::vector<std::vector<int>> lane_adj(pattern.lanes());
    for (int s = 0; s < valid; ++s) {
        for (int l = 0; l < pattern.lanes(); ++l) {
            if (!(pending[s] >> l & 1))
                continue;
            positions.push_back({s, l});
        }
    }
    for (int lane = 0; lane < pattern.lanes(); ++lane) {
        for (const auto &opt : pattern.options(lane)) {
            if (opt.step >= valid)
                continue;
            for (int p = 0; p < (int)positions.size(); ++p) {
                if (positions[p].step == opt.step &&
                    positions[p].lane == opt.lane) {
                    lane_adj[lane].push_back(p);
                }
            }
        }
    }

    // Kuhn's augmenting-path matching: lanes on the left, pending
    // positions on the right.
    std::vector<int> match_pos(positions.size(), -1);
    std::vector<char> visited;

    std::function<bool(int)> augment = [&](int lane) -> bool {
        for (int p : lane_adj[lane]) {
            if (visited[p])
                continue;
            visited[p] = 1;
            if (match_pos[p] < 0 || augment(match_pos[p])) {
                match_pos[p] = lane;
                return true;
            }
        }
        return false;
    };

    int matched = 0;
    for (int lane = 0; lane < pattern.lanes(); ++lane) {
        visited.assign(positions.size(), 0);
        if (augment(lane))
            ++matched;
    }
    return matched;
}

} // namespace tensordash
