#include "sim/scheduler.hh"

#include <bit>
#include <functional>
#include <vector>

#include "common/logging.hh"

namespace tensordash {

HierarchicalScheduler::HierarchicalScheduler(const MuxPattern &pattern)
    : pattern_(&pattern)
{
    // Flatten the level-major lane walk into one contiguous program.
    // Options keep their per-lane priority order (indices into
    // pattern.options(lane) survive unchanged), with the target bit
    // precomputed and the lane's step-reach mask alongside.
    flat_lanes_.reserve((size_t)pattern.lanes());
    for (const auto &level : pattern.levels()) {
        for (int lane : level) {
            const auto &options = pattern.options(lane);
            FlatLane fl;
            fl.lane = lane;
            fl.first = (int32_t)flat_options_.size();
            fl.count = (int32_t)options.size();
            fl.reach = 0;
            for (const MoveOption &opt : options) {
                flat_options_.push_back(
                    {1u << opt.lane, opt.step});
                fl.reach |= 1u << opt.step;
            }
            flat_lanes_.push_back(fl);
        }
    }
    dense_first_ = !pattern.moves().empty() &&
                   pattern.moves()[0] == RelMove{0, 0};
}

Schedule
HierarchicalScheduler::schedule(const uint32_t *pending, int valid) const
{
    Schedule out;
    out.select.fill(-1);

    int lanes = pattern_->lanes();
    uint32_t full = lanes == 32 ? 0xffffffffu : ((1u << lanes) - 1u);

    // Fast path: when the oldest row is completely pending, every lane's
    // top-priority option -- its own dense position -- is available, so
    // the whole schedule is the dense schedule.  (Step-0 positions are
    // reachable only by their own lane, so no other assignment exists.)
    if (valid > 0 && pending[0] == full && dense_first_) {
        for (int lane = 0; lane < lanes; ++lane)
            out.select[lane] = 0;
        out.picks = lanes;
        return out;
    }

    // Working copy of Z; selected bits are stripped between levels.
    // `nonempty` tracks which steps still hold pending bits (for the
    // one-AND lane skip) and `remaining` how many bits are left at
    // all; neither shortcut changes any selection — a lane whose
    // reachable steps are empty, or any lane once Z is exhausted,
    // could never have picked.  Steps beyond `valid` stay zero in z,
    // so options reaching past the window fail the z-test naturally.
    std::array<uint32_t, MuxPattern::kMaxDepth> z{};
    int remaining = 0;
    uint32_t nonempty = 0;
    for (int s = 0; s < valid; ++s) {
        z[s] = pending[s];
        remaining += std::popcount(pending[s]);
        if (pending[s])
            nonempty |= 1u << s;
    }
    if (!remaining)
        return out;

    for (const FlatLane &fl : flat_lanes_) {
        if (!(fl.reach & nonempty))
            continue;
        const FlatOption *options = &flat_options_[(size_t)fl.first];
        for (int idx = 0; idx < fl.count; ++idx) {
            const FlatOption &opt = options[idx];
            if (z[(size_t)opt.step] & opt.bit) {
                z[(size_t)opt.step] &= ~opt.bit;
                if (!z[(size_t)opt.step])
                    nonempty &= ~(1u << opt.step);
                out.select[fl.lane] = (int8_t)idx;
                ++out.picks;
                if (--remaining == 0)
                    return out;
                break;
            }
        }
    }
    return out;
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
