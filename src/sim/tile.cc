#include "sim/tile.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tensordash {

Tile::Tile(const TileConfig &config)
    : config_(config),
      pattern_(config.lanes, config.depth, config.interconnect),
      scheduler_(pattern_)
{
    TD_ASSERT(config.rows >= 1 && config.cols >= 1,
              "tile needs at least one row and one column");
}

uint64_t
Tile::run(const TileJob &job, TileStats &stats,
          std::vector<std::vector<double>> *outputs)
{
    int nrows = (int)job.b.size();
    int ncols = (int)job.a.size();
    TD_ASSERT(nrows >= 1 && nrows <= config_.rows,
              "job uses %d rows, tile has %d", nrows, config_.rows);
    TD_ASSERT(ncols >= 1 && ncols <= config_.cols,
              "job uses %d cols, tile has %d", ncols, config_.cols);
    int steps = job.steps();
    for (const auto &s : job.b)
        TD_ASSERT(s.rows() == steps, "B stream length mismatch");
    // The A side never reaches the scheduler: a performance run reads
    // only how many columns there are, so its streams may be empty
    // placeholders.
    for (const auto &s : job.a)
        TD_ASSERT(s.rows() == steps || (!outputs && s.rows() == 0),
                  "A stream length mismatch");

    stats.dense_cycles += steps;
    stats.b_rows_fetched += (uint64_t)nrows * steps;
    stats.a_rows_fetched += (uint64_t)ncols * steps;
    if (steps == 0)
        return 0;

    if (outputs) {
        outputs->assign(nrows, std::vector<double>(ncols, 0.0));
        for (const auto &s : job.b)
            TD_ASSERT(s.hasValues(), "functional run needs values");
        for (const auto &s : job.a)
            TD_ASSERT(s.hasValues(), "functional run needs values");
    }

    const int depth = config_.depth;

    // Materialise every row's mask stream once; the staging window is
    // then a sliding view masks[base .. base+valid) mutated in place.
    // Scheduler picks clear bits inside the window and a step is never
    // read again once the base advances past it, so the per-cycle
    // shift-and-refill of a depth-deep buffer disappears entirely.
    masks_.resize((size_t)nrows * steps);
    for (int r = 0; r < nrows; ++r) {
        uint32_t *dst = masks_.data() + (size_t)r * steps;
        for (int s = 0; s < steps; ++s)
            dst[s] = job.b[r].nzMask(s);
    }
    int base = 0;

    uint64_t cycles = 0;
    while (base < steps) {
        ++cycles;
        int valid = std::min(depth, steps - base);
        uint32_t *win = masks_.data() + base;
        int total_picks = 0;
        int advance = valid;
        for (int r = 0; r < nrows; ++r) {
            uint32_t *p = win + (size_t)r * steps;
            int picks;
            if (!outputs) {
                picks = scheduler_.consume(p, valid);
            } else {
                // The functional path walks the selections to move
                // each picked pair's A-side values in tandem.
                Schedule sched = scheduler_.schedule(p, valid);
                picks = sched.picks;
                for (int lane = 0; lane < config_.lanes; ++lane) {
                    int idx = sched.select[lane];
                    if (idx < 0)
                        continue;
                    const MoveOption &opt = pattern_.options(lane)[idx];
                    p[opt.step] &= ~(1u << opt.lane);
                    int row_abs = base + opt.step;
                    float bv = job.b[r].value(row_abs, opt.lane);
                    for (int c = 0; c < ncols; ++c) {
                        (*outputs)[r][c] +=
                            (double)job.a[c].value(row_abs, opt.lane) *
                            (double)bv;
                    }
                }
            }
            total_picks += picks;
            stats.mult_ops += (uint64_t)picks * ncols;
            stats.idle_mult_slots +=
                (uint64_t)(config_.lanes - picks) * ncols;
            // AS for this row: leading fully consumed window rows.
            // (The early-exit scan measured faster than building an
            // occupancy bitmask for a count-trailing-zeros pass: it
            // usually stops on its first or second probe.)
            int as = 0;
            while (as < valid && p[as] == 0)
                ++as;
            advance = std::min(advance, as);
        }
        TD_ASSERT(advance > 0 || total_picks > 0,
                  "tile made no progress at step base %d", base);
        if (advance < valid && advance < depth)
            ++stats.stall_cycles;
        base += advance;
    }

    stats.cycles += cycles;
    TD_ASSERT(cycles <= (uint64_t)steps,
              "tile exceeded the dense cycle count");
    return cycles;
}

} // namespace tensordash
