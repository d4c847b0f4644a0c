#include "service/planner.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/result_store.hh"

namespace tensordash {
namespace service {

ShardPlan
planJob(const std::vector<GridCellInfo> &plan,
        const std::string &cache_dir, size_t max_shards)
{
    TD_ASSERT(max_shards >= 1, "planJob needs at least one shard");
    // planSweep() emits entry i with cell == i; the packing below
    // indexes the plan by cell and depends on that.
    for (size_t i = 0; i < plan.size(); ++i)
        TD_ASSERT(plan[i].cell == i,
                  "plan entry %zu holds cell %zu: not a planSweep() "
                  "grid", i, plan[i].cell);
    ShardPlan out;

    // Probe every cell.  The lookups also warm the process memo, so
    // the daemon's in-process pass over the warm cells hits memory,
    // not disk.
    ResultStore &store = ResultStore::shared();
    OpCellResult scratch;
    std::vector<size_t> cold;
    for (const GridCellInfo &c : plan)
        (store.lookup(c.key, &scratch, cache_dir) ? out.warm_cells : cold)
            .push_back(c.cell);
    if (cold.empty())
        return out; // fully warm: no workers, no shards

    // Pack the cold cells' synthesis groups, the unit the workers'
    // claim loops run, so one worker synthesizes each layer.  A group
    // costlier than the per-shard target is a giant: bound the
    // makespan by splitting it into one-cell groups, each priced with
    // the synthesis its worker repeats.
    std::vector<CellGroup> groups = groupCells(plan, cold);
    double total_cost = 0.0;
    for (const CellGroup &g : groups)
        total_cost += g.cost;
    out.target_cost = total_cost / (double)max_shards;
    std::vector<CellGroup> units;
    for (CellGroup &g : groups) {
        if (g.cost <= out.target_cost)
            units.push_back(std::move(g));
        else
            for (size_t cell : g.cells)
                units.push_back(
                    std::move(groupCells(plan, {&cell, 1}).front()));
    }

    // Longest-processing-time packing: costliest unit first, always
    // into the least-loaded shard.  stable_sort + index tie-break
    // keeps the plan deterministic.
    std::stable_sort(units.begin(), units.end(),
                     [](const CellGroup &a, const CellGroup &b) {
                         return a.cost > b.cost;
                     });
    const size_t nshards = std::min(max_shards, units.size());
    out.shards.resize(nshards);
    // The shard each group landed on: nshards before its first cell,
    // nshards + 1 once counted as split.  A grid has no more groups
    // than slots.
    std::vector<size_t> home(plan.back().slot + 1, nshards);
    for (const CellGroup &unit : units) {
        size_t best = 0;
        for (size_t s = 1; s < nshards; ++s)
            if (out.shards[s].cost < out.shards[best].cost)
                best = s;
        size_t &h = home[plan[unit.cells.front()].group];
        if (h == nshards) {
            h = best;
        } else if (h < nshards && h != best) {
            h = nshards + 1;
            ++out.split_tasks;
        }
        out.shards[best].cost += unit.cost;
        out.shards[best].cells.insert(out.shards[best].cells.end(),
                                      unit.cells.begin(),
                                      unit.cells.end());
    }

    // Sorted cell lists make shard contents reproducible and the
    // worker's ownership masks cheap to build.
    for (ShardAssignment &s : out.shards)
        std::sort(s.cells.begin(), s.cells.end());
    return out;
}

} // namespace service
} // namespace tensordash
