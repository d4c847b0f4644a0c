#ifndef TENSORDASH_SERVICE_PLANNER_HH_
#define TENSORDASH_SERVICE_PLANNER_HH_

/**
 * @file
 * Estimator-sized shard planning for the sweep daemon.
 *
 * Given the grid plan ModelRunner::planSweep() exposes, the planner
 * first probes the result cache — warm cells never reach a worker;
 * the daemon serves them in-process — then packs the cold cells into
 * at most max_shards worker shards, balanced by the closed-form cost
 * estimates the claim loop already trusts (LPT bin packing).
 *
 * The pack unit is the synthesis group of groupCells(), the unit each
 * worker's claim loop runs: every cold cell that reads one SynthKey
 * (a layer's geometry variants and both of its phases) lands on one
 * worker, which synthesizes the layer once.  But a *giant* group whose
 * estimated cost exceeds the per-shard target is split into its op
 * cells, placed independently, trading duplicated synthesis for a
 * bounded shard makespan.  This is the system's only giant-layer
 * splitter; inside one process, costliest-first claiming is what
 * keeps a skewed layer from tailing the sweep.
 */

#include <string>
#include <vector>

#include "core/runner.hh"

namespace tensordash {
namespace service {

/** One worker shard: the global op-cell indices it owns. */
struct ShardAssignment
{
    std::vector<size_t> cells;
    double cost = 0.0; ///< estimated simulation + one synthesis per group
};

/** Output of planJob(). */
struct ShardPlan
{
    /** Cells already in the result cache, served in-process. */
    std::vector<size_t> warm_cells;

    /** Cold cells packed into worker shards (empty when fully warm —
     * a repeat query never spawns a worker). */
    std::vector<ShardAssignment> shards;

    /** Synthesis groups whose op cells landed on more than one shard
     * (the giant splits). */
    size_t split_tasks = 0;

    /** Per-shard cost target the splits were sized against. */
    double target_cost = 0.0;

    size_t coldCellCount() const
    {
        size_t n = 0;
        for (const ShardAssignment &s : shards)
            n += s.cells.size();
        return n;
    }
};

/**
 * Plan one job: probe the result cache (memo or @p cache_dir) for
 * every cell of @p plan, then pack the cold cells into at most
 * @p max_shards shards (>= 1).  Deterministic — same plan and cache
 * state, same shards.
 */
ShardPlan planJob(const std::vector<GridCellInfo> &plan,
                  const std::string &cache_dir, size_t max_shards);

} // namespace service
} // namespace tensordash

#endif // TENSORDASH_SERVICE_PLANNER_HH_
