/**
 * @file
 * Sweep-service replay bench: runs td-sweepd's planning and merge
 * pipeline in-process, with no daemon and no sockets, so the planner's
 * behaviour is measurable and assertable in CI.
 *
 * The replay mirrors the daemon's job flow exactly:
 *
 *   planSweep -> planJob (cache probe + LPT shard packing)
 *             -> runSweepCells per shard -> merge
 *
 * and checks three properties:
 *
 *   - the merged shard cover is byte-identical to the unsharded
 *     runSweep() of the same spec (counters aside, which count work
 *     done, not results);
 *   - when the worker fleet is sized so the per-shard cost target
 *     falls below the grid's costliest synthesis group, the planner
 *     splits that giant into its op cells (split_tasks >= 1) and the
 *     partial present masks still merge back to the identical sweep;
 *   - a re-plan over the now-warm cache packs zero shards — the
 *     repeat-query path that lets the daemon answer without spawning
 *     a single worker.
 *
 * Output is one parseable [plan]/[replay] line per step; CI greps
 * them.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.hh"
#include "service/planner.hh"

using namespace tensordash;
using namespace tensordash::bench;
using namespace tensordash::service;

namespace {

/** The fig13 sweep: the paper suite under Table 2 defaults. */
SweepSpec
fig13Spec()
{
    SweepSpec spec;
    spec.models = ModelZoo::paperModels();
    return spec;
}

void
printPlan(const char *grid, size_t max_shards, size_t cells,
          const ShardPlan &sp)
{
    std::printf("[plan] grid=%s max_shards=%zu cells=%zu cold=%zu "
                "warm=%zu shards=%zu split_tasks=%zu target=%.0f\n",
                grid, max_shards, cells, sp.coldCellCount(),
                sp.warm_cells.size(), sp.shards.size(),
                sp.split_tasks, sp.target_cost);
}

/** Serialized sweep with the work counters zeroed: the replay
 * comparisons care about results, not about which path produced
 * them. */
std::vector<uint8_t>
resultBytes(const SweepResult &sweep)
{
    SweepResult copy = sweep;
    copy.cache_hits = 0;
    copy.simulated = 0;
    copy.estimated = 0;
    return copy.serialize();
}

/** Execute one shard plan the way the daemon does (shell from the
 * warm cells, then merge each shard) and report wall time. */
SweepResult
replay(const char *grid, const ModelRunner &runner,
       const SweepSpec &spec, const ShardPlan &sp)
{
    const auto start = std::chrono::steady_clock::now();
    SweepResult merged = runner.runSweepCells(spec, sp.warm_cells);
    for (const ShardAssignment &shard : sp.shards)
        merged.merge(runner.runSweepCells(spec, shard.cells));
    const auto ms = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                   start);
    std::printf("[replay] grid=%s shards=%zu simulated=%zu "
                "hits=%zu ms=%lld\n",
                grid, sp.shards.size(), merged.simulated,
                merged.cache_hits, (long long)ms.count());
    return merged;
}

} // namespace

int
main()
{
    banner("bench_sweepd", "sweep-service shard planning replay");

    const RunConfig cfg = defaultRunConfig();
    ModelRunner runner(cfg);
    const SweepSpec spec = fig13Spec();
    const std::vector<GridCellInfo> plan = runner.planSweep(spec);

    // The planner's pack units, the synthesis groups, drive the fleet
    // sizing below.
    std::vector<size_t> all(plan.size());
    std::iota(all.begin(), all.end(), size_t{0});
    double total_cost = 0.0;
    double max_group = 0.0;
    for (const CellGroup &g : groupCells(plan, all)) {
        total_cost += g.cost;
        max_group = std::max(max_group, g.cost);
    }

    // Plan A: a small fleet.  Whole groups pack whole (no giant
    // relative to the generous per-shard target).
    const size_t kFleet = 4;
    const ShardPlan plan_fleet =
        planJob(plan, cfg.cache_dir, kFleet);
    printPlan("fig13", kFleet, plan.size(), plan_fleet);

    // Plan B: size the fleet so the per-shard target falls below the
    // costliest group — the planner must split that giant into its op
    // cells to bound the shard makespan.
    const size_t split_shards = std::min<size_t>(
        32, std::max<size_t>(2, (size_t)(total_cost / max_group) + 1));
    const ShardPlan plan_split =
        planJob(plan, cfg.cache_dir, split_shards);
    printPlan("fig13-giant", split_shards, plan.size(), plan_split);

    // Execute the split plan cold: partial per-slot masks from the
    // giant's split shards must reunite into the full sweep.
    SweepResult merged =
        replay("fig13-giant", runner, spec, plan_split);
    SweepResult direct = runner.runSweep(spec);
    bool identical = resultBytes(merged) == resultBytes(direct);
    std::printf("[replay] grid=fig13-giant identical=%d\n",
                identical);

    // The small-fleet plan replays over the warm cache and must land
    // on the same bytes.
    SweepResult merged_fleet =
        replay("fig13", runner, spec, plan_fleet);
    bool identical_fleet =
        resultBytes(merged_fleet) == resultBytes(direct);
    std::printf("[replay] grid=fig13 identical=%d\n",
                identical_fleet);

    // Re-plan over the warm cache: every cell probes warm, so the
    // plan packs zero shards — the daemon's no-worker repeat path.
    const ShardPlan plan_warm = planJob(plan, cfg.cache_dir, kFleet);
    printPlan("fig13-warm", kFleet, plan.size(), plan_warm);

    return identical && identical_fleet &&
                   plan_split.split_tasks >= 1 &&
                   plan_warm.shards.empty()
               ? 0
               : 1;
}
