#ifndef TDBENCH_REPLAY_HH_
#define TDBENCH_REPLAY_HH_

/**
 * @file
 * The traced 1-thread replay: a sweep grid re-executed in the engine's
 * claim order through the library's public calls, each wrapped in a
 * span, so per-module host time is measured from outside the program.
 *
 * Per layer task, in the order the engine claims them (costliest
 * estimated task first):
 *
 *   ResultStore::lookup per op cell
 *   on a miss: ModelZoo::synthesize (once per synthesis key, shared by
 *   geometry variants exactly like the SynthCache), Tensor::sparsity,
 *   then per op Dataflow::lower*, Accelerator::runOp, the memory
 *   charge (MemoryPipeline::resolve under the Pipelined model),
 *   Accelerator::energy and ResultStore::insert
 *
 * framed by ModelRunner::planSweep, the empty-shell runSweepCells,
 * SweepResult::reduce and SweepResult::serialize.  The replayed sweep
 * must serialize byte-identically to the engine's: the benchmark
 * checks it, so the replay cannot drift from what it claims to time.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "grids.hh"
#include "service/planner.hh"
#include "trace.hh"

namespace tdbench {

/** Deterministic work counted by the replay (summed over calls). */
struct ReplayWork
{
    uint64_t synth_elements = 0;
    uint64_t lowered_jobs = 0;
    uint64_t sampled_macs = 0;
    uint64_t resolve_calls = 0;
    uint64_t sim_cost_calls = 0;
    uint64_t sim_cost_mismatches = 0;
    uint64_t plan_cells = 0;
    uint64_t serialize_bytes = 0;

    /** Simulated TensorDash cycles and their off-chip stall part. */
    double td_cycles = 0.0;
    double td_stall_cycles = 0.0;

    /** Per simulated cell: the plan's estimated cost and the measured
     * lower + run + memory + energy nanoseconds (rank correlation). */
    std::vector<double> est_cost;
    std::vector<double> measured_ns;
};

class Replayer
{
  public:
    Replayer(Tracer &tracer, ReplayWork &work)
        : tracer_(tracer), work_(work)
    {
    }

    /**
     * Replay @p grid against the shared ResultStore (@p cache_dir for
     * the disk layer, "" = memory only): warm cells are looked up,
     * cold ones synthesized and simulated, and the sweep is reduced
     * and serialized.  With @p shard_plan set, the grid is also
     * planned the way the sweep daemon plans a job (two workers).
     */
    SweepResult replay(const Grid &grid, const std::string &cache_dir,
                       tensordash::service::ShardPlan *shard_plan =
                           nullptr);

    /**
     * Time OpEstimator::estimateSimCost over every cell of @p grid —
     * the claim-order key planSweep and every sweep compute inside the
     * library — and count cells where it disagrees with the plan.
     */
    void costPass(const Grid &grid);

  private:
    /** Lower, run, charge memory and energy for one exact op cell. */
    tensordash::OpCellResult
    simulateOp(const tensordash::Accelerator &accel,
               const tensordash::Dataflow &df,
               const tensordash::LayerSpec &layer, tensordash::TrainOp op,
               const tensordash::LayerTensors &t, double out_sparsity);

    Tracer &tracer_;
    ReplayWork &work_;
};

/** |estimated - exact| / exact TensorDash cycles per op cell of two
 * complete sweeps over one grid layout. */
std::vector<double> estimatorErrors(const SweepResult &exact,
                                    const SweepResult &estimate);

} // namespace tdbench

#endif // TDBENCH_REPLAY_HH_
