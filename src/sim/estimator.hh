#ifndef TENSORDASH_SIM_ESTIMATOR_HH_
#define TENSORDASH_SIM_ESTIMATOR_HH_

/**
 * @file
 * Closed-form cycle estimator (the poplibs-style analytic tier).
 *
 * estimateOp() predicts what the exact simulator would report for one
 * (layer, op) cell — baseline/TensorDash cycles, memory stalls, the
 * memory-bound flag, activity and energy — from closed-form
 * expressions over the tile/PE/staging/DRAM geometry, without
 * synthesising tensors or scheduling a single MAC.
 *
 * The estimator mirrors the exact pipeline piecewise:
 *
 *  - Lowering geometry (steps, jobs, sampling caps, partial edge
 *    jobs) is reproduced exactly from the output counts and reduction
 *    length Dataflow lowers each op with, so baseline cycles and slot
 *    totals match the simulator to round-off: baseline cost is
 *    steps * total_jobs / tiles no matter what the tensors contain.
 *  - Padding-induced structural zeros are counted exactly with
 *    separable per-dimension loops (mean and variance across
 *    streams).
 *  - The sparse front end is modelled statistically: per-stream
 *    density distributions follow the clustered synthesis model
 *    (a Beta per feature map, iid values within a map), reduced to a
 *    moment-matched three-point surrogate, and per-job TensorDash
 *    cycles are the expected row-wise maximum of a calibrated
 *    efficiency curve over that distribution (rows advance in
 *    lockstep, so the densest row of a PE paces the job).
 *  - Off-chip traffic and energy go through the simulator's own
 *    chargeOffChip() and opEnergy() (sim/accelerator.hh), fed with
 *    expected instead of measured nonzero counts.
 *
 * Accuracy is pinned by the estimator-vs-exact error-bound suite in
 * tests/test_estimator.cc (target <= 10% median, <= 25% p95 error on
 * predicted TensorDash cycles across the zoo under both memory
 * models).  The estimate is for *triage*: rank design points, find
 * memory-bound regions, pick cells worth exact simulation — never
 * quote estimate-tier numbers as simulation results.
 */

#include <cstdint>

#include "models/model_zoo.hh"
#include "sim/accelerator.hh"

namespace tensordash {

/**
 * Version of the closed-form model itself.  Estimate-tier TaskKeys
 * mix this in (next to the estimate-tier salt), so recalibrating the
 * estimator invalidates cached estimates without touching exact
 * results.
 */
inline constexpr uint64_t kEstimatorVersion = 1;

/** One estimated (layer, op) cell, shaped like the exact result. */
struct OpEstimate
{
    /** Predicted OpResult: cycles, stalls, memory-bound flag, slot
     * potentials and activity, field-for-field comparable with the
     * exact simulator's output. */
    OpResult op;

    /** Predicted energy splits (same EnergyModel as the simulator,
     * fed with the predicted activity). */
    EnergyBreakdown energy_base;
    EnergyBreakdown energy_td;
};

/**
 * Analytic estimator for one accelerator configuration.
 *
 * Stateless and const after construction (safe to share across
 * threads); construction builds the energy model, so reuse one
 * instance per (config) when estimating many cells.
 */
class OpEstimator
{
  public:
    /** @param config effective accelerator config (any per-model
     * wg_side override already applied, as TaskKey does). */
    explicit OpEstimator(const AcceleratorConfig &config);

    const AcceleratorConfig &config() const { return config_; }

    /**
     * Estimate one training/inference op of @p layer at @p batch.
     *
     * @param sparsity     expected cell sparsity (see
     *                     effectiveCellSparsity)
     * @param out_sparsity expected zero fraction of the op's output
     *                     (sizes the compressed write-back, exactly
     *                     like the simulator's out_sparsity)
     */
    OpEstimate estimateOp(const LayerSpec &layer, int batch, TrainOp op,
                          const CellSparsity &sparsity,
                          double out_sparsity = 0.0) const;

    /**
     * Relative cost of *exactly simulating* this cell under @p config
     * — the claim-loop scheduling key.  Unlike dense MACs, this sees
     * the variant's geometry: the sampling cap, the per-job
     * gather/schedule volume and the sparse front end's expected
     * cycle reduction.  ~0.3 µs for a dense cell, plus one Beta
     * quadrature (64 nodes, 64² integrand evaluations) when the op
     * reads clustered-pruned weights; deterministic, so claim order
     * is reproducible everywhere.
     */
    static double estimateSimCost(const AcceleratorConfig &config,
                                  const LayerSpec &layer, int batch,
                                  TrainOp op,
                                  const CellSparsity &sparsity);

  private:
    AcceleratorConfig config_;
    EnergyModel energy_model_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_ESTIMATOR_HH_
