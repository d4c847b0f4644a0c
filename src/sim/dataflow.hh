#ifndef TENSORDASH_SIM_DATAFLOW_HH_
#define TENSORDASH_SIM_DATAFLOW_HH_

/**
 * @file
 * Lowering of the three training convolutions (paper section 2, Table 1)
 * onto TensorDash tiles.
 *
 * Each operation is decomposed into an output grid: one axis is handled
 * by tile rows (the *scheduled* B side, the operand whose sparsity
 * TensorDash targets) and the other by tile columns (the passive A
 * side).  The reduction dimension is flattened and chopped into
 * lane-wide rows; PE(r, c) accumulates the full dot product for output
 * (row r, column c).
 *
 *   op              B side (scheduled)         A side (passive)
 *   O  = W (*) A    activation windows         filters
 *   GA = GO (*) W'  dilated gradient windows   reconstructed filters
 *   GW = GO (*) A   per-filter gradient maps   activation taps (c,ky,kx)
 *                   or activation taps, whichever side is sparser
 *
 * Structural zeros from stride dilation and boundary padding appear as
 * genuine zeros in the gathered streams -- exactly what the hardware
 * sees -- and the baseline pays the same dense cycle for them.
 *
 * Full layers are too large to simulate exhaustively, so lower() can
 * sample the job grid; each sampled job carries a weight so aggregate
 * cycle counts remain unbiased estimates of the full layer.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "sim/tile.hh"
#include "tensor/conv_ref.hh"
#include "tensor/tensor.hh"

namespace tensordash {

/** The three per-layer training operations. */
enum class TrainOp { Forward, BackwardData, BackwardWeights };

/** @return short name, e.g. "AxW" as the paper labels the operations. */
const char *trainOpName(TrainOp op);

/**
 * Which op set every layer of a workload runs.  Training executes the
 * three convolutions of Table 1 (AxW, AxG, WxG); Inference is
 * forward-only serving traffic (AxW), the regime the arXiv extension
 * (2009.00748) evaluates alongside training.
 *
 * The phase decides *which* ops exist, never how an op simulates: a
 * layer's Forward op is the identical computation under either phase,
 * which is why per-op result cells are shared between training and
 * inference sweeps (see TaskKey::forOp).
 */
enum class WorkloadPhase { Training, Inference };

/** @return "training" or "inference". */
const char *phaseName(WorkloadPhase phase);

/** The op set of @p phase, in serial execution order. */
std::span<const TrainOp> phaseOps(WorkloadPhase phase);

/** Upper bound on any phase's op-set size (serialization guards). */
inline constexpr size_t kMaxPhaseOps = 3;

/** Which operand the B (scheduled) side carries for GW = GO (*) A. */
enum class WgSide
{
    Gradients,  ///< schedule GO (per-filter gradient maps)
    Activations,///< schedule A (per-tap activation maps)
    Auto,       ///< pick the sparser tensor (the paper's policy)
};

/**
 * Which operand the B side carries for O = W (*) A.  Activations are
 * the paper's default; for models pruned during training the weights
 * are far sparser and the symmetric mapping (rows = filters) wins.
 */
enum class FwdSide { Activations, Weights, Auto };

/** Which operand the B side carries for GA = GO (*) W'. */
enum class BwdDataSide { Gradients, Weights, Auto };

/** Zero fractions of one layer's operands, as Tensor::sparsity()
 * measures them. */
struct OperandSparsity
{
    double acts = 0.0;
    double weights = 0.0;
    double grads = 0.0;
};

/**
 * The one Auto side rule: schedule the sparser of the op's two
 * operands (the paper's policy, section 2).  A tie keeps the
 * paper-default side for AxW and AxG and the gradients for WxG.  A
 * fixed policy is returned unchanged.  The Dataflow entry points
 * resolve Auto from their tensors' sparsity(); the simulator resolves
 * it from the nonzero counts synthesis took, which give the same
 * fractions bit for bit.
 */
FwdSide resolveSide(FwdSide side, const OperandSparsity &sparsity);
BwdDataSide resolveSide(BwdDataSide side, const OperandSparsity &sparsity);
WgSide resolveSide(WgSide side, const OperandSparsity &sparsity);

/** Dataflow/sampling configuration. */
struct DataflowConfig
{
    int rows = 4;
    int cols = 4;
    int lanes = 16;

    /**
     * Cap on dense MAC slots sampled per lowered operation; 0 disables
     * sampling (lower the entire layer).
     */
    uint64_t max_sampled_macs = 0;

    /** Seed for the job sampler. */
    uint64_t seed = 1;

    /**
     * Keep operand values (functional mode) or just masks.  Mask mode
     * gathers only the scheduled B side: each job's A side is one
     * empty placeholder stream per column, since the tile reads
     * nothing of it but the column count.
     */
    bool with_values = false;
};

/** A lowered operation: sampled tile jobs plus scatter metadata. */
struct LoweredOp
{
    TrainOp op = TrainOp::Forward;

    /** Sampled jobs; each job's weight scales it to the full layer. */
    std::vector<TileJob> jobs;

    /** Dense reduction rows (steps) per output. */
    int steps = 0;

    /** Total dense MAC slots in the full operation. */
    uint64_t total_mac_slots = 0;

    /** Total jobs in the full grid / jobs actually sampled. */
    uint64_t total_jobs = 0;
    uint64_t sampled_jobs = 0;

    /** Nonzero B-side operand slots (for potential-speedup accounting). */
    uint64_t b_nonzero_slots = 0;
    uint64_t b_total_slots = 0;

    /** Output tensor shape for scatter(). */
    Shape out_shape;

    /** B/A output indices per job (parallel to jobs). */
    std::vector<std::vector<int>> job_b_ids;
    std::vector<std::vector<int>> job_a_ids;

    /**
     * For BackwardWeights only: true when the scheduled B side carries
     * the gradients (filters), false when it carries activation taps.
     */
    bool wg_b_is_gradients = true;

    /**
     * True when the B side carries the paper-default operand for the
     * op (A for forward, GO for backward-data); false when the side
     * policy flipped the mapping to exploit weight sparsity.
     */
    bool b_is_default_side = true;

    /** True when every job of the full grid was generated. */
    bool exhaustive() const { return sampled_jobs == total_jobs; }
};

/** Lowers training convolutions into tile jobs. */
class Dataflow
{
  public:
    explicit Dataflow(const DataflowConfig &config) : config_(config) {}

    const DataflowConfig &config() const { return config_; }

    /** Lower O = W (*) A.  B side per @p side policy. */
    LoweredOp lowerForward(const Tensor &acts, const Tensor &weights,
                           const ConvSpec &spec,
                           FwdSide side = FwdSide::Activations) const;

    /** Lower GA = GO (*) W'.  B side per @p side policy. */
    LoweredOp lowerBackwardData(const Tensor &out_grads,
                                const Tensor &weights,
                                const Shape &input_shape,
                                const ConvSpec &spec,
                                BwdDataSide side =
                                    BwdDataSide::Gradients) const;

    /** Lower GW = GO (*) A.  B side per @p side policy. */
    LoweredOp lowerBackwardWeights(const Tensor &out_grads,
                                   const Tensor &acts, int kernel_h,
                                   int kernel_w, const ConvSpec &spec,
                                   WgSide side = WgSide::Auto) const;

    /*
     * Matmul/fully-connected entry points.  An FC layer is the
     * stride-1, unpadded 1x1 convolution (paper section 2.1), so each
     * of these checks that its operands carry no spatial extent —
     * A (N, C, 1, 1), W (F, C, 1, 1), GO (N, F, 1, 1) — and calls the
     * conv lowering above.  The simulator itself lowers FC layers
     * through the conv entry points with LayerSpec::spec().
     */

    /** Lower O = A x W^T (reduction over in_c).  B side per @p side:
     * Auto schedules the sparser of activations/weights. */
    LoweredOp lowerFcForward(const Tensor &acts, const Tensor &weights,
                             FwdSide side = FwdSide::Activations) const;

    /** Lower GA = GO x W (reduction over out_c). */
    LoweredOp lowerFcBackwardData(const Tensor &out_grads,
                                  const Tensor &weights,
                                  const Shape &input_shape,
                                  BwdDataSide side =
                                      BwdDataSide::Gradients) const;

    /** Lower GW = GO^T x A (reduction over the batch). */
    LoweredOp lowerFcBackwardWeights(const Tensor &out_grads,
                                     const Tensor &acts,
                                     WgSide side = WgSide::Auto) const;

    /**
     * Scatter one job's functional outputs into the result tensor.
     *
     * @param lowered the lowering that produced @p job_index
     * @param job_index index into lowered.jobs
     * @param outputs  accumulators returned by Tile::run
     * @param result   output tensor with lowered.out_shape
     */
    static void scatter(const LoweredOp &lowered, size_t job_index,
                        const std::vector<std::vector<double>> &outputs,
                        Tensor &result);

  private:
    DataflowConfig config_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_DATAFLOW_HH_
