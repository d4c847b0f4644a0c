#include "sim/dataflow.hh"

#include <algorithm>
#include <functional>

#include "common/counter_rng.hh"
#include "common/logging.hh"

namespace tensordash {

const char *
trainOpName(TrainOp op)
{
    switch (op) {
      case TrainOp::Forward: return "AxW";
      case TrainOp::BackwardData: return "AxG";
      case TrainOp::BackwardWeights: return "WxG";
    }
    return "?";
}

const char *
phaseName(WorkloadPhase phase)
{
    switch (phase) {
      case WorkloadPhase::Training: return "training";
      case WorkloadPhase::Inference: return "inference";
    }
    return "?";
}

std::span<const TrainOp>
phaseOps(WorkloadPhase phase)
{
    static constexpr TrainOp kTrainingOps[] = {
        TrainOp::Forward, TrainOp::BackwardData,
        TrainOp::BackwardWeights};
    static constexpr TrainOp kInferenceOps[] = {TrainOp::Forward};
    switch (phase) {
      case WorkloadPhase::Training: return kTrainingOps;
      case WorkloadPhase::Inference: return kInferenceOps;
    }
    return {};
}

namespace {

/** One side of the output grid: how many outputs, how to gather. */
struct SideSpec
{
    int count;
    /** Value of output @p o at flattened reduction index @p r. */
    std::function<float(int o, int r)> gather;
};

/** Build the operand stream for one output of one side. */
BlockStream
buildStream(const SideSpec &side, int out_id, int reduction_len,
            int lanes, int steps, bool with_values,
            std::vector<float> &row_scratch)
{
    BlockStream stream(lanes, with_values);
    for (int step = 0; step < steps; ++step) {
        if (with_values) {
            for (int l = 0; l < lanes; ++l) {
                int idx = step * lanes + l;
                row_scratch[l] = idx < reduction_len
                    ? side.gather(out_id, idx) : 0.0f;
            }
            stream.appendValueRow(row_scratch.data());
        } else {
            uint32_t mask = 0;
            for (int l = 0; l < lanes; ++l) {
                int idx = step * lanes + l;
                if (idx < reduction_len &&
                    side.gather(out_id, idx) != 0.0f) {
                    mask |= 1u << l;
                }
            }
            stream.appendMaskRow(mask);
        }
    }
    return stream;
}

/** Shared lowering core: grid partitioning, sampling, stream building. */
LoweredOp
lowerGeneric(const DataflowConfig &cfg, TrainOp op, const SideSpec &b,
             const SideSpec &a, int reduction_len, const Shape &out_shape)
{
    TD_ASSERT(reduction_len > 0, "empty reduction dimension");
    TD_ASSERT(b.count > 0 && a.count > 0, "empty output grid");

    LoweredOp lowered;
    lowered.op = op;
    lowered.out_shape = out_shape;
    lowered.steps = (reduction_len + cfg.lanes - 1) / cfg.lanes;

    uint64_t jobs_b = (b.count + cfg.rows - 1) / cfg.rows;
    uint64_t jobs_a = (a.count + cfg.cols - 1) / cfg.cols;
    lowered.total_jobs = jobs_b * jobs_a;
    lowered.total_mac_slots = (uint64_t)lowered.steps * cfg.lanes *
                              (uint64_t)b.count * (uint64_t)a.count;

    uint64_t macs_per_job = (uint64_t)lowered.steps * cfg.lanes *
                            cfg.rows * cfg.cols;
    uint64_t max_jobs = lowered.total_jobs;
    if (cfg.max_sampled_macs > 0) {
        max_jobs = std::max<uint64_t>(1,
            cfg.max_sampled_macs / std::max<uint64_t>(1, macs_per_job));
        max_jobs = std::min(max_jobs, lowered.total_jobs);
    }

    // Stratified deterministic sampling over the job grid; the
    // stratum offset is a pure function of (seed, op).
    std::vector<uint64_t> picks;
    picks.reserve(max_jobs);
    if (max_jobs == lowered.total_jobs) {
        for (uint64_t j = 0; j < lowered.total_jobs; ++j)
            picks.push_back(j);
    } else {
        double stride = (double)lowered.total_jobs / (double)max_jobs;
        double offset =
            CounterRng(cfg.seed).child((uint64_t)op).uniform() * stride;
        uint64_t prev = lowered.total_jobs;
        for (uint64_t k = 0; k < max_jobs; ++k) {
            auto j = (uint64_t)(offset + (double)k * stride);
            if (j >= lowered.total_jobs)
                j = lowered.total_jobs - 1;
            if (j == prev)
                continue;
            picks.push_back(j);
            prev = j;
        }
    }
    lowered.sampled_jobs = picks.size();
    double weight = (double)lowered.total_jobs /
                    (double)lowered.sampled_jobs;

    std::vector<float> row_scratch(cfg.lanes, 0.0f);
    for (uint64_t j : picks) {
        uint64_t jb = j / jobs_a;
        uint64_t ja = j % jobs_a;
        TileJob job;
        job.weight = weight;
        std::vector<int> b_ids, a_ids;
        for (int r = 0; r < cfg.rows; ++r) {
            int id = (int)(jb * cfg.rows) + r;
            if (id >= b.count)
                break;
            b_ids.push_back(id);
            job.b.push_back(buildStream(b, id, reduction_len, cfg.lanes,
                                        lowered.steps, cfg.with_values,
                                        row_scratch));
        }
        for (int c = 0; c < cfg.cols; ++c) {
            int id = (int)(ja * cfg.cols) + c;
            if (id >= a.count)
                break;
            a_ids.push_back(id);
            job.a.push_back(buildStream(a, id, reduction_len, cfg.lanes,
                                        lowered.steps, cfg.with_values,
                                        row_scratch));
        }
        for (const auto &s : job.b) {
            lowered.b_nonzero_slots += s.nonzeros();
            lowered.b_total_slots += s.slots();
        }
        lowered.jobs.push_back(std::move(job));
        lowered.job_b_ids.push_back(std::move(b_ids));
        lowered.job_a_ids.push_back(std::move(a_ids));
    }
    return lowered;
}

} // namespace

LoweredOp
Dataflow::lowerForward(const Tensor &acts, const Tensor &weights,
                       const ConvSpec &spec, FwdSide side) const
{
    const Shape &as = acts.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(as.c == ws.c, "channel mismatch in forward lowering");
    int oh = spec.outDim(as.h, ws.h);
    int ow = spec.outDim(as.w, ws.w);
    int chans = as.c;

    if (side == FwdSide::Auto) {
        side = weights.sparsity() > acts.sparsity()
            ? FwdSide::Weights : FwdSide::Activations;
    }

    // Reduction order: (ky, kx) outer, channel inner, so each lane row
    // holds 16 consecutive channels (the paper's 16-value blocks).
    SideSpec b{
        as.n * oh * ow,
        [&acts, spec, oh, ow, chans,
         ws](int o, int r) -> float {
            int c = r % chans;
            int k = r / chans;
            int ky = k / ws.w;
            int kx = k % ws.w;
            int ox = o % ow;
            int oy = (o / ow) % oh;
            int n = o / (oh * ow);
            int iy = oy * spec.stride + ky - spec.pad;
            int ix = ox * spec.stride + kx - spec.pad;
            const Shape &s = acts.shape();
            if (iy < 0 || iy >= s.h || ix < 0 || ix >= s.w)
                return 0.0f;
            return acts.at(n, c, iy, ix);
        }};
    SideSpec a{
        ws.n,
        [&weights, chans, ws](int f, int r) -> float {
            int c = r % chans;
            int k = r / chans;
            return weights.at(f, c, k / ws.w, k % ws.w);
        }};

    LoweredOp lowered = side == FwdSide::Activations
        ? lowerGeneric(config_, TrainOp::Forward, b, a,
                       chans * ws.h * ws.w, Shape{as.n, ws.n, oh, ow})
        : lowerGeneric(config_, TrainOp::Forward, a, b,
                       chans * ws.h * ws.w, Shape{as.n, ws.n, oh, ow});
    lowered.b_is_default_side = side == FwdSide::Activations;
    return lowered;
}

LoweredOp
Dataflow::lowerBackwardData(const Tensor &out_grads, const Tensor &weights,
                            const Shape &input_shape, const ConvSpec &spec,
                            BwdDataSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(gs.c == ws.n, "filter mismatch in backward-data lowering");
    int filters = ws.n;

    if (side == BwdDataSide::Auto) {
        side = weights.sparsity() > out_grads.sparsity()
            ? BwdDataSide::Weights : BwdDataSide::Gradients;
    }

    // Reduction order: (ky, kx) outer, filter inner.  The B side gathers
    // the stride-dilated gradient windows of Eq. 6; out-of-window and
    // dilation holes appear as structural zeros.
    SideSpec b{
        input_shape.n * input_shape.h * input_shape.w,
        [&out_grads, spec, input_shape, filters,
         ws](int o, int r) -> float {
            int f = r % filters;
            int k = r / filters;
            int ky = k / ws.w;
            int kx = k % ws.w;
            int ix = o % input_shape.w;
            int iy = (o / input_shape.w) % input_shape.h;
            int n = o / (input_shape.h * input_shape.w);
            int num_y = iy + spec.pad - ky;
            int num_x = ix + spec.pad - kx;
            if (num_y < 0 || num_x < 0 || num_y % spec.stride ||
                num_x % spec.stride) {
                return 0.0f;
            }
            int oy = num_y / spec.stride;
            int ox = num_x / spec.stride;
            const Shape &s = out_grads.shape();
            if (oy >= s.h || ox >= s.w)
                return 0.0f;
            return out_grads.at(n, f, oy, ox);
        }};
    // The A side is the reconstructed filter bank: channel c's stream
    // holds W[f, c, ky, kx] (the 180-degree rotation is implicit in the
    // matching gather order on the B side).
    SideSpec a{
        input_shape.c,
        [&weights, filters, ws](int c, int r) -> float {
            int f = r % filters;
            int k = r / filters;
            return weights.at(f, c, k / ws.w, k % ws.w);
        }};

    LoweredOp lowered = side == BwdDataSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardData, b, a,
                       filters * ws.h * ws.w, input_shape)
        : lowerGeneric(config_, TrainOp::BackwardData, a, b,
                       filters * ws.h * ws.w, input_shape);
    lowered.b_is_default_side = side == BwdDataSide::Gradients;
    return lowered;
}

LoweredOp
Dataflow::lowerBackwardWeights(const Tensor &out_grads, const Tensor &acts,
                               int kernel_h, int kernel_w,
                               const ConvSpec &spec, WgSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &as = acts.shape();
    TD_ASSERT(gs.n == as.n, "batch mismatch in backward-weights lowering");

    if (side == WgSide::Auto) {
        // The paper targets GO or A, whichever is sparser (section 2).
        side = out_grads.sparsity() >= acts.sparsity()
            ? WgSide::Gradients : WgSide::Activations;
    }

    // Reduction order: (n, oy) outer, ox inner.
    SideSpec grad_side{
        gs.c,
        [&out_grads, gs](int f, int r) -> float {
            int ox = r % gs.w;
            int oy = (r / gs.w) % gs.h;
            int n = r / (gs.h * gs.w);
            return out_grads.at(n, f, oy, ox);
        }};
    SideSpec act_side{
        as.c * kernel_h * kernel_w,
        [&acts, &gs, spec, as, kernel_h, kernel_w](int t,
                                                   int r) -> float {
            int kx = t % kernel_w;
            int ky = (t / kernel_w) % kernel_h;
            int c = t / (kernel_h * kernel_w);
            int ox = r % gs.w;
            int oy = (r / gs.w) % gs.h;
            int n = r / (gs.h * gs.w);
            int iy = oy * spec.stride + ky - spec.pad;
            int ix = ox * spec.stride + kx - spec.pad;
            if (iy < 0 || iy >= as.h || ix < 0 || ix >= as.w)
                return 0.0f;
            return acts.at(n, c, iy, ix);
        }};

    Shape out_shape{gs.c, as.c, kernel_h, kernel_w};
    int reduction = gs.n * gs.h * gs.w;
    LoweredOp lowered = side == WgSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardWeights, grad_side,
                       act_side, reduction, out_shape)
        : lowerGeneric(config_, TrainOp::BackwardWeights, act_side,
                       grad_side, reduction, out_shape);
    lowered.wg_b_is_gradients = side == WgSide::Gradients;
    return lowered;
}

namespace {

/** Matmul operands carry no spatial extent. */
void
assertMatmulShape(const Tensor &t, const char *what)
{
    TD_ASSERT(t.shape().h == 1 && t.shape().w == 1,
              "fc lowering wants 1x1 spatial %s, got %dx%d", what,
              t.shape().h, t.shape().w);
}

} // namespace

LoweredOp
Dataflow::lowerFcForward(const Tensor &acts, const Tensor &weights,
                         FwdSide side) const
{
    const Shape &as = acts.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(as.c == ws.c, "channel mismatch in fc forward lowering");
    assertMatmulShape(acts, "activations");
    assertMatmulShape(weights, "weights");

    if (side == FwdSide::Auto) {
        side = weights.sparsity() > acts.sparsity()
            ? FwdSide::Weights : FwdSide::Activations;
    }

    // Rows of A (one per sample) against rows of W (one per output
    // feature), reduced over in_c in lane-wide blocks.
    SideSpec b{
        as.n,
        [&acts](int o, int r) -> float { return acts.at(o, r, 0, 0); }};
    SideSpec a{
        ws.n,
        [&weights](int f, int r) -> float {
            return weights.at(f, r, 0, 0);
        }};

    LoweredOp lowered = side == FwdSide::Activations
        ? lowerGeneric(config_, TrainOp::Forward, b, a, as.c,
                       Shape{as.n, ws.n, 1, 1})
        : lowerGeneric(config_, TrainOp::Forward, a, b, as.c,
                       Shape{as.n, ws.n, 1, 1});
    lowered.b_is_default_side = side == FwdSide::Activations;
    return lowered;
}

LoweredOp
Dataflow::lowerFcBackwardData(const Tensor &out_grads,
                              const Tensor &weights,
                              const Shape &input_shape,
                              BwdDataSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(gs.c == ws.n,
              "filter mismatch in fc backward-data lowering");
    assertMatmulShape(out_grads, "gradients");
    assertMatmulShape(weights, "weights");

    if (side == BwdDataSide::Auto) {
        side = weights.sparsity() > out_grads.sparsity()
            ? BwdDataSide::Weights : BwdDataSide::Gradients;
    }

    // GA = GO x W: gradient rows against weight columns, reduced over
    // the out_c features.
    SideSpec b{
        input_shape.n,
        [&out_grads](int o, int r) -> float {
            return out_grads.at(o, r, 0, 0);
        }};
    SideSpec a{
        input_shape.c,
        [&weights](int c, int r) -> float {
            return weights.at(r, c, 0, 0);
        }};

    LoweredOp lowered = side == BwdDataSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardData, b, a, ws.n,
                       input_shape)
        : lowerGeneric(config_, TrainOp::BackwardData, a, b, ws.n,
                       input_shape);
    lowered.b_is_default_side = side == BwdDataSide::Gradients;
    return lowered;
}

LoweredOp
Dataflow::lowerFcBackwardWeights(const Tensor &out_grads,
                                 const Tensor &acts, WgSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &as = acts.shape();
    TD_ASSERT(gs.n == as.n,
              "batch mismatch in fc backward-weights lowering");
    assertMatmulShape(out_grads, "gradients");
    assertMatmulShape(acts, "activations");

    if (side == WgSide::Auto) {
        side = out_grads.sparsity() >= acts.sparsity()
            ? WgSide::Gradients : WgSide::Activations;
    }

    // GW = GO^T x A: per-feature gradient columns against per-input
    // activation columns, reduced over the batch.
    SideSpec grad_side{
        gs.c,
        [&out_grads](int f, int r) -> float {
            return out_grads.at(r, f, 0, 0);
        }};
    SideSpec act_side{
        as.c,
        [&acts](int c, int r) -> float { return acts.at(r, c, 0, 0); }};

    Shape out_shape{gs.c, as.c, 1, 1};
    LoweredOp lowered = side == WgSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardWeights, grad_side,
                       act_side, gs.n, out_shape)
        : lowerGeneric(config_, TrainOp::BackwardWeights, act_side,
                       grad_side, gs.n, out_shape);
    lowered.wg_b_is_gradients = side == WgSide::Gradients;
    return lowered;
}

void
Dataflow::scatter(const LoweredOp &lowered, size_t job_index,
                  const std::vector<std::vector<double>> &outputs,
                  Tensor &result)
{
    TD_ASSERT(result.shape() == lowered.out_shape,
              "scatter target shape mismatch");
    const auto &b_ids = lowered.job_b_ids[job_index];
    const auto &a_ids = lowered.job_a_ids[job_index];
    const Shape &os = lowered.out_shape;

    for (size_t r = 0; r < b_ids.size(); ++r) {
        for (size_t c = 0; c < a_ids.size(); ++c) {
            float v = (float)outputs[r][c];
            int b_id = b_ids[r];
            int a_id = a_ids[c];
            switch (lowered.op) {
              case TrainOp::Forward: {
                // Default: b = window (n, oy, ox), a = filter f;
                // flipped when the weights were the scheduled side.
                int window = lowered.b_is_default_side ? b_id : a_id;
                int filter = lowered.b_is_default_side ? a_id : b_id;
                int ox = window % os.w;
                int oy = (window / os.w) % os.h;
                int n = window / (os.h * os.w);
                result.at(n, filter, oy, ox) = v;
                break;
              }
              case TrainOp::BackwardData: {
                // Default: b = input position (n, iy, ix), a = channel.
                int pos = lowered.b_is_default_side ? b_id : a_id;
                int chan = lowered.b_is_default_side ? a_id : b_id;
                int ix = pos % os.w;
                int iy = (pos / os.w) % os.h;
                int n = pos / (os.h * os.w);
                result.at(n, chan, iy, ix) = v;
                break;
              }
              case TrainOp::BackwardWeights: {
                int f = lowered.wg_b_is_gradients ? b_id : a_id;
                int t = lowered.wg_b_is_gradients ? a_id : b_id;
                int kx = t % os.w;
                int ky = (t / os.w) % os.h;
                int ch = t / (os.h * os.w);
                result.at(f, ch, ky, kx) = v;
                break;
              }
            }
        }
    }
}

} // namespace tensordash
