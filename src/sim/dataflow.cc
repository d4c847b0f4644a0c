#include "sim/dataflow.hh"

#include <algorithm>
#include <cstddef>

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

FwdSide
resolveSide(FwdSide side, const OperandSparsity &sparsity)
{
    if (side != FwdSide::Auto)
        return side;
    return sparsity.weights > sparsity.acts ? FwdSide::Weights
                                            : FwdSide::Activations;
}

BwdDataSide
resolveSide(BwdDataSide side, const OperandSparsity &sparsity)
{
    if (side != BwdDataSide::Auto)
        return side;
    return sparsity.weights > sparsity.grads ? BwdDataSide::Weights
                                             : BwdDataSide::Gradients;
}

WgSide
resolveSide(WgSide side, const OperandSparsity &sparsity)
{
    if (side != WgSide::Auto)
        return side;
    return sparsity.grads >= sparsity.acts ? WgSide::Gradients
                                           : WgSide::Activations;
}

namespace {

/**
 * One side of the output grid: `count` outputs, each reducing over a
 * fixed sequence of runs of `len` elements.  A run reads
 * data[base + i * stride] for i inside its window [lo, hi) and holds
 * structural zeros (padding, stride-dilation holes) outside it.
 * `runs(o, emit)` calls emit(base, lo, hi) for each of output o's runs
 * in reduction order, so index math is paid per run, not per operand.
 */
template <typename Runs>
struct Gather
{
    const float *data;
    int count;
    int len;
    ptrdiff_t stride;
    Runs runs;
};

/** The i in [0, len) with 0 <= first + i * stride < extent. */
struct Window
{
    int lo;
    int hi;
};

Window
clipWindow(int first, int stride, int extent, int len)
{
    int lo = first >= 0 ? 0 : (stride - 1 - first) / stride;
    int hi = first >= extent ? 0 : (extent - first + stride - 1) / stride;
    hi = std::min(hi, len);
    return {std::min(lo, hi), hi};
}

/** Packs one output's gathered reduction into lane-wide stream rows. */
class RowWriter
{
  public:
    explicit RowWriter(BlockStream &stream)
        : stream_(stream), lanes_(stream.lanes()),
          values_(stream.hasValues())
    {}

    /** Append @p n structural zeros. */
    void
    zeros(int n)
    {
        lane_ += n;
        while (lane_ >= lanes_) {
            flush();
            lane_ -= lanes_;
        }
    }

    /** Append the @p n operands data[at + i * stride]. */
    void
    read(const float *data, ptrdiff_t at, ptrdiff_t stride, int n)
    {
        while (n > 0) {
            int take = std::min(n, lanes_ - lane_);
            if (values_) {
                for (int i = 0; i < take; ++i, at += stride)
                    row_[lane_ + i] = data[at];
            } else {
                uint32_t mask = mask_;
                for (int i = 0; i < take; ++i, at += stride)
                    mask |= (uint32_t)(data[at] != 0.0f) << (lane_ + i);
                mask_ = mask;
            }
            n -= take;
            lane_ += take;
            if (lane_ == lanes_) {
                flush();
                lane_ = 0;
            }
        }
    }

    /** Zero-pad and append a partly filled last row. */
    void
    finish()
    {
        if (lane_ > 0)
            flush();
    }

  private:
    void
    flush()
    {
        if (values_) {
            stream_.appendValueRow(row_);
            std::fill(row_, row_ + lanes_, 0.0f);
        } else {
            stream_.appendMaskRow(mask_);
            mask_ = 0;
        }
    }

    BlockStream &stream_;
    int lanes_;
    bool values_;
    int lane_ = 0;
    uint32_t mask_ = 0;
    float row_[32] = {};
};

/** Build the operand stream of output @p out_id of side @p g. */
template <typename Runs>
BlockStream
gatherStream(const Gather<Runs> &g, int out_id, const DataflowConfig &cfg,
             int steps)
{
    BlockStream stream(cfg.lanes, cfg.with_values);
    stream.reserve(steps);
    RowWriter row(stream);
    g.runs(out_id, [&](ptrdiff_t base, int lo, int hi) {
        row.zeros(lo);
        row.read(g.data, base + lo * g.stride, g.stride, hi - lo);
        row.zeros(g.len - hi);
    });
    row.finish();
    TD_ASSERT(stream.rows() == steps, "gather runs cover %d of %d rows",
              stream.rows(), steps);
    return stream;
}

/** Shared lowering core: grid partitioning, sampling, stream building. */
template <typename BRuns, typename ARuns>
LoweredOp
lowerGeneric(const DataflowConfig &cfg, TrainOp op, const Gather<BRuns> &b,
             const Gather<ARuns> &a, int reduction_len, const Shape &out_shape)
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

    lowered.jobs.reserve(picks.size());
    lowered.job_b_ids.reserve(picks.size());
    lowered.job_a_ids.reserve(picks.size());
    for (uint64_t j : picks) {
        int b0 = (int)(j / jobs_a * cfg.rows);
        int a0 = (int)(j % jobs_a * cfg.cols);
        int nb = std::min(cfg.rows, b.count - b0);
        int na = std::min(cfg.cols, a.count - a0);
        TileJob &job = lowered.jobs.emplace_back();
        job.weight = weight;
        job.b.reserve(nb);
        job.a.reserve(na);
        std::vector<int> &b_ids = lowered.job_b_ids.emplace_back();
        std::vector<int> &a_ids = lowered.job_a_ids.emplace_back();
        b_ids.reserve(nb);
        a_ids.reserve(na);
        for (int id = b0; id < b0 + nb; ++id) {
            b_ids.push_back(id);
            job.b.push_back(gatherStream(b, id, cfg, lowered.steps));
            lowered.b_nonzero_slots += job.b.back().nonzeros();
            lowered.b_total_slots += job.b.back().slots();
        }
        // Only the B side is scheduled, so a mask-mode A stream is an
        // empty placeholder that counts its column.
        for (int id = a0; id < a0 + na; ++id) {
            a_ids.push_back(id);
            job.a.push_back(cfg.with_values
                                ? gatherStream(a, id, cfg, lowered.steps)
                                : BlockStream(cfg.lanes));
        }
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
    int taps = ws.h * ws.w;

    if (side == FwdSide::Auto) {
        side = resolveSide(side, {.acts = acts.sparsity(),
                                  .weights = weights.sparsity()});
    }

    // Reduction order: (ky, kx) outer, channel inner, so each lane row
    // holds 16 consecutive channels (the paper's 16-value blocks).  A
    // window's tap is one run down the channels of one input pixel, or
    // all zeros when the tap falls in the padding.
    ptrdiff_t plane = (ptrdiff_t)as.h * as.w;
    Gather b{acts.data(), as.n * oh * ow, chans, plane,
             [=](int o, auto &&emit) {
                 int ox = o % ow;
                 int oy = (o / ow) % oh;
                 int n = o / (oh * ow);
                 ptrdiff_t image = (ptrdiff_t)n * chans * plane;
                 for (int ky = 0; ky < ws.h; ++ky) {
                     int iy = oy * spec.stride + ky - spec.pad;
                     for (int kx = 0; kx < ws.w; ++kx) {
                         int ix = ox * spec.stride + kx - spec.pad;
                         bool inside = iy >= 0 && iy < as.h && ix >= 0 &&
                                       ix < as.w;
                         emit(image + (ptrdiff_t)iy * as.w + ix, 0,
                              inside ? chans : 0);
                     }
                 }
             }};
    // Filter f's run for tap k reads W[f, c, k] down the channels.
    Gather a{weights.data(), ws.n, chans, (ptrdiff_t)taps,
             [=](int f, auto &&emit) {
                 for (int k = 0; k < taps; ++k)
                     emit((ptrdiff_t)f * chans * taps + k, 0, chans);
             }};

    LoweredOp lowered = side == FwdSide::Activations
        ? lowerGeneric(config_, TrainOp::Forward, b, a, chans * taps,
                       Shape{as.n, ws.n, oh, ow})
        : lowerGeneric(config_, TrainOp::Forward, a, b, chans * taps,
                       Shape{as.n, ws.n, oh, ow});
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
    TD_ASSERT(input_shape.n == gs.n && input_shape.c == ws.c &&
                  gs.h == spec.outDim(input_shape.h, ws.h) &&
                  gs.w == spec.outDim(input_shape.w, ws.w),
              "backward-data input %s does not match gradients %s and "
              "weights %s", input_shape.str().c_str(), gs.str().c_str(),
              ws.str().c_str());
    int filters = ws.n;
    int taps = ws.h * ws.w;

    if (side == BwdDataSide::Auto) {
        side = resolveSide(side, {.weights = weights.sparsity(),
                                  .grads = out_grads.sparsity()});
    }

    // Reduction order: (ky, kx) outer, filter inner.  The B side gathers
    // the stride-dilated gradient windows of Eq. 6: a tap is one run
    // down the filters of one gradient pixel, or all structural zeros
    // when it lands in a dilation hole or outside the window.
    ptrdiff_t plane = (ptrdiff_t)gs.h * gs.w;
    int in_h = input_shape.h;
    int in_w = input_shape.w;
    Gather b{out_grads.data(), input_shape.n * in_h * in_w, filters, plane,
             [=](int o, auto &&emit) {
                 int ix = o % in_w;
                 int iy = (o / in_w) % in_h;
                 int n = o / (in_h * in_w);
                 ptrdiff_t image = (ptrdiff_t)n * filters * plane;
                 for (int ky = 0; ky < ws.h; ++ky) {
                     int num_y = iy + spec.pad - ky;
                     int oy = num_y / spec.stride;
                     bool row_in = num_y >= 0 &&
                                   num_y % spec.stride == 0 && oy < gs.h;
                     for (int kx = 0; kx < ws.w; ++kx) {
                         int num_x = ix + spec.pad - kx;
                         int ox = num_x / spec.stride;
                         bool inside = row_in && num_x >= 0 &&
                                       num_x % spec.stride == 0 &&
                                       ox < gs.w;
                         emit(image + (ptrdiff_t)oy * gs.w + ox, 0,
                              inside ? filters : 0);
                     }
                 }
             }};
    // The A side is the reconstructed filter bank: channel c's run for
    // tap k reads W[f, c, k] across the filters (the 180-degree rotation
    // is implicit in the matching gather order on the B side).
    Gather a{weights.data(), input_shape.c, filters,
             (ptrdiff_t)ws.c * taps, [=](int c, auto &&emit) {
                 for (int k = 0; k < taps; ++k)
                     emit((ptrdiff_t)c * taps + k, 0, filters);
             }};

    LoweredOp lowered = side == BwdDataSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardData, b, a,
                       filters * taps, input_shape)
        : lowerGeneric(config_, TrainOp::BackwardData, a, b,
                       filters * taps, input_shape);
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
        side = resolveSide(side, {.acts = acts.sparsity(),
                                  .grads = out_grads.sparsity()});
    }

    Shape out_shape{gs.c, as.c, kernel_h, kernel_w};
    int map = gs.h * gs.w;
    auto lower = [&](const auto &grad_side, const auto &act_side) {
        LoweredOp lowered = side == WgSide::Gradients
            ? lowerGeneric(config_, TrainOp::BackwardWeights, grad_side,
                           act_side, gs.n * map, out_shape)
            : lowerGeneric(config_, TrainOp::BackwardWeights, act_side,
                           grad_side, gs.n * map, out_shape);
        lowered.wg_b_is_gradients = side == WgSide::Gradients;
        return lowered;
    };
    ptrdiff_t plane = (ptrdiff_t)as.h * as.w;

    if (map == 1) {
        // A one-pixel output map (every FC layer) reduces over the
        // batch alone, so each output's reduction is one run strided
        // across the samples rather than gs.n single-element runs.
        // Filter f reads GO[n, f]; tap (c, ky, kx) reads the one input
        // pixel it sees, or all zeros when that pixel is padding.
        int n = gs.n;
        Gather grad_side{out_grads.data(), gs.c, n, (ptrdiff_t)gs.c,
                         [n](int f, auto &&emit) { emit(f, 0, n); }};
        Gather act_side{acts.data(), as.c * kernel_h * kernel_w, n,
                        (ptrdiff_t)as.c * plane, [=](int t, auto &&emit) {
                            int ix = t % kernel_w - spec.pad;
                            int iy = (t / kernel_w) % kernel_h - spec.pad;
                            int c = t / (kernel_h * kernel_w);
                            bool inside = iy >= 0 && iy < as.h &&
                                          ix >= 0 && ix < as.w;
                            emit(c * plane + (ptrdiff_t)iy * as.w + ix, 0,
                                 inside ? n : 0);
                        }};
        return lower(grad_side, act_side);
    }

    // Reduction order: (n, oy) outer, ox inner.  Filter f's gradient
    // map is one contiguous run per sample.
    Gather grad_side{out_grads.data(), gs.c, map, 1,
                     [=](int f, auto &&emit) {
                         for (int n = 0; n < gs.n; ++n)
                             emit(((ptrdiff_t)n * gs.c + f) * map, 0, map);
                     }};
    // Tap (c, ky, kx) reads one strided run along each output row
    // (n, oy); the window clips the columns that fall in the padding.
    Gather act_side{acts.data(), as.c * kernel_h * kernel_w, gs.w,
                    (ptrdiff_t)spec.stride, [=](int t, auto &&emit) {
                        int kx = t % kernel_w;
                        int ky = (t / kernel_w) % kernel_h;
                        int c = t / (kernel_h * kernel_w);
                        int x0 = kx - spec.pad;
                        Window cols = clipWindow(x0, spec.stride, as.w,
                                                 gs.w);
                        for (int n = 0; n < gs.n; ++n) {
                            ptrdiff_t chan = ((ptrdiff_t)n * as.c + c) *
                                             plane;
                            for (int oy = 0; oy < gs.h; ++oy) {
                                int iy = oy * spec.stride + ky - spec.pad;
                                bool in = iy >= 0 && iy < as.h;
                                emit(chan + (ptrdiff_t)iy * as.w + x0,
                                     in ? cols.lo : 0, in ? cols.hi : 0);
                            }
                        }
                    }};
    return lower(grad_side, act_side);
}

namespace {

/** An FC layer is the stride-1, unpadded 1x1 convolution. */
constexpr ConvSpec kFcSpec{1, 0};

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
    assertMatmulShape(acts, "activations");
    assertMatmulShape(weights, "weights");
    return lowerForward(acts, weights, kFcSpec, side);
}

LoweredOp
Dataflow::lowerFcBackwardData(const Tensor &out_grads,
                              const Tensor &weights,
                              const Shape &input_shape,
                              BwdDataSide side) const
{
    assertMatmulShape(out_grads, "gradients");
    assertMatmulShape(weights, "weights");
    return lowerBackwardData(out_grads, weights, input_shape, kFcSpec,
                             side);
}

LoweredOp
Dataflow::lowerFcBackwardWeights(const Tensor &out_grads,
                                 const Tensor &acts, WgSide side) const
{
    assertMatmulShape(out_grads, "gradients");
    assertMatmulShape(acts, "activations");
    return lowerBackwardWeights(out_grads, acts, 1, 1, kFcSpec, side);
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
