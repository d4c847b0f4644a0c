#include "sim/estimator.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace tensordash {

namespace {

/**
 * Shape constants of the per-row efficiency curve, per interconnect.
 *
 * Fitted against the exact Tile on iid Bernoulli streams over a
 * (density x rows x lookahead-depth) grid; worst absolute efficiency
 * error of the fit is ~0.03 for the paper pattern (~0.04/0.06 for the
 * lookahead-only / crossbar ablations).  See effCurve() for the
 * functional form; the error-bound suite in tests/test_estimator.cc
 * pins the end-to-end result.
 */
struct CurveParams
{
    double onset;   ///< curve onset as a fraction of the cycle floor
    double shape;   ///< power of the rise between onset and 1
    double jitter;  ///< window-transient row-imbalance coefficient
};

CurveParams
curveParams(InterconnectKind kind)
{
    switch (kind) {
      case InterconnectKind::LookaheadOnly:
        return {0.175, 0.725, 1.9};
      case InterconnectKind::Crossbar:
        return {0.70, 1.175, 0.8};
      default:
        return {0.32, 1.24, 1.2};
    }
}

/** E[max of n iid N(0,1)] for n = 1..16 (exact order statistics). */
constexpr double kGaussMax[17] = {
    0.0,      0.0,      0.564190, 0.846288, 1.029375, 1.162964,
    1.267206, 1.352178, 1.423600, 1.485013, 1.538753, 1.586436,
    1.629229, 1.668004, 1.703432, 1.736038, 1.766228};

double
gaussMax(double n)
{
    if (n <= 1.0)
        return 0.0;
    if (n >= 16.0)
        return kGaussMax[16];
    int lo = (int)n;
    double frac = n - (double)lo;
    return kGaussMax[lo] + frac * (kGaussMax[lo + 1] - kGaussMax[lo]);
}

/** Clustered-synthesis concentration for activation/gradient maps
 * (applyClusteredSparsity's Beta). */
double
mapConcentration(double strength)
{
    return std::max(80.0 * std::pow(0.01, strength), 0.8);
}

/** Per-filter keep-rate concentration of clustered pruning
 * (applyClusteredPruning's Beta). */
double
filterConcentration(double strength)
{
    return std::max(60.0 * std::pow(0.02, strength), 0.8);
}

/**
 * E[f(X)] for X ~ Beta(a, b) by midpoint quadrature with the edge
 * substitutions t = x^a (left) and u = (1-x)^b (right), which absorb
 * the integrable endpoint singularities of small shape parameters.
 * Built once per (a, b), it serves every expectation over that Beta.
 */
struct BetaQuadrature
{
    static constexpr int kN = 32; ///< midpoint nodes per edge
    double x[2 * kN], w[2 * kN];  ///< nodes and their weights
    double norm;                  ///< B(a, b)

    BetaQuadrature(double a, double b)
    {
        // lgamma_r, not std::lgamma: the latter also writes the global
        // signgam, a data race when estimate-tier tasks run in parallel.
        int sign = 0;
        norm = std::exp(::lgamma_r(a, &sign) + ::lgamma_r(b, &sign) -
                        ::lgamma_r(a + b, &sign));
        double hi = std::pow(0.5, a);
        for (int i = 0; i < kN; ++i) {
            x[i] = std::pow(hi * (i + 0.5) / kN, 1.0 / a);
            w[i] = hi / kN * std::pow(1.0 - x[i], b - 1.0) / a;
        }
        hi = std::pow(0.5, b);
        for (int i = 0; i < kN; ++i) {
            x[kN + i] = 1.0 - std::pow(hi * (i + 0.5) / kN, 1.0 / b);
            w[kN + i] = hi / kN * std::pow(x[kN + i], a - 1.0) / b;
        }
    }

    template <typename F>
    double
    expect(F &&f) const
    {
        double total = 0.0;
        for (int i = 0; i < 2 * kN; ++i)
            total += w[i] * f(x[i]);
        return total / norm;
    }
};

/**
 * Expected *realised* weight density of clustered magnitude pruning
 * targeting keep rate @p keep_mean: applyClusteredPruning draws a
 * per-filter keep and a per-channel multiplier from
 * Beta(keep k, (1-keep) k), clamps their product into [0, 1], and
 * rounds the per-slice prune count to an integer.  Both the clamp
 * (which truncates the high tail) and the rounding (brutal for 1x1
 * kernels, where a slice is one weight) push the realised density
 * below the target — halving it for heavily pruned 1x1 layers — so
 * DRAM traffic and weight-side schedules must use this value, exactly
 * as the simulator sees measured (not target) sparsity.
 */
double
realizedPrunedDensity(double keep_mean, double strength,
                      uint64_t per_slice)
{
    double k = filterConcentration(strength);
    double a = keep_mean * k;
    double b = (1.0 - keep_mean) * k;
    if (a <= 0.0 || b <= 0.0)
        return std::clamp(keep_mean, 0.0, 1.0);
    double ps = (double)per_slice;
    const BetaQuadrature beta(a, b);
    double got = beta.expect([&](double bv) {
        double mc = (0.25 + bv / std::max(keep_mean, 1e-6)) / 1.25;
        return beta.expect([&](double kfv) {
            double kf = std::clamp(kfv, 0.02, 1.0);
            double keep = std::clamp(kf * mc, 0.0, 1.0);
            double prune =
                std::min(std::floor(ps * (1.0 - keep) + 0.5), ps);
            return (ps - prune) / ps;
        });
    });
    return std::clamp(got, 0.0, 1.0);
}

/** Mean/mean-square of one per-dimension valid fraction. */
struct DimStats
{
    double mean = 1.0;
    double meansq = 1.0;
};

/**
 * Validity of kernel tap @p t against output position @p o in one
 * dimension of a forward-style gather: the input index
 * o * stride + t - pad must land inside [0, in).
 */
bool
fwdTapValid(int o, int t, int in, int stride, int pad)
{
    int i = o * stride + t - pad;
    return i >= 0 && i < in;
}

/** Per-*output* valid-tap fraction (forward/wg window streams). */
DimStats
windowValidStats(int out, int in, int k, int stride, int pad)
{
    DimStats st{0.0, 0.0};
    for (int o = 0; o < out; ++o) {
        int cnt = 0;
        for (int t = 0; t < k; ++t)
            cnt += fwdTapValid(o, t, in, stride, pad);
        double v = (double)cnt / (double)k;
        st.mean += v;
        st.meansq += v * v;
    }
    st.mean /= (double)out;
    st.meansq /= (double)out;
    return st;
}

/** Per-*tap* valid-output fraction (backward-weights tap streams). */
DimStats
tapValidStats(int out, int in, int k, int stride, int pad)
{
    DimStats st{0.0, 0.0};
    for (int t = 0; t < k; ++t) {
        int cnt = 0;
        for (int o = 0; o < out; ++o)
            cnt += fwdTapValid(o, t, in, stride, pad);
        double v = (double)cnt / (double)out;
        st.mean += v;
        st.meansq += v * v;
    }
    st.mean /= (double)k;
    st.meansq /= (double)k;
    return st;
}

/** Per-input-position valid-tap fraction of the backward-data gather
 * (stride dilation holes + window clipping). */
DimStats
bwdDataValidStats(int in, int out, int k, int stride, int pad)
{
    DimStats st{0.0, 0.0};
    for (int i = 0; i < in; ++i) {
        int cnt = 0;
        for (int t = 0; t < k; ++t) {
            int num = i + pad - t;
            cnt += num >= 0 && num % stride == 0 && num / stride < out;
        }
        double v = (double)cnt / (double)k;
        st.mean += v;
        st.meansq += v * v;
    }
    st.mean /= (double)in;
    st.meansq /= (double)in;
    return st;
}

/** One point of a discrete stream-density distribution. */
struct DistPoint
{
    double d;
    double p;
};

/**
 * Distribution of a stream's mean value-density when the stream
 * averages @p n_avg independent feature maps whose densities follow
 * the clustered Beta(d*k, (1-d)*k).
 *
 * The Beta is replaced by its moment-matched three-point surrogate
 * (mass k/(k+1) at d, d/(k+1) at 1, (1-d)/(k+1) at 0 — exact mean and
 * variance, and it keeps the strongly bimodal character of small k
 * that a Gaussian loses).  Small averages are convolved exactly;
 * large averages collapse to a Gauss–Hermite-discretised normal.
 */
std::vector<DistPoint>
streamDensityDist(double d, double k, int n_avg)
{
    std::vector<DistPoint> pts;
    double var = d * (1.0 - d) / (k + 1.0);
    if (var < 1e-9 || n_avg >= 64) {
        pts.push_back({d, 1.0});
        return pts;
    }

    if (n_avg <= 6) {
        double pm = k / (k + 1.0);
        double p1 = d / (k + 1.0);
        double p0 = (1.0 - d) / (k + 1.0);
        static constexpr double kFact[7] = {1, 1, 2, 6, 24, 120, 720};
        int n = std::max(1, n_avg);
        for (int i1 = 0; i1 <= n; ++i1) {
            for (int i0 = 0; i0 + i1 <= n; ++i0) {
                int im = n - i0 - i1;
                double w = kFact[n] / (kFact[i0] * kFact[i1] * kFact[im]) *
                           std::pow(p0, i0) * std::pow(p1, i1) *
                           std::pow(pm, im);
                if (w < 1e-12)
                    continue;
                pts.push_back(
                    {((double)i1 + (double)im * d) / (double)n, w});
            }
        }
    } else {
        // Central limit: 7-point Gauss–Hermite discretisation.
        static constexpr double kNode[4] = {0.0, 0.8162878829,
                                            1.6735516288, 2.6519613568};
        static constexpr double kWeight[4] = {0.4571428571, 0.2401231786,
                                              0.0307571240, 0.0005482689};
        double sigma = std::sqrt(var / (double)n_avg);
        for (int i = -3; i <= 3; ++i) {
            int a = i < 0 ? -i : i;
            double v = d + std::sqrt(2.0) * sigma * (i < 0 ? -kNode[a]
                                                           : kNode[a]);
            pts.push_back({std::clamp(v, 0.0, 1.0), kWeight[a]});
        }
    }

    std::sort(pts.begin(), pts.end(),
              [](const DistPoint &x, const DistPoint &y) {
                  return x.d < y.d;
              });
    double total = 0.0;
    for (const DistPoint &p : pts)
        total += p.p;
    for (DistPoint &p : pts)
        p.p /= total;
    return pts;
}

/** The scheduled side of one lowered op, statistically. */
struct SideInfo
{
    uint64_t count = 0;       ///< streams on the side
    double dens = 1.0;        ///< expected value density
    double struct_mean = 1.0; ///< mean valid-slot fraction per stream
    double struct_row_var = 0.0; ///< between-row variance of that fraction
    double map_k = 1e12;      ///< clustering concentration
    int map_avg = 64;         ///< independent maps averaged per stream
    double group = 1.0;       ///< consecutive streams sharing map draws
};

/** Closed-form description of one lowered op. */
struct OpGeom
{
    SideInfo b;
    uint64_t a_count = 0;
    uint64_t reduction = 0;
    double gate_sparsity = 1.0; ///< expected sparsity of the gate tensor
};

/**
 * Realised weight density of one cell, resolved on first read.
 * Dense-model weights are random floats — effectively no zeros.
 * Pruned weights land *below* their keep target (clamping and
 * per-slice rounding in applyClusteredPruning); the simulator works
 * from measured sparsity, so the estimator must too, at one Beta
 * quadrature per clustered-pruned cell.  Only weight traffic and a
 * side policy that may schedule weights read it, so pricing at the
 * default sides never pays the quadrature.
 */
struct WeightDensity
{
    const CellSparsity &sp;
    int kernel;
    std::optional<double> value = std::nullopt;

    double
    operator()()
    {
        if (value)
            return *value;
        value = 1.0;
        if (sp.weight > 0.0)
            value = sp.clustered_weights
                ? realizedPrunedDensity(1.0 - sp.weight, sp.cluster_strength,
                                        (uint64_t)kernel * kernel)
                : 1.0 - sp.weight;
        return *value;
    }
};

uint64_t
expectedNonzeros(uint64_t total, double density)
{
    double nz = (double)total * std::clamp(density, 0.0, 1.0);
    return (uint64_t)std::llround(nz);
}

/** Expected off-chip traffic of (layer, op): nonzero counts from the
 * expected densities instead of measured tensors. */
OpTraffic
expectedTraffic(const LayerSpec &layer, int batch, TrainOp op,
                const CellSparsity &sp, WeightDensity &dw)
{
    uint64_t acts = (uint64_t)batch * layer.in_c * layer.in_hw * layer.in_hw;
    uint64_t weights = (uint64_t)layer.out_c * layer.in_c * layer.kernel *
                       layer.kernel;
    uint64_t grads =
        (uint64_t)batch * layer.out_c * layer.outHw() * layer.outHw();
    switch (op) {
      case TrainOp::Forward:
        return {.in0_nz = expectedNonzeros(acts, 1.0 - sp.act),
                .in0_total = acts,
                .in1_nz = expectedNonzeros(weights, dw()),
                .in1_total = weights,
                .out_total = grads};
      case TrainOp::BackwardData:
        return {.in0_nz = expectedNonzeros(grads, 1.0 - sp.grad),
                .in0_total = grads,
                .in1_nz = expectedNonzeros(weights, dw()),
                .in1_total = weights,
                .out_total = acts,
                .transposed = weights};
      case TrainOp::BackwardWeights:
        return {.in0_nz = expectedNonzeros(grads, 1.0 - sp.grad),
                .in0_total = grads,
                .in1_nz = expectedNonzeros(acts, 1.0 - sp.act),
                .in1_total = acts,
                .out_total = weights,
                .transposed = grads};
    }
    TD_PANIC("unknown training op %d", (int)op);
    return {};
}

/**
 * Resolve the lowering geometry of (layer, op) under the estimator's
 * statistical model — side policy, stream counts, structural-zero
 * statistics and clustering structure, mirroring the Dataflow
 * lowerings without touching tensors.
 */
OpGeom
resolveOpGeom(const AcceleratorConfig &config, const LayerSpec &layer,
              int batch, TrainOp op, const CellSparsity &sp,
              WeightDensity &dw)
{
    int N = batch;
    int C = layer.in_c;
    int H = layer.in_hw;
    int K = layer.kernel;
    int F = layer.out_c;
    int OH = layer.outHw();
    int stride = layer.stride;
    int pad = layer.pad;

    double da = 1.0 - sp.act;
    double dg = 1.0 - sp.grad;
    double k_map = mapConcentration(sp.cluster_strength);
    double k_filt = filterConcentration(sp.cluster_strength);

    OpGeom g;
    switch (op) {
      case TrainOp::Forward: {
        g.reduction = (uint64_t)C * K * K;
        bool weights_side = config.fwd_side == FwdSide::Weights ||
            (config.fwd_side == FwdSide::Auto && 1.0 - dw() > sp.act);
        uint64_t windows = (uint64_t)N * OH * OH;
        if (!weights_side) {
            DimStats win = windowValidStats(OH, H, K, stride, pad);
            g.b.count = windows;
            g.b.dens = da;
            g.b.struct_mean = win.mean * win.mean;
            // Rows of one job are consecutive windows: the slow (y)
            // coordinate is near-constant, the fast (x) one varies.
            g.b.struct_row_var =
                win.mean * win.mean * (win.meansq - win.mean * win.mean);
            g.b.map_k = k_map;
            g.b.map_avg = C;
            g.b.group = (double)OH * OH; // windows sharing one sample's maps
            g.a_count = (uint64_t)F;
            g.gate_sparsity = sp.act;
        } else {
            g.b.count = (uint64_t)F;
            g.b.dens = dw();
            if (sp.clustered_weights)
                g.b.map_k = k_filt, g.b.map_avg = 1;
            g.a_count = windows;
            g.gate_sparsity = 1.0 - dw();
        }
        break;
      }
      case TrainOp::BackwardData: {
        g.reduction = (uint64_t)F * K * K;
        bool weights_side = config.bwd_data_side == BwdDataSide::Weights ||
            (config.bwd_data_side == BwdDataSide::Auto &&
             1.0 - dw() > sp.grad);
        uint64_t pixels = (uint64_t)N * H * H;
        if (!weights_side) {
            DimStats pix = bwdDataValidStats(H, OH, K, stride, pad);
            g.b.count = pixels;
            g.b.dens = dg;
            g.b.struct_mean = pix.mean * pix.mean;
            g.b.struct_row_var =
                pix.mean * pix.mean * (pix.meansq - pix.mean * pix.mean);
            g.b.map_k = k_map;
            g.b.map_avg = F;
            g.b.group = (double)H * H; // pixels sharing one sample's maps
            g.a_count = (uint64_t)C;
            g.gate_sparsity = sp.grad;
        } else {
            g.b.count = (uint64_t)C;
            g.b.dens = dw();
            if (sp.clustered_weights)
                g.b.map_k = k_filt, g.b.map_avg = 1;
            g.a_count = pixels;
            g.gate_sparsity = 1.0 - dw();
        }
        break;
      }
      case TrainOp::BackwardWeights: {
        g.reduction = (uint64_t)N * OH * OH;
        bool grads_side = config.wg_side == WgSide::Gradients ||
            (config.wg_side == WgSide::Auto && sp.grad >= sp.act);
        if (grads_side) {
            g.b.count = (uint64_t)F;
            g.b.dens = dg;
            g.b.map_k = k_map;
            g.b.map_avg = N; // one filter's maps across the batch
            g.a_count = (uint64_t)C * K * K;
            g.gate_sparsity = sp.grad;
        } else {
            DimStats tap = tapValidStats(OH, H, K, stride, pad);
            g.b.count = (uint64_t)C * K * K;
            g.b.dens = da;
            g.b.struct_mean = tap.mean * tap.mean;
            // Consecutive tap streams change (ky, kx): full spread.
            g.b.struct_row_var = tap.meansq * tap.meansq -
                g.b.struct_mean * g.b.struct_mean;
            g.b.map_k = k_map;
            g.b.map_avg = N;
            g.b.group = (double)K * K; // taps sharing one channel's maps
            g.a_count = (uint64_t)F;
            g.gate_sparsity = sp.act;
        }
        break;
      }
    }
    g.b.struct_row_var = std::max(g.b.struct_row_var, 0.0);
    return g;
}

/** Partitioning of the output grid into sampled tile jobs —
 * bit-equal to lowerGeneric's arithmetic. */
struct JobGrid
{
    uint64_t steps = 0;
    uint64_t jobs_b = 0, jobs_a = 0;
    uint64_t total_jobs = 0, sampled_jobs = 0;
    uint64_t mac_slots = 0;
};

JobGrid
resolveJobGrid(const AcceleratorConfig &config, const OpGeom &g)
{
    const TileConfig &t = config.tile;
    JobGrid jg;
    jg.steps = (g.reduction + t.lanes - 1) / t.lanes;
    jg.jobs_b = (g.b.count + t.rows - 1) / t.rows;
    jg.jobs_a = (g.a_count + t.cols - 1) / t.cols;
    jg.total_jobs = jg.jobs_b * jg.jobs_a;
    jg.mac_slots = jg.steps * t.lanes * g.b.count * g.a_count;
    uint64_t macs_per_job =
        jg.steps * (uint64_t)t.lanes * t.rows * t.cols;
    uint64_t max_jobs = jg.total_jobs;
    if (config.max_sampled_macs > 0) {
        max_jobs = std::max<uint64_t>(
            1, config.max_sampled_macs / macs_per_job);
        max_jobs = std::min(max_jobs, jg.total_jobs);
    }
    // The stratified picker's stride >= 1 yields strictly increasing
    // job ids, so it keeps (almost exactly) max_jobs of them.
    jg.sampled_jobs = max_jobs;
    return jg;
}

/**
 * The calibrated per-row efficiency curve: expected cycles/steps for
 * one row at slot density @p x when an empty stream would finish in
 * @p floor * steps cycles (the lookahead window advances at most
 * `depth` steps per cycle, so floor = ceil(S/depth)/S).
 *
 *   g(x) = floor + (1 - floor) * ((x - a) / (1 - a))^shape,
 *   a = onset * floor
 *
 * clamped to [floor, 1]: flat at the floor until the stream carries
 * enough work to pace the window, then a calibrated power-law rise to
 * the dense bound.
 */
double
effCurve(double x, double floor, const CurveParams &cp)
{
    double a = cp.onset * floor;
    double h = x <= a ? 0.0
                      : std::pow((x - a) / (1.0 - a), cp.shape);
    return std::clamp(floor + (1.0 - floor) * h, floor, 1.0);
}

/**
 * Expected cycles/steps of one job whose scheduled rows draw their
 * density from @p dist: rows advance in lockstep, so the job runs at
 * the efficiency of its densest row-group (the expected maximum over
 * @p groups independent draws), plus per-row noise.  Two noise
 * sources combine in quadrature: the stream-level density spread
 * (@p noise_sd, from map sampling and structural-zero variation) and
 * the cycle-level transient imbalance between rows inside one
 * lookahead window, whose measured magnitude follows
 * jitter * sqrt(x (1-x) / (depth lanes)) * sqrt(1-x).
 */
double
expectedJobEfficiency(const std::vector<DistPoint> &dist, double groups,
                      int rows, double slot_scale, double fill,
                      double noise_sd, double floor, int depth,
                      int lanes, const CurveParams &cp)
{
    double e = 0.0;
    double cdf = 0.0, prev_pow = 0.0;
    double gmax = gaussMax((double)rows);
    for (const DistPoint &pt : dist) {
        cdf += pt.p;
        double pow_cdf = std::pow(std::min(cdf, 1.0), groups);
        double x0 = std::clamp(pt.d * slot_scale, 0.0, 1.0);
        double wnd_var = cp.jitter * cp.jitter * x0 * (1.0 - x0) *
                         (1.0 - x0) / (double)(depth * lanes);
        double bump =
            gmax * std::sqrt(noise_sd * noise_sd + wnd_var);
        double x = std::clamp(x0 + bump, 0.0, fill);
        e += (pow_cdf - prev_pow) * effCurve(x, floor, cp);
        prev_pow = pow_cdf;
    }
    return e;
}

/** Expected TensorDash cycles (all tiles, full layer) of one op. */
double
expectedTdCycles(const AcceleratorConfig &config, const OpGeom &g,
                 const JobGrid &jg)
{
    const TileConfig &t = config.tile;
    if (t.interconnect == InterconnectKind::DenseOnly)
        return (double)jg.steps * (double)jg.total_jobs /
               (double)config.tiles;

    double fill = (double)g.reduction /
                  ((double)jg.steps * (double)t.lanes);
    double slot_scale = fill * g.b.struct_mean;
    // Per-row deviation around the stream mean: within-map Bernoulli
    // sampling plus the structural-fraction spread across rows.
    double bin_var = g.b.struct_mean * g.b.dens * (1.0 - g.b.dens) /
                     (double)g.reduction;
    double noise_var =
        fill * fill *
        (g.b.dens * g.b.dens * g.b.struct_row_var + bin_var);
    double noise_sd = std::sqrt(std::max(noise_var, 0.0));

    std::vector<DistPoint> dist =
        streamDensityDist(g.b.dens, g.b.map_k, g.b.map_avg);
    CurveParams cp = curveParams(t.interconnect);
    double floor = (double)((jg.steps + t.depth - 1) / t.depth) /
                   (double)jg.steps;

    uint64_t full_groups = g.b.count / t.rows;
    int rem_rows = (int)(g.b.count % t.rows);
    auto eff = [&](int rows) {
        double groups = std::max(1.0, (double)rows / g.b.group);
        return expectedJobEfficiency(dist, groups, rows, slot_scale,
                                     fill, noise_sd, floor, t.depth,
                                     t.lanes, cp);
    };
    double row_jobs = (double)full_groups * eff(t.rows);
    if (rem_rows > 0)
        row_jobs += eff(rem_rows);
    return (double)jg.steps * (double)jg.jobs_a * row_jobs /
           (double)config.tiles;
}

} // namespace

OpEstimator::OpEstimator(const AcceleratorConfig &config)
    : config_(config),
      energy_model_(config.geometry(), config.freq_ghz, config.dram,
                    config.energy)
{
    TD_ASSERT(config.tiles >= 1, "need at least one tile");
}

OpEstimate
OpEstimator::estimateOp(const LayerSpec &layer, int batch, TrainOp op,
                        const CellSparsity &sparsity,
                        double out_sparsity) const
{
    TD_ASSERT(batch >= 1, "need a positive batch");
    WeightDensity dw{sparsity, layer.kernel};
    OpGeom g = resolveOpGeom(config_, layer, batch, op, sparsity, dw);
    const OpTraffic traffic =
        expectedTraffic(layer, batch, op, sparsity, dw);
    JobGrid jg = resolveJobGrid(config_, g);
    const TileConfig &tile = config_.tile;

    OpEstimate est;
    OpResult &r = est.op;
    r.op = op;
    r.mac_slots = (double)jg.mac_slots;

    // Baseline cycles are sampling-independent: every job costs
    // exactly `steps` dense cycles.
    r.base_cycles = (double)jg.steps * (double)jg.total_jobs /
                    (double)config_.tiles;

    bool gated = config_.power_gating &&
        g.gate_sparsity < config_.gate_min_sparsity;
    r.gated = gated;
    r.td_cycles = gated ? r.base_cycles
                        : expectedTdCycles(config_, g, jg);

    // Scheduled-side slot totals over the sampled streams.
    double mean_rows = (double)g.b.count / (double)jg.jobs_b;
    r.b_total_slots = (double)jg.sampled_jobs * mean_rows *
                      (double)jg.steps * (double)tile.lanes;
    r.b_nonzero_slots = (double)jg.sampled_jobs * mean_rows *
                        (double)g.reduction * g.b.struct_mean * g.b.dens;

    // Staging activity, closed over the full grid (the simulator's
    // sampled estimate converges to the same totals).
    r.activity.spad_row_reads =
        (double)jg.steps * ((double)jg.jobs_a * (double)g.b.count +
                            (double)jg.jobs_b * (double)g.a_count);
    r.activity.spad_row_writes = r.activity.spad_row_reads;
    r.activity.sram_block_reads = r.activity.spad_row_reads;
    r.activity.sram_block_writes =
        (double)traffic.out_total / (double)tile.lanes;
    r.activity.cycles = r.td_cycles;

    // Off-chip traffic and energy: the simulator's own charge, fed
    // with expected instead of measured nonzero counts.
    chargeOffChip(config_, traffic, out_sparsity, r);
    est.energy_base = opEnergy(energy_model_, r, false);
    est.energy_td = opEnergy(energy_model_, r, true);
    return est;
}

double
OpEstimator::estimateSimCost(const AcceleratorConfig &config,
                             const LayerSpec &layer, int batch,
                             TrainOp op, const CellSparsity &sparsity)
{
    WeightDensity dw{sparsity, layer.kernel};
    OpGeom g = resolveOpGeom(config, layer, batch, op, sparsity, dw);
    JobGrid jg = resolveJobGrid(config, g);
    const TileConfig &tile = config.tile;

    double mean_rows = (double)g.b.count / (double)jg.jobs_b;
    double mean_cols = (double)g.a_count / (double)jg.jobs_a;
    double sampled = (double)jg.sampled_jobs;
    double steps = (double)jg.steps;
    double lanes = (double)tile.lanes;

    // Stream building touches every slot of every sampled row/column.
    double gather = sampled * steps * lanes * (mean_rows + mean_cols);

    // The tile walks ~efficiency * steps cycles per job, scheduling
    // each scheduled row each cycle.
    double fill = (double)g.reduction / (steps * lanes);
    double d_slot = g.b.dens * g.b.struct_mean * fill;
    double eff = tile.interconnect == InterconnectKind::DenseOnly
        ? 1.0
        : effCurve(d_slot, 1.0 / (double)tile.depth,
                   curveParams(tile.interconnect));
    double schedule = 2.2 * sampled * steps * eff * mean_rows * lanes;
    return gather + schedule;
}

} // namespace tensordash
