#include "sparsity/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tensordash {

void
applyBernoulliSparsity(Tensor &tensor, double sparsity, Rng &rng)
{
    TD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
              "sparsity %f out of range", sparsity);
    tensor.dropout(rng, (float)sparsity);
}

void
applyClusteredSparsity(Tensor &tensor, const ClusterParams &params,
                       CounterRng gen)
{
    TD_ASSERT(params.sparsity >= 0.0 && params.sparsity <= 1.0,
              "sparsity %f out of range", params.sparsity);
    TD_ASSERT(params.strength >= 0.0 && params.strength <= 1.0,
              "strength %f out of range", params.strength);
    double density = 1.0 - params.sparsity;
    if (density <= 0.0) {
        tensor.fill(0.0f);
        return;
    }
    if (density >= 1.0)
        return;

    // Concentration: 80 (nearly i.i.d.) down to 0.8 (strongly bimodal).
    double k = 80.0 * std::pow(0.01, params.strength);
    k = std::max(k, 0.8);
    const Shape &s = tensor.shape();
    // Map m's density comes from stream (maps, m) and element i's
    // uniform is draw i of the element stream, compared as 32-bit
    // fixed point: u < density  <=>  (draw >> 32) < density * 2^32.
    const CounterRng maps = gen.child(0);
    const CounterRng elems = gen.child(1);
    size_t per_map = (size_t)s.h * s.w;
    float *base = tensor.data();
    for (size_t m = 0; m < (size_t)s.n * s.c; ++m) {
        double map_density = maps.child(m).beta(density * k,
                                                (1.0 - density) * k);
        auto threshold = (uint64_t)(map_density * 0x1p32);
        float *p = base + m * per_map;
        uint64_t first = m * per_map;
        for (size_t i = 0; i < per_map; ++i)
            p[i] = (elems.at(first + i) >> 32) < threshold ? p[i] : 0.0f;
    }
}

void
applyClusteredSparsity(Tensor &tensor, const ClusterParams &params,
                       Rng &rng)
{
    applyClusteredSparsity(tensor, params, CounterRng(rng.key()));
}

void
applyMagnitudePruning(Tensor &weights, double sparsity)
{
    TD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
              "sparsity %f out of range", sparsity);
    size_t n = weights.size();
    auto prune_count = (size_t)((double)n * sparsity);
    if (prune_count == 0)
        return;
    // One scratch holds the magnitudes nth_element scrambles; the
    // selection passes recompute |w| on the fly instead of keeping a
    // second pristine copy — each pass reads an element before it can
    // zero it, so the recomputed magnitude is the original one.
    std::vector<float> scratch(n);
    for (size_t i = 0; i < n; ++i)
        scratch[i] = std::fabs(weights[i]);
    std::nth_element(scratch.begin(),
                     scratch.begin() + (prune_count - 1),
                     scratch.end());
    float threshold = scratch[prune_count - 1];
    size_t pruned = 0;
    // Prune strictly-below first, then values at the threshold until the
    // target count is reached (handles ties deterministically).
    for (size_t i = 0; i < n && pruned < prune_count; ++i) {
        if (std::fabs(weights[i]) < threshold) {
            weights[i] = 0.0f;
            ++pruned;
        }
    }
    for (size_t i = 0; i < n && pruned < prune_count; ++i) {
        if (weights[i] != 0.0f &&
            std::fabs(weights[i]) == threshold) {
            weights[i] = 0.0f;
            ++pruned;
        }
    }
}

void
applyClusteredPruning(Tensor &weights, double sparsity, double strength,
                      CounterRng gen)
{
    TD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
              "sparsity %f out of range", sparsity);
    const Shape &s = weights.shape();
    double keep_mean = 1.0 - sparsity;
    double k = 60.0 * std::pow(0.02, strength);
    k = std::max(k, 0.8);

    // Two-level structure: important filters keep more weights, and
    // within the tensor some input channels stay better connected than
    // others.  Both axes matter: filters drive row imbalance in the
    // forward mapping, channels in the backward-data mapping.  Channel
    // c's keep ratio comes from stream (chans, c), filter f's from
    // (filters, f).
    const CounterRng chans = gen.child(0);
    const CounterRng filters = gen.child(1);
    std::vector<double> chan_mult(s.c);
    double chan_mean = 0.0;
    for (int c = 0; c < s.c; ++c) {
        chan_mult[c] = 0.25 + chans.child(c).beta(keep_mean * k,
                                                  (1.0 - keep_mean) * k) /
                                  std::max(keep_mean, 1e-6);
        chan_mean += chan_mult[c];
    }
    chan_mean /= (double)s.c;
    for (double &m : chan_mult)
        m /= chan_mean;

    // One scratch reused across every slice (it only ever feeds
    // nth_element); the selection passes recompute |w| on the fly —
    // each pass reads an element before it can zero it, so the
    // recomputed magnitude is the original one.
    size_t per_slice = (size_t)s.h * s.w;
    std::vector<float> scratch(per_slice);
    auto pruneSlice = [&](float *base, size_t prune_count) {
        if (prune_count == 0)
            return;
        for (size_t i = 0; i < per_slice; ++i)
            scratch[i] = std::fabs(base[i]);
        std::nth_element(scratch.begin(),
                         scratch.begin() + (prune_count - 1),
                         scratch.end());
        float threshold = scratch[prune_count - 1];
        size_t pruned = 0;
        for (size_t i = 0; i < per_slice && pruned < prune_count; ++i) {
            if (std::fabs(base[i]) < threshold) {
                base[i] = 0.0f;
                ++pruned;
            }
        }
        for (size_t i = 0; i < per_slice && pruned < prune_count; ++i) {
            if (base[i] != 0.0f &&
                std::fabs(base[i]) == threshold) {
                base[i] = 0.0f;
                ++pruned;
            }
        }
    };

    for (int f = 0; f < s.n; ++f) {
        double keep_f = filters.child(f).beta(keep_mean * k,
                                              (1.0 - keep_mean) * k);
        // Never prune a filter completely; dead filters would be
        // removed by the training method itself.
        keep_f = std::clamp(keep_f, 0.02, 1.0);
        for (int c = 0; c < s.c; ++c) {
            double keep = std::clamp(keep_f * chan_mult[c], 0.0, 1.0);
            auto prune_count =
                (size_t)((double)per_slice * (1.0 - keep) + 0.5);
            prune_count = std::min(prune_count, per_slice);
            float *base = weights.data() +
                          ((size_t)f * s.c + c) * per_slice;
            pruneSlice(base, prune_count);
        }
    }
}

void
applyClusteredPruning(Tensor &weights, double sparsity, double strength,
                      Rng &rng)
{
    applyClusteredPruning(weights, sparsity, strength,
                          CounterRng(rng.key()));
}

std::vector<double>
perMapDensities(const Tensor &tensor)
{
    const Shape &s = tensor.shape();
    std::vector<double> densities;
    densities.reserve((size_t)s.n * s.c);
    // Raw walk per contiguous (n, c) slice; unrolled accumulators as
    // in Tensor::nonzeros.
    size_t per_map = (size_t)s.h * s.w;
    const float *base = tensor.data();
    for (size_t m = 0; m < (size_t)s.n * s.c; ++m) {
        const float *p = base + m * per_map;
        size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0, i = 0;
        for (; i + 4 <= per_map; i += 4) {
            c0 += p[i] != 0.0f;
            c1 += p[i + 1] != 0.0f;
            c2 += p[i + 2] != 0.0f;
            c3 += p[i + 3] != 0.0f;
        }
        for (; i < per_map; ++i)
            c0 += p[i] != 0.0f;
        densities.push_back((double)(c0 + c1 + c2 + c3) /
                            (double)per_map);
    }
    return densities;
}

double
mapDensityCv(const Tensor &tensor)
{
    std::vector<double> d = perMapDensities(tensor);
    double mean = 0.0;
    for (double v : d)
        mean += v;
    mean /= (double)d.size();
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double v : d)
        var += (v - mean) * (v - mean);
    var /= (double)d.size();
    return std::sqrt(var) / mean;
}

} // namespace tensordash
