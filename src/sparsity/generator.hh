#ifndef TENSORDASH_SPARSITY_GENERATOR_HH_
#define TENSORDASH_SPARSITY_GENERATOR_HH_

/**
 * @file
 * Synthetic sparsity generators.
 *
 * The paper observes (section 4.4) that nonzero activations and
 * gradients cluster in specific 2-D feature maps: a sample that has
 * feature X produces a dense map for X's filter and near-empty maps for
 * absent features, especially in deep layers.  The clustered generator
 * reproduces this: each (sample, channel) map draws its own density
 * from a Beta distribution whose concentration sets how bimodal the
 * per-map densities are, then elements are kept i.i.d. at that density.
 * The Bernoulli generator is the unclustered control (paper Fig. 20
 * uses it for the random-sparsity sweep).
 *
 * The clustered generators draw from a CounterRng: a map's density, a
 * filter's or channel's keep ratio and an element's fate are each a
 * pure function of (key, index).  Their Rng& forms take that key as
 * one raw draw (Rng::key()).
 */

#include "common/counter_rng.hh"
#include "common/rng.hh"
#include "tensor/tensor.hh"

namespace tensordash {

/** Zero out elements i.i.d. so the tensor hits @p sparsity. */
void applyBernoulliSparsity(Tensor &tensor, double sparsity, Rng &rng);

/** Parameters for the clustered generator. */
struct ClusterParams
{
    /** Target zero fraction in [0, 1]. */
    double sparsity = 0.5;

    /**
     * Clustering strength in [0, 1]: 0 behaves like Bernoulli, 1 makes
     * per-map densities strongly bimodal (maps are mostly-dense or
     * mostly-empty).
     */
    double strength = 0.5;
};

/**
 * Zero out elements with per-(sample, channel) map densities drawn from
 * Beta(mean * k, (1 - mean) * k), where the concentration k shrinks as
 * the clustering strength grows.  An element survives when its uniform
 * draw falls below its map's density; survivors keep their values.
 */
void applyClusteredSparsity(Tensor &tensor, const ClusterParams &params,
                            CounterRng gen);

/** applyClusteredSparsity keyed by one draw from @p rng. */
void applyClusteredSparsity(Tensor &tensor, const ClusterParams &params,
                            Rng &rng);

/**
 * Magnitude-prune a weight tensor to @p sparsity: the smallest-|w|
 * fraction becomes zero (what training-time pruning converges to).
 */
void applyMagnitudePruning(Tensor &weights, double sparsity);

/**
 * Training-time pruning with per-filter structure: each filter draws
 * its own keep ratio from a Beta distribution (mean = 1 - sparsity)
 * and is magnitude-pruned to it.  Methods like sparse momentum
 * redistribute surviving weights toward important filters, which is
 * what creates the inter-row work imbalance the paper observes for the
 * pruned ResNets; @p strength controls how uneven the redistribution
 * is.  Within a (filter, channel) slice the smallest-|w| elements go,
 * so i.i.d. magnitudes (or uniform ranks) give a uniformly random
 * pruned set of the slice's target size.
 */
void applyClusteredPruning(Tensor &weights, double sparsity,
                           double strength, CounterRng gen);

/** applyClusteredPruning keyed by one draw from @p rng. */
void applyClusteredPruning(Tensor &weights, double sparsity,
                           double strength, Rng &rng);

/** Per-(sample, channel) map densities, for clustering diagnostics. */
std::vector<double> perMapDensities(const Tensor &tensor);

/**
 * Coefficient of variation of the per-map densities; ~0 for Bernoulli
 * masks, grows with clustering.
 */
double mapDensityCv(const Tensor &tensor);

} // namespace tensordash

#endif // TENSORDASH_SPARSITY_GENERATOR_HH_
