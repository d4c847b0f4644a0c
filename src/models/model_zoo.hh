#ifndef TENSORDASH_MODELS_MODEL_ZOO_HH_
#define TENSORDASH_MODELS_MODEL_ZOO_HH_

/**
 * @file
 * The paper's workload suite (section 4), reproduced as layer-shape
 * tables plus calibrated sparsity profiles.
 *
 * The original evaluation traces one randomly sampled batch per epoch
 * while training the real models on GPUs.  Offline we substitute:
 * layer shapes follow the public architectures (spatial dims scaled
 * down ~4x, representative layer subsets for the very deep models) and
 * per-tensor sparsity levels/temporal curves are calibrated to what the
 * paper reports (Figs. 1, 13, 14 and the section 4 text).  All
 * calibration constants live in model_zoo.cc next to the paper
 * statement they reproduce.  See DESIGN.md section 1.
 */

#include <string>
#include <vector>

#include "common/hashing.hh"
#include "common/rng.hh"
#include "sim/dataflow.hh"
#include "sparsity/temporal.hh"
#include "tensor/tensor.hh"

namespace tensordash {

/** One layer of a workload model. */
struct LayerSpec
{
    std::string name;
    bool fc = false;
    int in_c = 1;
    int in_hw = 1; ///< square spatial extent (1 for FC)
    int out_c = 1;
    int kernel = 1;
    int stride = 1;
    int pad = 0;

    /** Per-layer sparsity overrides; negative = use the model default. */
    double act_sparsity = -1.0;
    double grad_sparsity = -1.0;

    ConvSpec spec() const { return ConvSpec{stride, pad}; }
    int outHw() const { return spec().outDim(in_hw, kernel); }

    /** Dense MACs per training sample for one of the three ops. */
    uint64_t macsPerSample() const;

    /**
     * Panic (TD_ASSERT) on a structurally impossible layer: a
     * non-positive channel count, spatial extent, kernel or stride, a
     * negative pad, or output geometry that collapses below 1x1.
     * @p model_name labels the diagnostic.
     */
    void validate(const std::string &model_name) const;

    /**
     * Mix every result-affecting field into a task fingerprint.  The
     * name is deliberately excluded: two identically-shaped layers are
     * the same simulation whatever they are called.
     */
    void
    hashInto(FnvHasher &h) const
    {
        h.b(fc);
        h.i64(in_c);
        h.i64(in_hw);
        h.i64(out_c);
        h.i64(kernel);
        h.i64(stride);
        h.i64(pad);
        h.f64(act_sparsity);
        h.f64(grad_sparsity);
    }
};

/** Model-level sparsity calibration. */
struct SparsityProfile
{
    double act = 0.5;    ///< activation zero fraction at mid-training
    double grad = 0.5;   ///< output-gradient zero fraction
    double weight = 0.0; ///< weight zero fraction (pruned models)
    double cluster_strength = 0.5;
    TemporalShape temporal = TemporalShape::DenseModel;

    /** Mix every result-affecting field into a task fingerprint. */
    void
    hashInto(FnvHasher &h) const
    {
        h.f64(act);
        h.f64(grad);
        h.f64(weight);
        h.f64(cluster_strength);
        h.i64((int)temporal);
    }
};

/** One workload model. */
struct ModelProfile
{
    std::string name;
    std::string description;
    std::vector<LayerSpec> layers;
    SparsityProfile sparsity;
    int batch = 2;

    /** Scheduled-side override for GW = GO (*) A (DenseNet forces
     * Gradients: its BN layers absorb the gradient sparsity). */
    WgSide wg_side = WgSide::Auto;

    /** Total dense MACs per op across all layers and the batch. */
    uint64_t totalMacs() const;

    /** Panic on a structurally invalid profile: no layers, a
     * non-positive batch, or any invalid layer (LayerSpec::validate).
     * Every grid entry point and synthesize call validates, so a typo
     * in a hand-built profile fails with the model and layer named
     * instead of corrupting lowering arithmetic downstream. */
    void validate() const;
};

/** Tensors synthesised for one layer at a training point. */
struct LayerTensors
{
    Tensor acts;    ///< A  (batch, C, H, W)
    Tensor weights; ///< W  (F, C, K, K)
    Tensor grads;   ///< GO (batch, F, Oh, Ow)
    ConvSpec spec;
};

/**
 * Expected per-tensor sparsity of one synthesised cell: what
 * ModelZoo::synthesize targets for (model, layer, progress), before
 * any random realisation.
 */
struct CellSparsity
{
    double act = 0.0;    ///< activation zero fraction
    double grad = 0.0;   ///< output-gradient zero fraction
    double weight = 0.0; ///< weight zero fraction (0 = dense weights)
    double cluster_strength = 0.5;

    /** True when the weights carry clustered pruning structure
     * (per-filter keep rates); dense-model weights have none. */
    bool clustered_weights = false;
};

/**
 * The sparsity targets of @p layer of @p model at @p progress: the
 * temporal scaling, per-layer overrides, clamping and pruned-model
 * weight schedule.  ModelZoo::synthesize realises exactly these, and
 * the estimator reads them without synthesising.
 */
CellSparsity effectiveCellSparsity(const ModelProfile &model,
                                   const LayerSpec &layer,
                                   double progress);

/** effectiveCellSparsity() of layer index @p layer of @p model. */
CellSparsity effectiveCellSparsity(const ModelProfile &model,
                                   size_t layer, double progress);

/** The paper's model suite. */
class ModelZoo
{
  public:
    /** All evaluation models (Fig. 13 order) -- excludes GCN. */
    static std::vector<ModelProfile> paperModels();

    /**
     * FC/embedding-heavy recommendation models (wide-and-deep and
     * neural collaborative filtering style MLP towers).  Not part of
     * the paper suite — they extend the inference sweeps with the
     * serving-dominated workload class whose layers are pure matmuls.
     */
    static std::vector<ModelProfile> recommenderModels();

    /** The no-sparsity control model of section 4.4. */
    static ModelProfile gcn();

    /** Look up any model (paper suite + gcn) by name. */
    static ModelProfile byName(const std::string &name);

    /** Names in Fig. 13 order. */
    static std::vector<std::string> paperModelNames();

    /**
     * Synthesise one layer's tensors at a point in training.
     *
     * @param model    profile supplying the sparsity calibration
     * @param layer    which layer
     * @param progress training progress in [0, 1] (0.5 = calibration
     *                 reference point)
     * @param rng      the layer's stream; exactly one draw
     *                 (Rng::key()) keys a CounterRng from which every
     *                 element is a pure function of (key, tensor,
     *                 element)
     */
    static LayerTensors synthesize(const ModelProfile &model,
                                   const LayerSpec &layer,
                                   double progress, Rng &rng);
};

} // namespace tensordash

#endif // TENSORDASH_MODELS_MODEL_ZOO_HH_
