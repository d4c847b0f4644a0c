/**
 * @file
 * Fig. 20: TensorDash speedup on synthetically generated random-sparse
 * tensors, 0% to 90% sparsity, for all three training convolutions.
 * Layer geometry follows a 3x3 DenseNet121 convolution; 10 random
 * samples per sparsity level (deviation across samples < 5%).
 *
 * Expressed as a declarative sweep: each sparsity level is one
 * synthetic single-spec model whose layers are the level's independent
 * samples — the engine merges a model's layers in serial order, which
 * is exactly the per-level sample merge — and a SweepSpec synthesis
 * hook reproduces the Bernoulli tensors with their historical
 * (level, sample) seeding.  The figure thereby inherits --cache-dir,
 * --shard/--merge and the claim loop's load balancing.
 */

#include <cmath>

#include "bench_util.hh"

using namespace tensordash;

namespace {

// The 3x3 convolution of DenseNet121's first dense block.
constexpr int kBatch = 2, kInC = 128, kHw = 14, kOutC = 32, kKernel = 3;
constexpr ConvSpec kConv{1, 1};

/** One sparsity level as a synthetic model: each layer is one
 * independent random sample of the same convolution. */
ModelProfile
levelModel(int pct, int samples)
{
    ModelProfile m;
    m.name = std::to_string(pct);
    m.description = "random Bernoulli sparsity, " + m.name + "%";
    m.batch = kBatch;
    m.sparsity.act = m.sparsity.grad = pct / 100.0;
    LayerSpec l;
    l.in_c = kInC;
    l.in_hw = kHw;
    l.out_c = kOutC;
    l.kernel = kKernel;
    l.stride = 1;
    l.pad = 1;
    l.act_sparsity = l.grad_sparsity = pct / 100.0;
    for (int s = 0; s < samples; ++s) {
        l.name = "sample" + std::to_string(s);
        m.layers.push_back(l);
    }
    return m;
}

/** Bernoulli-sparse tensors with the figure's historical seeding:
 * one Rng stream per (level, sample), weights dense. */
LayerTensors
synthesizeSample(const RunConfig &, const ModelProfile &model,
                 size_t sample, double)
{
    int pct = (int)std::lround(model.sparsity.act * 100.0);
    Rng rng((uint64_t)pct * 131 + (uint64_t)sample);
    LayerTensors t;
    t.acts = Tensor(kBatch, kInC, kHw, kHw);
    t.acts.fillNormal(rng);
    applyBernoulliSparsity(t.acts, pct / 100.0, rng);
    t.weights = Tensor(kOutC, kInC, kKernel, kKernel);
    t.weights.fillNormal(rng);
    t.grads = Tensor(kBatch, kOutC, kHw, kHw);
    t.grads.fillNormal(rng);
    applyBernoulliSparsity(t.grads, pct / 100.0, rng);
    t.spec = kConv;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv,
                                           /*sharding=*/true);
    bench::banner("Fig. 20", "speedup on randomly sparse tensors");
    const int samples = bench::fastMode() ? 3 : 10;
    const int levels = 10; // 0%, 10%, ..., 90%

    SweepSpec spec;
    for (int level = 0; level < levels; ++level)
        spec.models.push_back(levelModel(level * 10, samples));
    spec.synthesize = synthesizeSample;
    // Content id of synthesizeSample (the generator and its seeding
    // scheme); per-cell inputs are keyed via the model profile and
    // layer index as usual.
    FnvHasher salt;
    salt.str("fig20 bernoulli conv v1");
    spec.synthesis_salt = salt.value();
    // The historical figure wrote outputs back dense.
    spec.estimate_out_sparsity = false;

    RunConfig cfg; // default accelerator, pipelined memory model
    cfg.accel.max_sampled_macs = bench::sampleBudget(300000, 60000);
    cfg.threads = opts.threads;
    cfg.cache_dir = opts.cache_dir;
    ModelRunner runner(cfg);

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"Sparsity %", "AxW", "AxG", "WxG", "Total", "ideal"});
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            int pct = (int)m * 10;
            const ModelRunResult &r = sweep.at(m);
            double ideal =
                std::min(3.0, 1.0 / std::max(0.02, 1.0 - pct / 100.0));
            t.row({std::to_string(pct),
                   fmtDouble(r.ops[0].speedup(), 2),
                   fmtDouble(r.ops[1].speedup(), 2),
                   fmtDouble(r.ops[2].speedup(), 2),
                   fmtDouble(r.total.speedup(), 2),
                   fmtDouble(ideal, 2)});
        }
        return t;
    });
    bench::reference("performance closely follows input sparsity: "
                     "~1.1x at 10% (ideal 1.11x), 2.95x at 90% (the "
                     "3-deep staging buffer caps the ideal at 3x); "
                     "consistent across forward and backward ops");
    return 0;
}
