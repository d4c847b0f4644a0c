#include "core/synth_cache.hh"

#include "common/logging.hh"
#include "core/runner.hh"

namespace tensordash {

namespace {

/** Key-namespace tag ("syn1" little-endian): a SynthKey can never be
 * mistaken for a TaskKey built over the same fields. */
constexpr uint64_t kSynthKeyTag = 0x316e7973;

uint64_t
tensorsBytes(const LayerTensors &t)
{
    return (uint64_t)(t.acts.size() + t.weights.size() +
                      t.grads.size()) *
           sizeof(float);
}

} // namespace

SynthKey
SynthKey::forCell(const RunConfig &config, const ModelProfile &model,
                  size_t layer, double progress,
                  uint64_t synthesis_salt)
{
    TD_ASSERT(layer < model.layers.size(),
              "layer %zu out of range for model '%s' (%zu layers)",
              layer, model.name.c_str(), model.layers.size());
    FnvHasher h;
    h.u64(kSynthKeyTag);
    h.u64(config.seed);
    h.f64(progress);
    // The layer's Rng stream is fork number `layer` of the serially
    // seeded parent, a function of (seed, layer index) alone.
    h.u64(layer);
    // The *effective* batch shapes the acts/grads tensors.
    h.i64(config.batch_override > 0 ? config.batch_override
                                    : model.batch);
    model.sparsity.hashInto(h);
    model.layers[layer].hashInto(h);
    // The synthesize-hook contract, exactly as TaskKey fingerprints
    // it: the salt is the hook's content id, and a custom hook may
    // legitimately seed off the model's name.
    h.u64(synthesis_salt);
    if (synthesis_salt != 0)
        h.str(model.name);
    return SynthKey{h.value()};
}

SynthCache &
SynthCache::shared()
{
    static SynthCache cache;
    return cache;
}

std::shared_ptr<const SynthTensors>
SynthCache::synthesize(const SynthFn &synthesize)
{
    auto entry = std::make_unique<SynthTensors>();
    entry->tensors = synthesize();
    const LayerTensors &t = entry->tensors;
    const LayerNonzeros nz =
        LayerNonzeros::count(t.acts, t.weights, t.grads);
    entry->nonzeros = nz;
    entry->act_sparsity = Tensor::sparsityOf(nz.acts, t.acts.size());
    entry->weight_sparsity =
        Tensor::sparsityOf(nz.weights, t.weights.size());
    entry->grad_sparsity = Tensor::sparsityOf(nz.grads, t.grads.size());
    entry->bytes = tensorsBytes(t);
    keys_.fetch_add(1, std::memory_order_relaxed);
    resident_.fetch_add(entry->bytes, std::memory_order_relaxed);
    return std::shared_ptr<const SynthTensors>(
        entry.release(), [this](const SynthTensors *t) {
            resident_.fetch_sub(t->bytes, std::memory_order_relaxed);
            delete t;
        });
}

void
SynthCache::countReuse()
{
    reuses_.fetch_add(1, std::memory_order_relaxed);
}

void
SynthCache::countArrayRun()
{
    array_runs_.fetch_add(1, std::memory_order_relaxed);
}

void
SynthCache::countArrayReuse()
{
    array_reuses_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
SynthCache::residentBytes() const
{
    return resident_.load(std::memory_order_relaxed);
}

SynthCounters
SynthCache::counters() const
{
    return {keys_.load(std::memory_order_relaxed),
            reuses_.load(std::memory_order_relaxed),
            array_runs_.load(std::memory_order_relaxed),
            array_reuses_.load(std::memory_order_relaxed)};
}

void
SynthCache::resetCounters()
{
    keys_.store(0, std::memory_order_relaxed);
    reuses_.store(0, std::memory_order_relaxed);
    array_runs_.store(0, std::memory_order_relaxed);
    array_reuses_.store(0, std::memory_order_relaxed);
}

} // namespace tensordash
