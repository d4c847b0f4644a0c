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

std::shared_ptr<SynthCache::Slot> &
SynthCache::slotLocked(const SynthKey &key)
{
    auto it = map_.find(key.value);
    TD_ASSERT(it != map_.end(),
              "synthesis key %016llx has no live slot: every reader "
              "retains it before acquiring or releasing",
              (unsigned long long)key.value);
    return it->second;
}

void
SynthCache::retain(const SynthKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Slot> &slot = map_[key.value];
    if (!slot)
        slot = std::make_shared<Slot>();
    ++slot->uses;
}

std::shared_ptr<const SynthTensors>
SynthCache::acquire(const SynthKey &key, const SynthFn &synthesize)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        slot = slotLocked(key);
    }

    // First acquirer synthesizes under the key's own latch; everyone
    // else (including concurrent acquirers of this very key) waits
    // here without touching the global lock.  call_once orders the
    // value write before any waiter returns.
    bool synthesized = false;
    std::call_once(slot->once, [&] {
        auto entry = std::make_shared<SynthTensors>();
        entry->tensors = synthesize();
        entry->act_sparsity = entry->tensors.acts.sparsity();
        entry->weight_sparsity = entry->tensors.weights.sparsity();
        entry->grad_sparsity = entry->tensors.grads.sparsity();
        entry->bytes = tensorsBytes(entry->tensors);
        slot->value = std::move(entry);
        synthesized = true;
    });

    std::shared_ptr<const SynthTensors> value = slot->value;
    std::lock_guard<std::mutex> lock(mu_);
    if (synthesized) {
        // The acquirer still holds its use, so the slot is live.
        ++counters_.keys;
        slot->bytes = value->bytes;
        resident_ += slot->bytes;
    } else {
        ++counters_.reuses;
    }
    return value;
}

void
SynthCache::release(const SynthKey &key)
{
    // Declared before the lock so the tensors are freed after it
    // drops: unmapping them must not stall other readers.
    std::shared_ptr<Slot> last;
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Slot> &slot = slotLocked(key);
    if (--slot->uses > 0)
        return;
    resident_ -= slot->bytes;
    last = std::move(slot);
    map_.erase(key.value);
}

uint64_t
SynthCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return resident_;
}

size_t
SynthCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

SynthCounters
SynthCache::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

void
SynthCache::resetCounters()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = SynthCounters{};
}

void
SynthCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    resident_ = 0;
}

} // namespace tensordash
