#ifndef TENSORDASH_CORE_SYNTH_CACHE_HH_
#define TENSORDASH_CORE_SYNTH_CACHE_HH_

/**
 * @file
 * Content-addressed cache of synthesized layer tensors.
 *
 * Tensor synthesis (clustered Beta maps, magnitude/clustered pruning)
 * is the dominant non-simulation cost of a cold sweep, and it is a
 * pure function of far fewer inputs than a simulation result: the
 * synthesis seed, the layer's fork index and shape, the effective
 * batch, the training progress, the model's sparsity calibration and
 * the synthesize-hook contract.  Accelerator geometry, the memory
 * model, the fidelity tier and the workload phase cannot change a
 * synthesized tensor, so a design-space sweep with N geometry variants
 * re-synthesizes every (model, progress, layer) cell N times for
 * nothing.  The SynthCache content-addresses synthesis the same way
 * the ResultStore content-addresses results: the first task of a key
 * synthesizes once, every sibling variant reuses the ready tensors.
 *
 * Lifetime: sharing is per sweep.  Before its claim loop starts a
 * sweep retains one use of a key per exact task that may read it;
 * every such task releases its use once it is done (simulated, served
 * from the result cache, or skipped by cancellation), and the last
 * release frees the tensors.  A returned sweep therefore holds
 * nothing, and separate sweeps synthesize their own tensors.
 *
 * Concurrency: a per-key once-latch serialises the *first* synthesis
 * of each key (waiters block on that key alone, never on the global
 * map lock, so unrelated synthesis proceeds in parallel).  Entries are
 * immutable once published and handed out as shared_ptr-to-const, so
 * readers on any thread share one tensor allocation safely.  The same
 * forked per-layer Rng reproduces the same tensors, so sharing only
 * ever changes wall-clock, never output.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "models/model_zoo.hh"

namespace tensordash {

struct RunConfig;

/**
 * Content-addressed identity of one layer's synthesized tensors: an
 * FNV-1a fingerprint over exactly the synthesis-affecting inputs —
 * the synthesis seed, the training progress, the layer's serial fork
 * index and shape, the effective batch, the model's sparsity
 * calibration, and the sweep's synthesize-hook contract (salt, plus
 * the model name for custom hooks, which may seed off it).
 *
 * Deliberately absent: accelerator geometry, the memory model, the
 * fidelity tier, the workload phase and the write-back estimate
 * switch.  None of them can change a synthesized tensor, which is
 * exactly what lets N geometry variants share one synthesis.
 */
struct SynthKey
{
    uint64_t value = 0;

    /**
     * Key of layer @p layer of @p model at @p progress under
     * @p config.  Mirrors TaskKey::forOp's treatment of the effective
     * batch (a positive RunConfig::batch_override replaces the
     * model's) and of custom hooks (@p synthesis_salt is the hook's
     * content id; a non-zero salt also fingerprints the model name).
     *
     * Caching contract for hooks: a SweepSpec::synthesize hook must
     * depend only on the inputs this key covers — of its RunConfig
     * argument that is the seed and the batch override alone.  A hook
     * that read accelerator geometry would break content addressing
     * for synthesis exactly as reading sibling layers would break it
     * for results (see SweepSpec::synthesize).
     */
    static SynthKey forCell(const RunConfig &config,
                            const ModelProfile &model, size_t layer,
                            double progress,
                            uint64_t synthesis_salt = 0);

    bool operator==(const SynthKey &o) const { return value == o.value; }
};

/**
 * One ready cache entry: the synthesized tensors plus their three
 * measured sparsities, so power-gating observation and write-back
 * sparsity estimation never rescan a cached tensor.  Immutable after
 * publication.
 */
struct SynthTensors
{
    LayerTensors tensors;
    double act_sparsity = 0.0;
    double weight_sparsity = 0.0;
    double grad_sparsity = 0.0;

    /** Tensor bytes, counted in SynthCache::residentBytes(). */
    uint64_t bytes = 0;
};

/**
 * Effectiveness counters of one SynthCache: how many distinct keys
 * were synthesized and how many acquisitions were served from a ready
 * entry.  A cold N-variant geometry sweep shows
 * reuses == (N - 1) * keys — one synthesis per unique key.
 */
struct SynthCounters
{
    uint64_t keys = 0;   ///< synthesize executions (unique-key misses)
    uint64_t reuses = 0; ///< acquisitions served without synthesizing
};

/**
 * Process-wide store of synthesized layer tensors, each kept from its
 * first retain until its last reader releases it.
 */
class SynthCache
{
  public:
    SynthCache() = default;

    SynthCache(const SynthCache &) = delete;
    SynthCache &operator=(const SynthCache &) = delete;

    /** The process-wide cache every exact run uses. */
    static SynthCache &shared();

    /** Produces one layer's tensors (called once per live slot). */
    using SynthFn = std::function<LayerTensors()>;

    /** Register one future reader of @p key, creating its slot if no
     * reader holds one. */
    void retain(const SynthKey &key);

    /**
     * Fetch the entry for retained @p key, synthesizing it via
     * @p synthesize on first acquisition.  Concurrent acquirers of one
     * key block on the key's own latch until the first finishes (the
     * global lock is never held across synthesis); the returned entry
     * is immutable and stays valid while the caller holds the pointer,
     * even after the slot is released.
     */
    std::shared_ptr<const SynthTensors>
    acquire(const SynthKey &key, const SynthFn &synthesize);

    /** Drop one reader of @p key, whether or not it acquired; the last
     * release erases the slot and frees its tensors once no acquired
     * pointer remains. */
    void release(const SynthKey &key);

    /** Bytes of synthesized entries whose slot is still live. */
    uint64_t residentBytes() const;

    /** Live slots, retained or synthesized: 0 between sweeps unless a
     * reader leaked its use. */
    size_t entryCount() const;

    /** Snapshot of the lifetime synthesize/reuse counters. */
    SynthCounters counters() const;

    /** Zero the counters (benches isolating one sweep's traffic). */
    void resetCounters();

    /** Drop every slot (acquired pointers stay valid).  Only between
     * sweeps: a reader that still holds a use fails its release. */
    void clear();

  private:
    /** One key's slot: the once-latch plus the published entry.  The
     * latch lives outside the global lock so first-synthesis of
     * different keys runs in parallel. */
    struct Slot
    {
        std::once_flag once;
        /** Published by the latch winner before any waiter returns
         * (call_once orders the write); never read under mu_. */
        std::shared_ptr<const SynthTensors> value;
        /** Accounted bytes, guarded by mu_ (0 until synthesized). */
        uint64_t bytes = 0;
        /** Readers that have not released yet, guarded by mu_. */
        size_t uses = 0;
    };

    /** The live slot of @p key (mu_ held); panics when no reader
     * retained it. */
    std::shared_ptr<Slot> &slotLocked(const SynthKey &key);

    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_ptr<Slot>> map_;
    uint64_t resident_ = 0;
    SynthCounters counters_;
};

} // namespace tensordash

#endif // TENSORDASH_CORE_SYNTH_CACHE_HH_
