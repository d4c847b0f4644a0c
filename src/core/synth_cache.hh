#ifndef TENSORDASH_CORE_SYNTH_CACHE_HH_
#define TENSORDASH_CORE_SYNTH_CACHE_HH_

/**
 * @file
 * Content-addressed identity and accounting of synthesized layer
 * tensors.
 *
 * Tensor synthesis (clustered Beta maps, magnitude/clustered pruning)
 * is the dominant non-simulation cost of a cold sweep, and it is a
 * pure function of far fewer inputs than a simulation result: the
 * synthesis seed, the layer's fork index and shape, the effective
 * batch, the training progress, the model's sparsity calibration and
 * the synthesize-hook contract.  Accelerator geometry, the memory
 * model, the fidelity tier and the workload phase cannot change a
 * synthesized tensor, so a design-space sweep with N geometry variants
 * would re-synthesize every (model, progress, layer) cell N times for
 * nothing.  A SynthKey content-addresses synthesis the same way a
 * TaskKey content-addresses results.
 *
 * Sharing is by construction, not by lookup: the runner groups a
 * sweep's layer slots by SynthKey and runs each group as one task,
 * which synthesizes on its first exact miss and serves every later
 * slot of the group (geometry variants, both workload phases) from
 * the same tensors.  The tensors live exactly as long as that task,
 * so a returned, cancelled or thrown sweep holds nothing, and separate
 * sweeps synthesize their own tensors.
 *
 * The same task shares the array work too: slots whose configs differ
 * only in what Accelerator::finishOp() reads (a tile-count or
 * memory-model axis) lower and tile-run each op once and finish it per
 * variant.
 *
 * SynthCache is the process-wide account of that sharing: the
 * counters and resident bytes benches and the repo benchmark read.
 * It stores no tensors.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "models/model_zoo.hh"
#include "sim/accelerator.hh"

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
 * One synthesized layer: the tensors plus their nonzero counts and the
 * three sparsities derived from them, so power-gating observation,
 * write-back sparsity estimation and every op's array run (its
 * off-chip traffic and Auto side choice) never rescan a shared
 * tensor.  Immutable after synthesis.
 */
struct SynthTensors
{
    LayerTensors tensors;
    LayerNonzeros nonzeros;
    double act_sparsity = 0.0;
    double weight_sparsity = 0.0;
    double grad_sparsity = 0.0;

    /** Tensor bytes, counted in SynthCache::residentBytes(). */
    uint64_t bytes = 0;
};

/**
 * Effectiveness counters of one SynthCache.  A cold N-variant
 * geometry sweep shows reuses == (N - 1) * keys — one synthesis per
 * unique key, served to every variant's slot.  Its simulated op cells
 * split into array_runs + array_reuses: a cold N-point tile-count
 * sweep shows array_reuses == (N - 1) * array_runs.
 */
struct SynthCounters
{
    uint64_t keys = 0;   ///< synthesize calls
    uint64_t reuses = 0; ///< further slots served by a task's one synthesis
    uint64_t array_runs = 0;   ///< op cells lowered and tile-run
    uint64_t array_reuses = 0; ///< op cells finished from an earlier run
};

/**
 * Process-wide accounting of synthesized layers: every synthesis goes
 * through synthesize(), every slot served by an earlier synthesis of
 * its task is counted by countReuse(), every simulated op cell by
 * countArrayRun() or countArrayReuse(), and the bytes of tensors
 * still held are resident until their holder drops them.
 */
class SynthCache
{
  public:
    /** The process-wide instance every exact run accounts to. */
    static SynthCache &shared();

    /** Produces one layer's tensors. */
    using SynthFn = std::function<LayerTensors()>;

    /**
     * Synthesize one layer via @p synthesize and count its nonzeros
     * once.  Counts one key; the tensor bytes stay resident
     * until the last copy of the returned pointer is dropped, so this
     * cache must outlive it.
     */
    std::shared_ptr<const SynthTensors>
    synthesize(const SynthFn &synthesize);

    /** Count one more slot served by an earlier synthesis. */
    void countReuse();

    /** Count one op cell that lowered and tile-ran its op. */
    void countArrayRun();

    /** Count one op cell finished from its task's earlier array run. */
    void countArrayReuse();

    /** Bytes of synthesized tensors still held: 0 between sweeps. */
    uint64_t residentBytes() const;

    /** Snapshot of the lifetime synthesis and array counters. */
    SynthCounters counters() const;

    /** Zero the counters (benches isolating one sweep's traffic). */
    void resetCounters();

    /** No-op: tensors live with the task that synthesized them, so
     * the cache holds nothing to drop.  Kept for callers that reset it
     * between sweeps. */
    void clear() {}

  private:
    std::atomic<uint64_t> keys_{0};
    std::atomic<uint64_t> reuses_{0};
    std::atomic<uint64_t> array_runs_{0};
    std::atomic<uint64_t> array_reuses_{0};
    std::atomic<uint64_t> resident_{0};
};

} // namespace tensordash

#endif // TENSORDASH_CORE_SYNTH_CACHE_HH_
