/**
 * @file
 * Google-benchmark microbenchmark of Dataflow lowering: the gathers
 * that turn one layer's tensors into the operand masks of its sampled
 * tile jobs.  Each case lowers a synthesized zoo layer at fig13's
 * config (4x4 tile, 16 lanes, 600k sampled-MAC cap, mask mode) and
 * reports `per_slot`, the time per gathered operand slot (rows x lanes
 * of every stream built), in ns.  Mask mode gathers only the
 * scheduled B side (the A side is one empty placeholder per column),
 * so the slots are B-side slots.
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "models/model_zoo.hh"
#include "sim/dataflow.hh"

using namespace tensordash;

namespace {

/** fig13's lowering: Table 2 tile, 600k cap, masks only. */
DataflowConfig
fig13Config()
{
    DataflowConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.lanes = 16;
    cfg.max_sampled_macs = 600000;
    cfg.seed = 7;
    return cfg;
}

/** Tensors of one zoo layer at mid-training. */
struct ZooLayer
{
    LayerSpec spec;
    LayerTensors tensors;
};

ZooLayer
synthesizeLayer(const char *model_name, const char *layer_name)
{
    ModelProfile model = ModelZoo::byName(model_name);
    for (const LayerSpec &layer : model.layers) {
        if (layer.name == layer_name) {
            Rng rng(51);
            return {layer, ModelZoo::synthesize(model, layer, 0.5, rng)};
        }
    }
    TD_FATAL("no layer '%s' in %s", layer_name, model_name);
    return {};
}

/** A mid-network 3x3 conv and an LSTM gate matmul. */
const ZooLayer &
zooLayer(bool fc)
{
    static const ZooLayer conv = synthesizeLayer("ResNet50", "s1.3x3");
    static const ZooLayer matmul =
        synthesizeLayer("img2txt", "lstm.gates_x");
    return fc ? matmul : conv;
}

/** Lower @p op as the simulator does: an FC layer is a 1x1 conv. */
LoweredOp
lower(const Dataflow &df, const ZooLayer &layer, TrainOp op)
{
    const LayerTensors &t = layer.tensors;
    int k = layer.spec.kernel;
    switch (op) {
      case TrainOp::Forward:
        return df.lowerForward(t.acts, t.weights, t.spec);
      case TrainOp::BackwardData:
        return df.lowerBackwardData(t.grads, t.weights, t.acts.shape(),
                                    t.spec);
      case TrainOp::BackwardWeights:
        return df.lowerBackwardWeights(t.grads, t.acts, k, k, t.spec);
    }
    return {};
}

/** Operand slots gathered into @p lowered's streams (mask mode: the
 * B side alone). */
uint64_t
gatheredSlots(const LoweredOp &lowered)
{
    uint64_t slots = 0;
    for (const TileJob &job : lowered.jobs) {
        for (const BlockStream &s : job.b)
            slots += s.slots();
        for (const BlockStream &s : job.a)
            slots += s.slots();
    }
    return slots;
}

void
BM_Lower(benchmark::State &state)
{
    const ZooLayer &layer = zooLayer(state.range(0) != 0);
    auto op = (TrainOp)state.range(1);
    Dataflow df(fig13Config());
    uint64_t slots = gatheredSlots(lower(df, layer, op));
    for (auto _ : state)
        benchmark::DoNotOptimize(lower(df, layer, op));
    state.SetLabel(trainOpName(op));
    state.SetItemsProcessed(state.iterations() * (int64_t)slots);
    // Inverted rate: seconds per slot, printed with an SI prefix (ns).
    state.counters["per_slot"] = benchmark::Counter(
        (double)slots * (double)state.iterations(),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Lower)
    ->ArgNames({"fc", "op"})
    ->Args({0, (int)TrainOp::Forward})
    ->Args({0, (int)TrainOp::BackwardData})
    ->Args({0, (int)TrainOp::BackwardWeights})
    ->Args({1, (int)TrainOp::Forward})
    ->Args({1, (int)TrainOp::BackwardData})
    ->Args({1, (int)TrainOp::BackwardWeights});

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_lower_micro");
}

#endif // TENSORDASH_HAVE_BENCHMARK
