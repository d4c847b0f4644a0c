/**
 * @file
 * Google-benchmark microbenchmark of the closed-form estimator's two
 * per-cell entry points: OpEstimator::estimateSimCost, the claim-cost
 * key planSweep prices every cell of a grid with, and
 * OpEstimator::estimateOp, one estimate-tier cell.  Each case prices
 * one training op of a zoo layer at fig13's config (Table 2
 * accelerator, 600k sampled-MAC cap, Analytic memory model) and
 * mid-training sparsity: a dense VGG16 3x3 conv, whose weights need no
 * quadrature, and a 1x1 and a 3x3 conv of resnet50_SM90, whose
 * clustered-pruned weights cost one Beta quadrature per weight-reading
 * op.
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <string>

#include <benchmark/benchmark.h>

#include "sim/estimator.hh"

using namespace tensordash;

namespace {

/** One priced cell: a zoo layer, its model's batch and its config. */
struct Cell
{
    std::string name;
    LayerSpec layer;
    int batch = 1;
    AcceleratorConfig accel;
    CellSparsity sparsity;
};

Cell
cellOf(const char *model_name, const char *layer_name)
{
    ModelProfile model = ModelZoo::byName(model_name);
    for (const LayerSpec &layer : model.layers) {
        if (layer.name != layer_name)
            continue;
        Cell c;
        c.name = model.name + "/" + layer.name;
        c.layer = layer;
        c.batch = model.batch;
        // fig13: Table 2 accelerator, 600k cap, analytic memory.
        c.accel.max_sampled_macs = 600000;
        c.accel.memory_model = MemoryModel::Analytic;
        c.accel.wg_side = model.wg_side;
        c.sparsity = effectiveCellSparsity(model, layer, 0.5);
        return c;
    }
    TD_FATAL("no layer '%s' in %s", layer_name, model_name);
    return {};
}

/** A dense 3x3 conv, then a pruned 1x1 and a pruned 3x3 conv. */
const Cell &
zooCell(int64_t index)
{
    static const Cell cells[] = {
        cellOf("VGG16", "conv3_2"),
        cellOf("resnet50_SM90", "s3.1x1a"),
        cellOf("resnet50_SM90", "s3.3x3"),
    };
    return cells[index];
}

void
layerOpArgs(benchmark::internal::Benchmark *b)
{
    b->ArgNames({"layer", "op"});
    for (int layer = 0; layer < 3; ++layer)
        for (TrainOp op : phaseOps(WorkloadPhase::Training))
            b->Args({layer, (int)op});
}

void
BM_EstimateSimCost(benchmark::State &state)
{
    const Cell &c = zooCell(state.range(0));
    auto op = (TrainOp)state.range(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(OpEstimator::estimateSimCost(
            c.accel, c.layer, c.batch, op, c.sparsity));
    state.SetLabel(c.name + " " + trainOpName(op));
}
BENCHMARK(BM_EstimateSimCost)->Apply(layerOpArgs);

void
BM_EstimateOp(benchmark::State &state)
{
    const Cell &c = zooCell(state.range(0));
    auto op = (TrainOp)state.range(1);
    OpEstimator est(c.accel);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            est.estimateOp(c.layer, c.batch, op, c.sparsity));
    state.SetLabel(c.name + " " + trainOpName(op));
}
BENCHMARK(BM_EstimateOp)->Apply(layerOpArgs);

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_estimator_micro");
}

#endif // TENSORDASH_HAVE_BENCHMARK
