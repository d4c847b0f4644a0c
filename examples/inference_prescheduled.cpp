/**
 * @file
 * Inference with pre-scheduled tensors (paper sections 3.6/3.7): store
 * a fully connected layer's weights in scheduled (value, idx) form,
 * compare the footprint against dense and CompressingDMA storage,
 * decompress through the Fig. 12 mux stage, and verify the layer
 * output is untouched.  Also demonstrates the iterative backside
 * scheduler packing the layer's outputs as they are produced.
 *
 *   ./build/examples/inference_prescheduled
 */

#include <cstdio>

#include "core/tensordash.hh"
#include "sim/backside.hh"
#include "sim/prescheduler.hh"

using namespace tensordash;

int
main()
{
    std::printf("Pre-scheduled inference (sections 3.6/3.7)\n");
    std::printf("------------------------------------------\n");

    // A pruned fully connected layer: 512 -> 256, 85% weight sparsity.
    Rng rng(3);
    Tensor weights(256, 512, 1, 1);
    weights.fillSmallInt(rng, 7);
    applyMagnitudePruning(weights, 0.85);
    Tensor acts(8, 512, 1, 1);
    acts.fillSmallInt(rng, 5);
    acts.dropout(rng, 0.45f);

    MuxPattern pattern(16, 3);
    PreScheduler scheduler(pattern);

    // Pack every filter's weight stream (32 rows of 16 channels).
    uint64_t dense_bytes = 0, packed_bytes = 0, dma_bytes = 0;
    std::vector<ScheduledStream> packed_filters;
    for (int f = 0; f < weights.shape().n; ++f) {
        BlockStream stream(16, true);
        for (int r = 0; r < 512 / 16; ++r) {
            float row[16];
            for (int l = 0; l < 16; ++l)
                row[l] = weights.at(f, r * 16 + l, 0, 0);
            stream.appendValueRow(row);
        }
        ScheduledStream packed = scheduler.schedule(stream);
        dense_bytes += packed.denseBytes(4);
        packed_bytes += packed.packedBytes(4);
        packed_filters.push_back(std::move(packed));
    }
    std::vector<float> flat(weights.data(),
                            weights.data() + weights.size());
    dma_bytes = CompressingDma::compress(flat, 4).size();

    std::printf("weight storage: dense %.1f KB, scheduled form %.1f KB "
                "(%.2fx), CompressingDMA %.1f KB (%.2fx)\n",
                dense_bytes / 1024.0, packed_bytes / 1024.0,
                (double)dense_bytes / packed_bytes, dma_bytes / 1024.0,
                (double)dense_bytes / dma_bytes);

    // Decompress through the mirror mux stage and rebuild the tensor.
    Tensor restored(weights.shape());
    for (int f = 0; f < weights.shape().n; ++f) {
        BlockStream stream = scheduler.decompress(packed_filters[f]);
        for (int r = 0; r < stream.rows(); ++r)
            for (int l = 0; l < 16; ++l)
                restored.at(f, r * 16 + l, 0, 0) = stream.value(r, l);
    }
    std::printf("decompression lossless: %s\n",
                restored.maxAbsDiff(weights) == 0.0f ? "yes" : "NO");

    // The layer output computed from restored weights is identical.
    Tensor out_dense = fcForward(acts, weights);
    Tensor out_restored = fcForward(acts, restored);
    std::printf("layer output unchanged: %s\n",
                out_dense.maxAbsDiff(out_restored) == 0.0f ? "yes"
                                                           : "NO");

    // Inference speedup with both-side sparsity on this layer.
    AcceleratorConfig cfg;
    cfg.tiles = 4;
    cfg.max_sampled_macs = 0;
    cfg.fwd_side = FwdSide::Auto; // weights are the sparser side
    Accelerator accel(cfg);
    Tensor no_grads(1, 1, 1, 1);
    // An FC layer runs as the stride-1, unpadded 1x1 convolution.
    OpResult r = accel.runConvOp(TrainOp::Forward, acts, weights,
                                 no_grads, ConvSpec{1, 0});
    std::printf("inference speedup on this layer: %.2fx (potential "
                "%.2fx)\n",
                r.speedup(), r.potentialSpeedup());

    // Backside scheduler: pack the outputs as the PEs produce them.
    BacksideScheduler backside(pattern);
    BlockStream out_stream(16, true);
    for (int n = 0; n < out_dense.shape().n; ++n) {
        for (int r = 0; r < out_dense.shape().c / 16; ++r) {
            float row[16];
            for (int l = 0; l < 16; ++l)
                row[l] = out_dense.at(n, r * 16 + l, 0, 0);
            out_stream.appendValueRow(row);
        }
    }
    uint64_t cycles = 0;
    ScheduledStream packed_out = backside.schedule(out_stream, &cycles);
    std::printf("backside scheduler: packed %d output rows into %zu "
                "(%.0f iterative cycles, %d cycles/row)\n",
                out_stream.rows(), packed_out.rows.size(),
                (double)cycles, backside.cyclesPerRow());
    return 0;
}
