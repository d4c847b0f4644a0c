/**
 * @file
 * Sections 3.6/3.7: memory compression with the scheduled (value, idx)
 * form and the backside scheduler, compared against CompressingDMA,
 * across the model suite's tensors.
 *
 * Rides the shared bench harness: per-model packings are independent,
 * so they run as parallel tasks (--threads) and the table
 * assembles in suite order; --reps/--csv behave like every other
 * figure.
 */

#include "bench_util.hh"
#include "sim/backside.hh"
#include "sim/prescheduler.hh"

using namespace tensordash;

namespace {

/** Pack a tensor's channel-blocked stream and report the ratios. */
std::vector<std::string>
reportModel(const ModelProfile &model)
{
    Rng rng(5);
    const LayerSpec &layer = model.layers[model.layers.size() / 2];
    LayerTensors tensors = ModelZoo::synthesize(model, layer, 0.5, rng);

    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    BacksideScheduler back(pattern);

    // Stream the activation tensor in 16-value channel blocks, one
    // dot-product-sized stream per (n, y, x) position group.
    const Tensor &acts = tensors.acts;
    const Shape &s = acts.shape();
    int chan_rows = (s.c + 15) / 16;
    uint64_t dense_bytes = 0, packed_bytes = 0, dma_bytes = 0;
    uint64_t backside_cycles = 0, blocks = 0;
    for (int n = 0; n < s.n; ++n) {
        for (int y = 0; y < s.h; ++y) {
            for (int x = 0; x < s.w; ++x) {
                BlockStream stream(16, true);
                for (int cr = 0; cr < chan_rows; ++cr) {
                    float row[16] = {};
                    for (int l = 0; l < 16; ++l) {
                        int c = cr * 16 + l;
                        if (c < s.c)
                            row[l] = acts.at(n, c, y, x);
                    }
                    stream.appendValueRow(row);
                }
                uint64_t cycles = 0;
                ScheduledStream packed = back.schedule(stream, &cycles);
                backside_cycles += cycles;
                blocks += packed.rows.size();
                dense_bytes += packed.denseBytes(4);
                packed_bytes += packed.packedBytes(4);
            }
        }
    }
    std::vector<float> flat(acts.data(), acts.data() + acts.size());
    dma_bytes = CompressingDma::compress(flat, 4).size();

    return {model.name, fmtPercent(acts.sparsity(), 1),
            fmtDouble((double)dense_bytes / packed_bytes, 2) + "x",
            fmtDouble((double)dense_bytes / dma_bytes, 2) + "x",
            fmtDouble((double)backside_cycles / blocks, 1)};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Scheduled-form compression (sections 3.6/3.7)",
                  "footprint vs CompressingDMA, backside timing");
    const auto models = ModelZoo::paperModels();

    bench::runFigure(opts, [&] {
        // Each model packs independently; rows land in suite order.
        std::vector<std::vector<std::string>> rows(models.size());
        parallelFor(
            models.size(),
            [&](size_t m) { rows[m] = reportModel(models[m]); },
            opts.threads);
        Table t;
        t.header({"model", "act sparsity", "scheduled-form",
                  "CompressingDMA", "backside cyc/row"});
        for (const auto &row : rows)
            t.row(row);
        return t;
    });
    bench::reference("storing tensors in scheduled form reduces "
                     "footprint and read accesses when sparsity is "
                     "sufficient; the iterative backside scheduler "
                     "needs levels() (= 6) cycles per packed row");
    return 0;
}
