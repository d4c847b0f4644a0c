/**
 * @file
 * Fig. 23 (extension): training vs forward-only inference across the
 * model suite plus FC/embedding-heavy recommenders.
 *
 * Sweeps the workload phase as a config axis: the training variant
 * runs all three convolutions per layer, the inference variant only
 * AxW — the serving regime the arXiv extension (2009.00748) evaluates.
 * Both variants address the same per-op result cells, so within the
 * sweep every Forward cell simulates once, and with a cache directory
 * a prior fig13-style training run warms the inference variant
 * entirely (the [cache] line then shows hits > 0, or simulated=0 on a
 * rerun).
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv,
                                           /*sharding=*/true);
    bench::banner("Fig. 23",
                  "training vs forward-only inference speedup");

    SweepSpec spec;
    spec.models = ModelZoo::paperModels();
    for (ModelProfile &m : ModelZoo::recommenderModels())
        spec.models.push_back(std::move(m));
    spec.axes = {phaseAxis()};

    // The base config matches fig13, so the training variant's cells
    // are the same cells that figure simulates.
    ModelRunner runner(bench::defaultRunConfig(opts));

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        std::vector<std::string> header{"model"};
        for (size_t v = 0; v < sweep.variantCount(); ++v) {
            const char *tag = phaseName(sweep.variantPhase(v));
            for (TrainOp op : phaseOps(sweep.variantPhase(v)))
                header.push_back(std::string(tag) + " " +
                                 trainOpName(op));
            header.push_back(std::string(tag) + " total");
        }
        t.header(header);
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            std::vector<std::string> row{sweep.models[m]};
            for (size_t v = 0; v < sweep.variantCount(); ++v) {
                const ModelRunResult &r = sweep.at(m, 0, v);
                for (const OpResult &opr : r.ops)
                    row.push_back(fmtSpeedup(opr.speedup()));
                row.push_back(fmtSpeedup(r.speedup()));
            }
            t.row(row);
        }
        std::vector<std::string> geo{"geomean"};
        for (size_t v = 0; v < sweep.variantCount(); ++v) {
            for (size_t i = 0;
                 i < phaseOps(sweep.variantPhase(v)).size(); ++i)
                geo.push_back("");
            geo.push_back(fmtSpeedup(sweep.geomeanSpeedup(0, v)));
        }
        t.row(geo);
        return t;
    });

    bench::reference(
        "no paper figure: the arXiv extension (2009.00748) runs "
        "TensorDash forward-only; inference speedup equals the AxW "
        "column of Fig. 13 by construction (shared result cells), and "
        "the recommender MLPs run as 1x1 convolutions");
    return 0;
}
