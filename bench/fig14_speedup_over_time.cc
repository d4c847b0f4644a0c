/**
 * @file
 * Fig. 14: speedup of TensorDash as training progresses (0% to 100%
 * of the epochs), per model.
 *
 * The whole figure is one runMany() batch: every (model, progress,
 * layer, op) cell becomes a task of one claim loop.  All points use
 * the same synthesis seed so columns differ only in training progress.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv,
                                           /*sharding=*/true);
    bench::banner("Fig. 14", "speedup as training progresses");
    const std::vector<double> points = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9, 1.0};

    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.max_sampled_macs = bench::sampleBudget(200000, 60000);
    ModelRunner runner(cfg);
    const auto models = ModelZoo::paperModels();

    bench::sweepFigure(opts, runner, models, points,
                       [&](const SweepResult &sweep) {
        Table t;
        std::vector<std::string> header = {"model"};
        for (double p : points)
            header.push_back(fmtPercent(p, 0));
        t.header(header);
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            std::vector<std::string> row = {sweep.models[m]};
            for (size_t p = 0; p < sweep.pointCount(); ++p)
                row.push_back(fmtDouble(sweep.at(m, p).speedup(), 2));
            t.row(row);
        }
        return t;
    });
    bench::reference(
        "speedups fairly stable throughout training; dense models "
        "trace an overturned U (low at random init, peak by ~10%, "
        "gradual decline in the second half); resnet50_SM90 starts "
        "~1.75x and settles ~1.5x, resnet50_DS90 starts ~1.95x and "
        "settles ~1.8x");
    return 0;
}
