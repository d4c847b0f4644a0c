/**
 * @file
 * Design-space exploration with the public API: sweep tile geometry,
 * staging depth and interconnect on one workload and report
 * speedup, area and compute-energy efficiency side by side -- the
 * kind of study section 4.4 performs.
 *
 * All configurations run as one sweep: their layers simulate as
 * parallel tasks of one claim loop, and each layer is synthesized
 * once for every configuration.  Results are identical at any thread
 * count.
 *
 *   ./build/examples/design_space [model] [threads]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/tensordash.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    std::string model = argc > 1 ? argv[1] : "VGG16";
    int threads = 0;
    if (argc > 2) {
        char *end = nullptr;
        long v = std::strtol(argv[2], &end, 10);
        if (end == argv[2] || *end != '\0' || v < 0 || v > 4096) {
            std::fprintf(stderr,
                         "bad THREADS '%s' (want an integer in "
                         "[0, 4096]; 0 = auto)\n", argv[2]);
            return 1;
        }
        threads = (int)v;
    }
    const int shown = threads > 0 ? threads : defaultThreadCount();
    std::printf("Design space exploration on %s (%d simulation "
                "thread%s)\n", model.c_str(), shown,
                shown == 1 ? "" : "s");
    std::printf("%-34s %7s %13s %9s\n", "configuration", "speedup",
                "compute area", "core eff");
    std::printf("%s\n", std::string(66, '-').c_str());

    RunConfig cfg;
    cfg.accel.max_sampled_macs = 200000;
    cfg.threads = threads;
    SweepSpec spec;
    spec.models = {ModelZoo::byName(model)};
    spec.axes = {axis(
        "configuration",
        std::vector<AxisOption>{
            {"default (4x4, 3-deep, paper mux)", [](RunConfig &) {}},
            {"2-deep staging (cheaper)",
             [](RunConfig &c) { c.accel.tile.depth = 2; }},
            {"1 row per tile (no imbalance)",
             [](RunConfig &c) { c.accel.tile.rows = 1; }},
            {"16 rows per tile",
             [](RunConfig &c) { c.accel.tile.rows = 16; }},
            {"lookahead-only interconnect",
             [](RunConfig &c) {
                 c.accel.tile.interconnect =
                     InterconnectKind::LookaheadOnly;
             }},
            {"idealised crossbar",
             [](RunConfig &c) {
                 c.accel.tile.interconnect = InterconnectKind::Crossbar;
             }},
            {"bfloat16 datapath",
             [](RunConfig &c) { c.accel.dtype = DataType::Bf16; }},
        })};
    SweepResult sweep = ModelRunner(cfg).runSweep(spec);
    for (size_t v = 0; v < spec.variantCount(); ++v) {
        const ModelRunResult &r = sweep.at(0, 0, v);
        AreaModel area(spec.variantConfig(cfg, v).accel.geometry());
        std::printf("%-34s %6.2fx %9.2f mm2 %8.2fx\n",
                    spec.axes[0].values[v].c_str(), r.speedup(),
                    area.tensorDashTotal().area_mm2, r.coreEfficiency());
    }

    std::printf("\nAreas come from the Table 3 synthesis constants "
                "scaled to each geometry.\n");
    return 0;
}
