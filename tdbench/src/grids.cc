#include "grids.hh"

#include <cmath>

#include "common.hh"

namespace tdbench {

using namespace tensordash;

namespace {

RunConfig
baseConfig(uint64_t seed, uint64_t sampled_macs, MemoryModel memory)
{
    RunConfig cfg;
    cfg.seed = seed;
    cfg.accel.max_sampled_macs = sampled_macs;
    cfg.accel.memory_model = memory;
    return cfg;
}

} // namespace

Grid
fig13Grid(uint64_t seed)
{
    Grid g{"fig13", baseConfig(seed, 600000, MemoryModel::Analytic), {}};
    g.spec.models = ModelZoo::paperModels();
    return g;
}

Grid
fig17Grid(uint64_t seed)
{
    Grid g{"fig17", baseConfig(seed, 250000, MemoryModel::Analytic), {}};
    g.spec.models = ModelZoo::paperModels();
    g.spec.axes = {axis("rows", {1, 2, 4, 8, 16},
                        [](RunConfig &c, int rows) {
                            c.accel.tile.rows = rows;
                        })};
    return g;
}

Grid
fig22Grid(uint64_t seed, const std::vector<int> &tiles)
{
    Grid g{"fig22", baseConfig(seed, 250000, MemoryModel::Pipelined),
           {}};
    g.spec.models = ModelZoo::paperModels();
    g.spec.axes = {axis("tiles", tiles, [](RunConfig &c, int t) {
        c.accel.tiles = t;
    })};
    return g;
}

Grid
fig23Grid(uint64_t seed)
{
    Grid g = fig13Grid(seed);
    g.name = "fig23";
    for (ModelProfile &m : ModelZoo::recommenderModels())
        g.spec.models.push_back(std::move(m));
    g.spec.axes = {phaseAxis()};
    return g;
}

service::JobSpec
fig13Job(uint64_t seed)
{
    service::JobSpec job;
    for (const ModelProfile &m : ModelZoo::paperModels())
        job.models.push_back(m.name);
    job.seed = seed;
    job.max_sampled_macs = 600000;
    return job;
}

service::JobSpec
fig13EstimateJob(uint64_t seed, double progress)
{
    service::JobSpec job = fig13Job(seed);
    job.fidelity = (uint8_t)Fidelity::Estimate;
    job.progress = progress;
    return job;
}

service::JobSpec
fig23Job(uint64_t seed)
{
    service::JobSpec job = fig13Job(seed);
    for (const ModelProfile &m : ModelZoo::recommenderModels())
        job.models.push_back(m.name);
    job.axes.push_back({service::AxisKind::Phase, {0, 1}});
    return job;
}

std::string
renderFig13Csv(const SweepResult &sweep)
{
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    Table t;
    std::vector<std::string> header{"model"};
    for (TrainOp op : ops)
        header.push_back(trainOpName(op));
    header.push_back("Total");
    t.header(header);
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m);
        std::vector<std::string> row{sweep.models[m]};
        for (const OpResult &opr : r.ops)
            row.push_back(fmtSpeedup(opr.speedup()));
        row.push_back(fmtSpeedup(r.speedup()));
        t.row(row);
    }
    std::vector<std::string> blanks(ops.size(), "");
    std::vector<std::string> avg{"average"};
    avg.insert(avg.end(), blanks.begin(), blanks.end());
    avg.push_back(fmtSpeedup(sweep.meanSpeedup()));
    t.row(avg);
    std::vector<std::string> geo{"geomean"};
    geo.insert(geo.end(), blanks.begin(), blanks.end());
    geo.push_back(fmtSpeedup(sweep.geomeanSpeedup()));
    t.row(geo);
    return t.csv();
}

std::string
renderFig22Csv(const SweepResult &sweep, const RunConfig &config)
{
    // Majority-stalled marks the compute -> memory crossover.
    constexpr double kStallThreshold = 0.5;
    const double bytes_per_cycle =
        DramModel(config.accel.dram).bytesPerCycle(config.accel.freq_ghz);
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    const size_t ncols = ops.size() + 1;
    auto meanStall = [&](size_t op, size_t v) {
        double sum = 0.0;
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            const ModelRunResult &r = sweep.at(m, 0, v);
            const OpResult &res = op < r.ops.size() ? r.ops[op] : r.total;
            sum += res.memoryStallFraction();
        }
        return sweep.modelCount() ? sum / (double)sweep.modelCount()
                                  : 0.0;
    };
    Table t;
    std::vector<std::string> header = {"tiles", "MACs/cyc", "B/cyc"};
    for (TrainOp op : ops)
        header.push_back(std::string(trainOpName(op)) + " stall");
    header.push_back("Total stall");
    header.push_back("speedup");
    t.header(header);
    std::vector<int> crossover(ncols, -1);
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        // Variant labels read "tiles=N".
        const int tiles = std::stoi(
            sweep.variants[v].substr(sweep.variants[v].find('=') + 1));
        std::vector<std::string> row = {fmtDouble(tiles, 0),
                                        fmtDouble(tiles * 256.0, 0),
                                        fmtDouble(bytes_per_cycle, 1)};
        for (size_t op = 0; op < ncols; ++op) {
            double stall = meanStall(op, v);
            row.push_back(fmtPercent(stall));
            if (crossover[op] < 0 && stall >= kStallThreshold)
                crossover[op] = tiles;
        }
        row.push_back(fmtSpeedup(sweep.meanSpeedup(0, v)));
        t.row(row);
    }
    std::vector<std::string> cross = {"crossover", "", ""};
    for (size_t op = 0; op < ncols; ++op)
        cross.push_back(crossover[op] < 0
                            ? std::string("none")
                            : fmtDouble(crossover[op], 0) + " tiles");
    cross.push_back("");
    t.row(cross);
    return t.csv();
}

std::vector<uint8_t>
resultBytes(const SweepResult &sweep)
{
    SweepResult copy = sweep;
    copy.cache_hits = 0;
    copy.simulated = 0;
    copy.estimated = 0;
    return copy.serialize();
}

std::vector<uint8_t>
modelBytes(const SweepResult &sweep, size_t v, size_t models)
{
    ByteWriter w;
    for (size_t m = 0; m < models; ++m) {
        const ModelRunResult &r = sweep.at(m, 0, v);
        for (const OpResult &op : r.ops)
            op.serialize(w);
        r.total.serialize(w);
    }
    return w.data();
}

double
fig13PaperErrPct(const SweepResult &fig13)
{
    return std::fabs(fig13.meanSpeedup() - 1.95) / 1.95 * 100.0;
}

double
fig17PaperErrPct(const SweepResult &fig17)
{
    const size_t last = fig17.variantCount() - 1;
    double e1 = std::fabs(fig17.meanSpeedup(0, 0) - 2.1) / 2.1;
    double e16 = std::fabs(fig17.meanSpeedup(0, last) - 1.72) / 1.72;
    return 50.0 * (e1 + e16);
}

std::string
checkGolden(const std::string &golden_path, const std::string &csv)
{
    std::string golden;
    if (!readText(golden_path, &golden))
        return "cannot read golden '" + golden_path + "'";
    std::string why;
    if (!sameText(golden, csv, &why))
        return "differs from '" + golden_path + "': " + why;
    return "";
}

} // namespace tdbench
