#ifndef TDBENCH_GRIDS_HH_
#define TDBENCH_GRIDS_HH_

/**
 * @file
 * The sweep grids the workloads run, their renderings, and the output
 * checks built on them.
 *
 *  - fig13: the paper suite at the Table 2 config, Analytic memory,
 *    a 600k sampling cap (261 training cells).
 *  - fig17: PE rows {1, 2, 4, 8, 16}, Analytic, 250k cap.
 *  - fig22: tiles {1, 2, 4, 8, 16, 32}, Pipelined, 250k cap.
 *  - fig23-shaped: the paper suite plus the recommenders under the
 *    phase axis (training, inference) at the fig13 config.
 *
 * Renderings reproduce the figure benches' tables byte for byte, so
 * the committed goldens check them.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensordash.hh"
#include "service/job_spec.hh"

namespace tdbench {

using tensordash::RunConfig;
using tensordash::SweepResult;
using tensordash::SweepSpec;

/** One sweep of a workload: its name, base config and spec. */
struct Grid
{
    std::string name;
    RunConfig config;
    SweepSpec spec;
};

Grid fig13Grid(uint64_t seed);
Grid fig17Grid(uint64_t seed);
Grid fig22Grid(uint64_t seed, const std::vector<int> &tiles =
                                  {1, 2, 4, 8, 16, 32});
Grid fig23Grid(uint64_t seed);

/** Daemon jobs: fig13 (exact or, with @p progress set, estimate tier
 * at that single training point) and the fig23-shaped phase sweep. */
tensordash::service::JobSpec fig13Job(uint64_t seed);
tensordash::service::JobSpec fig13EstimateJob(uint64_t seed,
                                              double progress);
tensordash::service::JobSpec fig23Job(uint64_t seed);

/** CSV of the fig13 table (bench/fig13_speedup, td-sweep). */
std::string renderFig13Csv(const SweepResult &sweep);

/** CSV of the fig22 table (bench/fig22_memory_roofline). */
std::string renderFig22Csv(const SweepResult &sweep,
                           const RunConfig &config);

/** Serialized sweep with the work counters zeroed: results only, not
 * which path produced them. */
std::vector<uint8_t> resultBytes(const SweepResult &sweep);

/** Serialized model-level results (per-op and total OpResults) of
 * @p models models of variant @p v. */
std::vector<uint8_t> modelBytes(const SweepResult &sweep, size_t v,
                                size_t models);

/** Percent error of the fig13 mean speedup against the paper's 1.95x. */
double fig13PaperErrPct(const SweepResult &fig13);

/** Mean percent error of fig17 against the paper's 2.1x at one row and
 * 1.72x at sixteen. */
double fig17PaperErrPct(const SweepResult &fig17);

/**
 * Check a rendered CSV against the committed golden @p golden_path.
 * @return "" when identical, else the reason.
 */
std::string checkGolden(const std::string &golden_path,
                        const std::string &csv);

} // namespace tdbench

#endif // TDBENCH_GRIDS_HH_
