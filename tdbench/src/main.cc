/**
 * @file
 * tdbench: the repo benchmark's measuring binary.
 *
 *   tdbench WORKLOAD --seed N --seconds S --trace 0|1 --work DIR
 *           --golden-dir DIR [--sweepd PATH] [--trace-out FILE]
 *   tdbench setup fig13|geometry --seed N
 *   tdbench rereads fig13|geometry --seed N --work DIR --golden-dir DIR
 *   tdbench selftest
 *
 * WORKLOAD is fig13, geometry or sweepd (see BENCHMARK.json and
 * tdbench/README.md).  With --trace 0 the run reports the end-to-end
 * metrics; with --trace 1 the per-layer table of a traced replay.  The
 * last line of stdout is the JSON verdict.  run.py builds this binary
 * and is the normal way to run it.  `setup` prints one set-up sample
 * (seconds from main entry until the workload's first sweep is
 * planned); `rereads` takes warm and estimate samples of the cold
 * sweeps a repetition left in DIR.  Untraced in-process runs start both
 * several times.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.hh"

using namespace tdbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: tdbench fig13|geometry|sweepd --seed N "
                 "--seconds S --trace 0|1 --work DIR --golden-dir DIR "
                 "[--sweepd PATH] [--trace-out FILE]\n"
                 "       tdbench setup fig13|geometry --seed N\n"
                 "       tdbench rereads fig13|geometry --seed N --work DIR "
                 "--golden-dir DIR\n"
                 "       tdbench selftest\n");
    return 2;
}

/** Knobs that silently change what a run measures. */
bool
refuseKnobs()
{
    bool set = false;
    for (const char *knob : {"TD_FAST", "TD_CACHE", "TD_THREADS",
                             "TD_FISSION", "TD_SYNTH_CACHE_BYTES"}) {
        if (std::getenv(knob)) {
            std::fprintf(stderr,
                         "tdbench: refusing to run with %s set (it "
                         "changes what is measured)\n",
                         knob);
            set = true;
        }
    }
    return set;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    o.t_main = Clock::now();
    if (argc < 2)
        return usage();
    o.workload = argv[1];
    if (o.workload == "selftest")
        return runSelfTests() ? 1 : 0;
    if (o.workload == "setup") {
        if (argc != 5 || std::strcmp(argv[3], "--seed") != 0 ||
            (std::strcmp(argv[2], "fig13") != 0 &&
             std::strcmp(argv[2], "geometry") != 0))
            return usage();
        o.workload = argv[2];
        o.seed = std::strtoull(argv[4], nullptr, 10);
        std::printf("%.9f\n", setupSeconds(o));
        return 0;
    }
    const bool rereads = o.workload == "rereads";
    if (rereads)
        o.workload = argc > 2 ? argv[2] : "";
    if (o.workload != "fig13" && o.workload != "geometry" &&
        (rereads || o.workload != "sweepd")) {
        std::fprintf(stderr, "tdbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return usage();
    }
    for (int i = rereads ? 3 : 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (arg == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--work")
            o.work_dir = v;
        else if (arg == "--golden-dir")
            o.golden_dir = v;
        else if (arg == "--sweepd")
            o.sweepd = v;
        else if (arg == "--trace-out")
            o.trace_out = v;
        else
            return usage();
    }
    if (o.work_dir.empty() || o.golden_dir.empty() ||
        (o.workload == "sweepd" && o.sweepd.empty()))
        return usage();
    if (refuseKnobs())
        return 2;
    o.threads = hardwareThreads();
    std::printf("[tdbench] workload=%s seed=%llu seconds=%g trace=%d "
                "threads=%d\n",
                o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
                (int)o.trace, o.threads);

    RunResult res;
    if (rereads) {
        runRereads(o, res);
        res.report.finish(res.outcome);
        return 0;
    }
    if (o.workload == "fig13")
        runFig13(o, res);
    else if (o.workload == "geometry")
        runGeometry(o, res);
    else
        runSweepd(o, res);
    res.outcome.record(runSelfTests() == 0, "benchmark self-tests");
    res.report.finish(res.outcome);
    return 0;
}
