/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths: the
 * hierarchical scheduler (per-lane selections, and the tile's
 * in-place consume), the PE cycle loop and the matching oracle.
 * These measure *simulator* throughput (schedules per second), which
 * bounds how much layer volume the benches can sample.
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "sim/pe.hh"
#include "sim/scheduler.hh"

using namespace tensordash;

namespace {

std::vector<std::array<uint32_t, 3>>
randomWindows(int count, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::array<uint32_t, 3>> windows(count);
    for (auto &w : windows)
        for (auto &m : w) {
            m = 0;
            for (int l = 0; l < 16; ++l)
                if (!rng.bernoulli((float)sparsity))
                    m |= 1u << l;
        }
    return windows;
}

void
BM_SchedulerSchedule(benchmark::State &state)
{
    MuxPattern pattern(16, 3);
    HierarchicalScheduler sched(pattern);
    auto windows = randomWindows(1024, state.range(0) / 100.0, 42);
    size_t i = 0;
    for (auto _ : state) {
        const auto &w = windows[i++ & 1023];
        benchmark::DoNotOptimize(sched.schedule(w.data(), 3));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerSchedule)->Arg(0)->Arg(50)->Arg(90);

/** One row-cycle of the tile's mask path: schedule a window and clear
 * its picks in place. */
void
BM_SchedulerConsume(benchmark::State &state)
{
    MuxPattern pattern(16, 3);
    HierarchicalScheduler sched(pattern);
    auto windows = randomWindows(1024, state.range(0) / 100.0, 42);
    size_t i = 0;
    for (auto _ : state) {
        std::array<uint32_t, 3> w = windows[i++ & 1023];
        benchmark::DoNotOptimize(sched.consume(w.data(), 3));
        benchmark::DoNotOptimize(w);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerConsume)->Arg(0)->Arg(30)->Arg(50)->Arg(90);

void
BM_OracleMatching(benchmark::State &state)
{
    MuxPattern pattern(16, 3);
    auto windows = randomWindows(256, state.range(0) / 100.0, 43);
    size_t i = 0;
    for (auto _ : state) {
        const auto &w = windows[i++ & 255];
        benchmark::DoNotOptimize(oracleMaxPicks(pattern, w.data(), 3));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleMatching)->Arg(50);

void
BM_PeRun(benchmark::State &state)
{
    Rng rng(44);
    double sparsity = state.range(0) / 100.0;
    BlockStream a(16, false), b(16, false);
    for (int r = 0; r < 256; ++r) {
        uint32_t ma = 0, mb = 0;
        for (int l = 0; l < 16; ++l) {
            if (!rng.bernoulli((float)sparsity))
                ma |= 1u << l;
            if (!rng.bernoulli((float)sparsity))
                mb |= 1u << l;
        }
        a.appendMaskRow(ma);
        b.appendMaskRow(mb);
    }
    TensorDashPe pe(PeConfig{});
    for (auto _ : state) {
        PeStats stats;
        benchmark::DoNotOptimize(pe.run(a, b, stats));
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PeRun)->Arg(0)->Arg(50)->Arg(90);

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_scheduler_micro");
}

#endif // TENSORDASH_HAVE_BENCHMARK
