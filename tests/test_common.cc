/**
 * @file
 * Unit tests for the common substrate: logging, RNG, stats, tables,
 * parallelFor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/counter_rng.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace tensordash {
namespace {

class ThrowingLog : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowMode(true); }
    void TearDown() override { setLogThrowMode(false); }
};

TEST_F(ThrowingLog, FatalThrowsSimError)
{
    EXPECT_THROW(TD_FATAL("bad config value %d", 42), SimError);
}

TEST_F(ThrowingLog, PanicThrowsSimError)
{
    EXPECT_THROW(TD_PANIC("invariant violated"), SimError);
}

TEST_F(ThrowingLog, AssertPassesWhenTrue)
{
    EXPECT_NO_THROW(TD_ASSERT(1 + 1 == 2, "math works"));
}

TEST_F(ThrowingLog, AssertThrowsWhenFalse)
{
    EXPECT_THROW(TD_ASSERT(false, "always fails"), SimError);
}

TEST_F(ThrowingLog, ErrorMessageIsFormatted)
{
    try {
        TD_FATAL("value=%d name=%s", 7, "x");
        FAIL() << "should have thrown";
    } catch (const SimError &e) {
        EXPECT_EQ(e.message, "value=7 name=x");
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.uniform() == b.uniform();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        float v = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = rng.uniformInt(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(99);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3f);
    EXPECT_NEAR(hits / (double)trials, 0.3, 0.02);
}

TEST(Rng, ForkIndependent)
{
    Rng parent(42);
    Rng child = parent.fork();
    // The fork must not replay the parent sequence.
    Rng parent2(42);
    parent2.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += child.uniform() == parent.uniform();
    EXPECT_LT(same, 5);
}

TEST(CounterRng, KnownAnswers)
{
    // Key 0 is SplitMix64 seeded with 0: its published first outputs.
    CounterRng zero(0);
    EXPECT_EQ(zero.at(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(zero.at(1), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(zero.at(2), 0x06c45d188009454full);

    const CounterRng g(7);
    EXPECT_EQ(g.at(0), 0x63cbe1e459320dd7ull);
    EXPECT_EQ(g.at(1ull << 40), 0x9db20060659ab50cull);
    EXPECT_EQ(g.child(3).at(0), 0x027175e2d366e35aull);
    // The cursor walks the same counters: uniform() is draw 0's top
    // 53 bits.
    EXPECT_EQ(CounterRng(7).uniform(),
              (double)(g.at(0) >> 11) * 0x1p-53);
    // mt19937_64's output sequence is fixed by the standard.
    EXPECT_EQ(Rng(7).key(), 0xc11f6531eb66d9a7ull);
}

TEST(CounterRng, BetaMatchesMomentsOverZooShapes)
{
    // The concentrations (k) and densities the clustered generators
    // use: Beta(d k, (1 - d) k) shapes span ~0.004 to ~80.
    const int n = 100000;
    uint64_t shape = 0;
    for (double k : {0.8, 3.2, 25.0, 80.0}) {
        for (double d : {0.005, 0.1, 0.5, 0.98}) {
            const double a = d * k, b = (1.0 - d) * k;
            const double var = a * b / ((a + b) * (a + b) * (a + b + 1));
            const double kurt = 6.0 *
                ((a - b) * (a - b) * (a + b + 1) - a * b * (a + b + 2)) /
                (a * b * (a + b + 2) * (a + b + 3));
            const double mu4 = (kurt + 3.0) * var * var;
            // Independent draws per shape.
            const CounterRng draws = CounterRng(0x5eed).child(shape++);
            double sum = 0.0, sum2 = 0.0;
            for (int i = 0; i < n; ++i) {
                double x = draws.child(i).beta(a, b);
                ASSERT_GE(x, 0.0) << "a=" << a << " b=" << b;
                ASSERT_LE(x, 1.0) << "a=" << a << " b=" << b;
                sum += x;
                sum2 += x * x;
            }
            double mean = sum / n;
            double sample_var = sum2 / n - mean * mean;
            EXPECT_NEAR(mean, d, 4.0 * std::sqrt(var / n))
                << "a=" << a << " b=" << b;
            EXPECT_NEAR(sample_var, var,
                        4.0 * std::sqrt((mu4 - var * var) / n))
                << "a=" << a << " b=" << b;
        }
    }
}

TEST(StatSet, CountersAccumulate)
{
    StatSet s;
    s.inc("cycles");
    s.inc("cycles", 9);
    EXPECT_EQ(s.count("cycles"), 10u);
    EXPECT_EQ(s.count("absent"), 0u);
}

TEST(StatSet, ScalarsAccumulateAndSet)
{
    StatSet s;
    s.add("energy", 1.5);
    s.add("energy", 2.5);
    EXPECT_DOUBLE_EQ(s.value("energy"), 4.0);
    s.set("energy", 7.0);
    EXPECT_DOUBLE_EQ(s.value("energy"), 7.0);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.inc("n", 3);
    a.add("x", 1.0);
    b.inc("n", 4);
    b.add("x", 2.0);
    b.inc("only_b", 5);
    a.merge(b);
    EXPECT_EQ(a.count("n"), 7u);
    EXPECT_DOUBLE_EQ(a.value("x"), 3.0);
    EXPECT_EQ(a.count("only_b"), 5u);
}

TEST(StatSet, HasAndClear)
{
    StatSet s;
    EXPECT_FALSE(s.has("n"));
    s.inc("n");
    EXPECT_TRUE(s.has("n"));
    s.clear();
    EXPECT_FALSE(s.has("n"));
}

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Table, AlignsColumns)
{
    Table t("caption");
    t.header({"model", "speedup"});
    t.row({"alexnet", "2.10"});
    t.row({"vgg", "1.80"});
    std::string s = t.str();
    EXPECT_NE(s.find("caption"), std::string::npos);
    EXPECT_NE(s.find("alexnet"), std::string::npos);
    EXPECT_NE(s.find("2.10"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRoundTrip)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, NumericRowFormatting)
{
    Table t;
    t.header({"label", "x", "y"});
    t.rowNumeric("r", {1.234, 5.678}, 1);
    EXPECT_NE(t.str().find("1.2"), std::string::npos);
    EXPECT_NE(t.str().find("5.7"), std::string::npos);
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmtDouble(1.005, 2), "1.00");
    EXPECT_EQ(fmtSpeedup(1.95), "1.95x");
    EXPECT_EQ(fmtPercent(0.425, 1), "42.5%");
}

// The suite keeps its historical name: it pins parallelFor(), which
// replaced the ThreadPool class.

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    const size_t n = 1000;
    for (int parallelism : {0, 4}) {
        std::vector<int> hits(n, 0);
        parallelFor(n, [&](size_t i) { ++hits[i]; }, parallelism);
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << i << " at parallelism " << parallelism;
    }
}

TEST(ThreadPool, ParallelismOneRunsInlineInOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    bool inline_only = true;
    parallelFor(16, [&](size_t i) {
        order.push_back(i);
        inline_only &= std::this_thread::get_id() == caller;
    }, 1);
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    // A single index needs no helper whatever the parallelism.
    parallelFor(1, [&](size_t) {
        inline_only &= std::this_thread::get_id() == caller;
    }, 4);
    EXPECT_TRUE(inline_only);
}

TEST(ThreadPool, PropagatesTheFirstBodyException)
{
    const size_t n = 256;
    std::atomic<int> ran{0};
    std::atomic<int> running{0};
    EXPECT_THROW(parallelFor(n,
                             [&](size_t i) {
                                 ++ran;
                                 ++running;
                                 std::this_thread::sleep_for(
                                     std::chrono::microseconds(200));
                                 --running;
                                 if (i == 0)
                                     throw std::runtime_error("boom");
                             },
                             4),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
    // Indices not claimed before the throw are skipped...
    EXPECT_LT(ran.load(), (int)n);
    // ...and no body outlives the call.
    EXPECT_EQ(running.load(), 0);
}

TEST(ThreadPool, NestedParallelForCoversEveryIndex)
{
    // A body that fans out again must not deadlock or drop indices:
    // the nested call starts its own helpers.
    std::atomic<int> total{0};
    std::vector<std::array<std::atomic<int>, 8>> hits(8);
    parallelFor(8, [&](size_t outer) {
        parallelFor(8, [&](size_t inner) {
            ++hits[outer][inner];
            ++total;
        }, 4);
    }, 4);
    EXPECT_EQ(total.load(), 64);
    for (auto &row : hits)
        for (auto &h : row)
            EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForOnSingleThreadPoolRunsInline)
{
    // At parallelism 1 a nested call runs its whole range inline, in
    // index order, inside the outer body.
    std::vector<std::pair<size_t, size_t>> order;
    parallelFor(3, [&](size_t outer) {
        parallelFor(3, [&](size_t inner) {
            order.emplace_back(outer, inner);
        }, 1);
    }, 1);
    ASSERT_EQ(order.size(), 9u);
    for (size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i].first, i / 3);
        EXPECT_EQ(order[i].second, i % 3);
    }
}

TEST(ThreadPool, NestedParallelForPropagatesExceptions)
{
    std::atomic<int> outer_failures{0};
    parallelFor(4, [&](size_t) {
        try {
            parallelFor(8, [&](size_t i) {
                if (i == 5)
                    throw std::runtime_error("inner boom");
            }, 4);
        } catch (const std::runtime_error &) {
            ++outer_failures;
        }
    }, 4);
    EXPECT_EQ(outer_failures.load(), 4);
}

TEST(ThreadPool, ConcurrentTopLevelParallelForCalls)
{
    // Calls from different threads coexist; each sees exactly its own
    // range.
    std::array<std::atomic<int>, 2> totals{};
    std::thread other([&] {
        parallelFor(100, [&](size_t) { ++totals[0]; }, 4);
    });
    parallelFor(100, [&](size_t) { ++totals[1]; }, 4);
    other.join();
    EXPECT_EQ(totals[0].load(), 100);
    EXPECT_EQ(totals[1].load(), 100);
}

TEST(ThreadPool, ExplicitParallelismRunsThatManyAtOnce)
{
    // Four bodies that each wait for all four to arrive are released
    // only by four concurrent executors, the caller among them, so an
    // explicit parallelism is honoured whatever the default (as
    // RunConfig::threads beats TD_THREADS).
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mu;
    std::condition_variable cv;
    // All three guarded by mu.
    int arrived = 0;
    std::array<bool, 4> met{};
    std::array<bool, 4> on_caller{};
    parallelFor(4, [&](size_t i) {
        std::unique_lock<std::mutex> lock(mu);
        on_caller[i] = std::this_thread::get_id() == caller;
        ++arrived;
        cv.notify_all();
        met[i] = cv.wait_for(lock, std::chrono::seconds(5),
                             [&] { return arrived == 4; });
    }, 4);
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = 0; i < met.size(); ++i)
        EXPECT_TRUE(met[i]) << "body " << i << " timed out";
    EXPECT_EQ(std::count(on_caller.begin(), on_caller.end(), true), 1);
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    for (int round = 0; round < 5; ++round) {
        std::vector<uint64_t> out(100, 0);
        parallelFor(out.size(), [&](size_t i) {
            out[i] = (uint64_t)i * (uint64_t)(round + 1);
        }, 3);
        uint64_t sum = std::accumulate(out.begin(), out.end(),
                                       (uint64_t)0);
        EXPECT_EQ(sum, (uint64_t)4950 * (uint64_t)(round + 1));
    }
}

TEST(ThreadPool, DefaultThreadCountHonoursTdThreadsEnv)
{
    char saved[64] = {0};
    if (const char *old = std::getenv("TD_THREADS"))
        std::snprintf(saved, sizeof saved, "%s", old);

    setenv("TD_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3);
    // Invalid values fall back to hardware concurrency (>= 1).
    setenv("TD_THREADS", "zero", 1);
    EXPECT_GE(defaultThreadCount(), 1);
    setenv("TD_THREADS", "-2", 1);
    EXPECT_GE(defaultThreadCount(), 1);

    if (saved[0])
        setenv("TD_THREADS", saved, 1);
    else
        unsetenv("TD_THREADS");
}

} // namespace
} // namespace tensordash
