/**
 * @file
 * Self-tests of the benchmark's own logic: the statistics its metrics
 * are reported with, the span arithmetic of traced runs, and the
 * output checks behind `failed`.  Every benchmark run executes them
 * (a failure makes the run incorrect); `tdbench selftest` runs them
 * alone.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "workload.hh"

namespace tdbench {

namespace {

struct Tally
{
    int failures = 0;

    void
    expect(bool ok, const char *what)
    {
        if (!ok) {
            ++failures;
            std::printf("[selftest] FAIL %s\n", what);
        }
    }

    void
    near(double got, double want, const char *what)
    {
        expect(std::fabs(got - want) < 1e-9, what);
    }
};

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

void
statistics(Tally &t)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    Quartiles q = quartiles(iota(10));
    t.near(q.q1, 2.75, "quartile q1 of 1..10");
    t.near(q.q2, 5.5, "quartile q2 of 1..10");
    t.near(q.q3, 8.25, "quartile q3 of 1..10");
    t.near(median({3, 1, 2}), 2.0, "odd median");
    t.near(median({4, 1, 3, 2}), 2.5, "even median");
    t.near(percentile(iota(200), 95), 190.0, "nearest-rank p95");

    // Ten samples beyond: 200 reach p95, 199 only p90, 20 the median,
    // and 19 not even that.
    Tail a = tailPercentile(iota(200));
    t.expect(a.pct == 95.0 && a.value == 190.0, "200 samples -> p95");
    t.expect(tailPercentile(iota(199)).pct == 90.0, "199 samples -> p90");
    t.expect(tailPercentile(iota(1000)).pct == 99.0,
             "1000 samples -> p99");
    t.expect(tailPercentile(iota(20)).pct == 50.0, "20 samples -> p50");
    Tail few = tailPercentile(iota(19));
    t.expect(few.pct == 0.0 && few.value == 19.0,
             "19 samples -> no percentile, the maximum");
}

void
rankCorrelation(Tally &t)
{
    t.near(spearman({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0,
           "monotone -> rho 1");
    t.near(spearman({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0,
           "reversed -> rho -1");
    // Ties take the mean rank: y ranks (1, 2, 3.5, 5, 3.5).
    t.near(spearman({1, 2, 3, 4, 5}, {5, 6, 7, 8, 7}),
           8.0 / std::sqrt(95.0), "tied ranks");
    t.near(spearman({1, 1, 1}, {1, 2, 3}), 0.0, "constant side -> 0");
}

void
spanSelfTime(Tally &t)
{
    // A [0, 10] holds B [2, 5] and C [6, 9]; C holds D [7, 8] (s).
    const int64_t s = 1000000000;
    std::vector<SpanRecord> spans = {
        {"A", 0, 10 * s, -1, 1},
        {"B", 2 * s, 5 * s, 0, 1},
        {"C", 6 * s, 9 * s, 0, 1},
        {"D", 7 * s, 8 * s, 2, 1},
        {"B", 20 * s, 21 * s, -1, 2},
    };
    std::map<std::string, SpanStat> st = aggregateSpans(spans);
    t.near(st["A"].self_s, 4.0, "self(A) = 10 - 3 - 3");
    t.near(st["B"].self_s, 4.0, "self(B) sums both calls");
    t.expect(st["B"].calls == 2, "B called twice");
    t.near(st["C"].self_s, 2.0, "self(C) = 3 - 1");
    t.near(st["D"].self_s, 1.0, "self(D) = 1");
    t.near(st["A"].total_s, 10.0, "total(A)");
    t.near(coveredSeconds(spans), 11.0, "coverage counts each instant once");

    Tracer tracer;
    {
        Tracer::Span outer(tracer, "outer", 7);
        TDB_SPAN(tracer, "inner");
    }
    t.expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
                 tracer.spans()[1].request == 0 &&
                 tracer.spans()[0].request == 7,
             "RAII spans nest and carry request ids");
}

void
outputChecks(Tally &t)
{
    const std::string golden = "model,AxW\nAlexNet,2.09x\n";
    std::string perturbed = golden;
    perturbed[17] = '8';
    Outcome out;
    out.record(sameText(golden, golden, nullptr), "identical csv");
    std::string why;
    out.record(sameText(golden, perturbed, &why), "perturbed csv");
    t.expect(out.attempted() == 2 && out.failed() == 1,
             "one perturbed CSV byte is one failed operation");
    t.expect(why.find("byte 17") != std::string::npos,
             "the mismatch names its offset");

    std::vector<uint8_t> bytes = {0x54, 0x44, 0x53, 0x57, 5, 0, 0, 0};
    std::vector<uint8_t> flipped = bytes;
    flipped[4] ^= 1;
    out.record(sameBytes(bytes, flipped, nullptr), "flipped result byte");
    out.record(sameBytes(bytes, {bytes.begin(), bytes.end() - 1}, nullptr),
               "truncated result");
    t.expect(out.failed() == 3, "a flipped or missing result byte fails");

    Counters c;
    Outcome repeat;
    c.set("cells", 261, repeat);
    c.set("cells", 261, repeat);
    c.set("cells", 262, repeat);
    t.expect(repeat.attempted() == 2 && repeat.failed() == 1,
             "a counter that changes across repetitions fails");
}

} // namespace

int
runSelfTests()
{
    Tally t;
    statistics(t);
    rankCorrelation(t);
    spanSelfTime(t);
    outputChecks(t);
    std::printf("[selftest] %s (%d failure%s)\n",
                t.failures ? "FAILED" : "ok", t.failures,
                t.failures == 1 ? "" : "s");
    return t.failures;
}

} // namespace tdbench
