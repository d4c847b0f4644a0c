#ifndef TDBENCH_COMMON_HH_
#define TDBENCH_COMMON_HH_

/**
 * @file
 * Shared plumbing of the repo benchmark: clocks and process resource
 * probes, the sample statistics every metric is reported with, the
 * operation ledger behind `attempted`/`failed`, and the result report
 * whose last line is the benchmark's JSON verdict.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tdbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Hardware threads available to this process. */
int hardwareThreads();

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/**
 * Quartiles as Python's statistics.quantiles(v, n=4) computes them
 * (the default "exclusive" method); a single sample is its own
 * quartiles.
 */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** Nearest-rank percentile @p pct (0 < pct <= 100) of @p v. */
double percentile(std::vector<double> v, double pct);

/**
 * The highest of p99, p95, p90, p75 and p50 that still has at least
 * ten samples beyond it (a tail percentile resting on fewer samples is
 * noise).  pct is 0 when even the median lacks ten samples beyond it;
 * value is then the maximum.
 */
struct Tail
{
    double pct = 0.0;
    double value = 0.0;
};
Tail tailPercentile(const std::vector<double> &v);

/** Spearman rank correlation of paired samples (ties take their mean
 * rank); 0 when either side is constant or fewer than two pairs. */
double spearman(const std::vector<double> &x,
                const std::vector<double> &y);

/**
 * Ledger of the run's operations: every sweep, phase repetition and
 * request is one attempt, and any failed output check, error frame,
 * worker failure, non-zero exit or timeout makes it a failure.  The
 * first few failure reasons are kept for the log.
 */
class Outcome
{
  public:
    /** Count one operation; @p ok false records @p what as a failure.
     * Returns @p ok. */
    bool record(bool ok, const std::string &what);

    /** Count another process's operations, with @p reasons for its
     * failures, as this run's. */
    void absorb(uint64_t attempted, uint64_t failed,
                const std::vector<std::string> &reasons);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/** True when @p expected and @p actual are byte-identical; a mismatch
 * names the first differing offset in @p why. */
bool sameBytes(const std::vector<uint8_t> &expected,
               const std::vector<uint8_t> &actual, std::string *why);
bool sameText(const std::string &expected, const std::string &actual,
              std::string *why);

/** Read a whole file as text; false when it cannot be read. */
bool readText(const std::string &path, std::string *out);

/** Total bytes of the regular files directly under @p dir. */
uint64_t dirBytes(const std::string &dir);

/** Remove @p dir (recursively) and create it empty. */
void freshDir(const std::string &dir);

/**
 * Deterministic work counters of one run, printed next to the timings
 * and checked to repeat exactly across the run's repetitions.
 */
class Counters
{
  public:
    /** Set @p name for this repetition.  The first repetition's value
     * is the reference; a later repetition that differs is a failed
     * operation in @p outcome. */
    void set(const std::string &name, double value, Outcome &outcome);

    /** Set without the repeat check (racy or per-repetition values). */
    void note(const std::string &name, double value);

    /** One "[counters] name=value ..." line. */
    std::string line() const;

  private:
    std::map<std::string, double> values_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * The run's verdict: metrics by name, the operation ledger, and the
 * closing JSON line (the benchmark's machine-readable result).
 */
class Report
{
  public:
    /** Report the median of @p samples and print its quartiles and
     * sample count on a "[metric]" line. */
    void addSamples(const std::string &name, const std::string &unit,
                    const std::vector<double> &samples);

    /** Report one value as measured. */
    void add(const std::string &name, const std::string &unit,
             double value);

    /** Print the failure reasons and the JSON verdict line (last line
     * of stdout). */
    void finish(const Outcome &outcome) const;

  private:
    std::vector<Metric> metrics_;
};

} // namespace tdbench

#endif // TDBENCH_COMMON_HH_
