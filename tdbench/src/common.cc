#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

namespace tdbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
           (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

int
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? (int)n : 1;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long ld = (long)v.size();
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"), n = 4.
    const long n = 4, m = ld + 1;
    double out[3];
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        out[i - 1] = (v[j - 1] * (double)(n - delta) +
                      v[j] * (double)delta) / (double)n;
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(pct / 100.0 * (double)v.size());
    size_t idx = rank < 1.0 ? 0 : (size_t)rank - 1;
    return v[std::min(idx, v.size() - 1)];
}

Tail
tailPercentile(const std::vector<double> &v)
{
    Tail t;
    for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
        // Samples strictly above the nearest-rank position.
        double rank = std::ceil(pct / 100.0 * (double)v.size());
        if ((double)v.size() - rank >= 10.0) {
            t.pct = pct;
            t.value = percentile(v, pct);
            return t;
        }
    }
    t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    return t;
}

namespace {

/** 1-based ranks with ties sharing their mean rank. */
std::vector<double>
ranks(const std::vector<double> &v)
{
    std::vector<size_t> order(v.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < order.size();) {
        size_t j = i;
        while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
            ++j;
        double mean_rank = 0.5 * (double)(i + j) + 1.0;
        for (size_t k = i; k <= j; ++k)
            r[order[k]] = mean_rank;
        i = j + 1;
    }
    return r;
}

} // namespace

double
spearman(const std::vector<double> &x, const std::vector<double> &y)
{
    const size_t n = std::min(x.size(), y.size());
    if (n < 2)
        return 0.0;
    std::vector<double> rx = ranks({x.begin(), x.begin() + (long)n});
    std::vector<double> ry = ranks({y.begin(), y.begin() + (long)n});
    double mx = 0.0, my = 0.0;
    for (size_t i = 0; i < n; ++i) {
        mx += rx[i];
        my += ry[i];
    }
    mx /= (double)n;
    my /= (double)n;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sxy += (rx[i] - mx) * (ry[i] - my);
        sxx += (rx[i] - mx) * (rx[i] - mx);
        syy += (ry[i] - my) * (ry[i] - my);
    }
    return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

bool
Outcome::record(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (reasons_.size() < 16)
            reasons_.push_back(what);
    }
    return ok;
}

void
Outcome::absorb(uint64_t attempted, uint64_t failed,
                const std::vector<std::string> &reasons)
{
    attempted_ += attempted;
    failed_ += failed;
    for (const std::string &r : reasons)
        if (reasons_.size() < 16)
            reasons_.push_back(r);
}

bool
sameBytes(const std::vector<uint8_t> &expected,
          const std::vector<uint8_t> &actual, std::string *why)
{
    size_t n = std::min(expected.size(), actual.size());
    size_t i = 0;
    while (i < n && expected[i] == actual[i])
        ++i;
    if (i == n && expected.size() == actual.size())
        return true;
    if (why) {
        *why = "first difference at byte " + std::to_string(i) +
               " (sizes " + std::to_string(expected.size()) + " vs " +
               std::to_string(actual.size()) + ")";
    }
    return false;
}

bool
sameText(const std::string &expected, const std::string &actual,
         std::string *why)
{
    return sameBytes({expected.begin(), expected.end()},
                     {actual.begin(), actual.end()}, why);
}

bool
readText(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

void
freshDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
}

void
Counters::set(const std::string &name, double value, Outcome &outcome)
{
    auto it = values_.find(name);
    if (it == values_.end()) {
        values_[name] = value;
        return;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "counter %s changed across repetitions: %.17g -> %.17g",
                  name.c_str(), it->second, value);
    outcome.record(it->second == value, buf);
}

void
Counters::note(const std::string &name, double value)
{
    values_[name] = value;
}

std::string
Counters::line() const
{
    std::string s = "[counters]";
    char buf[64];
    for (const auto &kv : values_) {
        std::snprintf(buf, sizeof(buf), "%.17g", kv.second);
        s += " " + kv.first + "=" + buf;
    }
    return s;
}

void
Report::addSamples(const std::string &name, const std::string &unit,
                   const std::vector<double> &samples)
{
    Quartiles q = quartiles(samples);
    Tail t = tailPercentile(samples);
    char tail[48];
    if (t.pct > 0.0)
        std::snprintf(tail, sizeof(tail), "p%.0f=%.6g", t.pct, t.value);
    else
        std::snprintf(tail, sizeof(tail), "max=%.6g", t.value);
    std::printf("[metric] %s median=%.6g q1=%.6g q3=%.6g n=%zu %s %s\n",
                name.c_str(), median(samples), q.q1, q.q3,
                samples.size(), tail, unit.c_str());
    metrics_.push_back({name, unit, median(samples)});
}

void
Report::add(const std::string &name, const std::string &unit,
            double value)
{
    metrics_.push_back({name, unit, value});
}

void
Report::finish(const Outcome &outcome) const
{
    for (const std::string &r : outcome.reasons())
        std::printf("[fail] %s\n", r.c_str());
    std::string json = "{\"correct\": ";
    json += outcome.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted());
    json += ", \"failed\": " + std::to_string(outcome.failed());
    json += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // JSON has no NaN/Inf; a metric that could not be measured
        // reads 0 and the ledger already carries the failure.
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace tdbench
