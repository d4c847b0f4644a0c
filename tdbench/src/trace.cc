#include "trace.hh"

#include <cstdio>

namespace tdbench {

std::map<std::string, SpanStat>
aggregateSpans(const std::vector<SpanRecord> &spans)
{
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            child_ns[(size_t)s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, SpanStat> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        const int64_t dur = s.end_ns - s.start_ns;
        SpanStat &st = out[s.name];
        st.self_s += (double)(dur - child_ns[i]) * 1e-9;
        st.total_s += (double)dur * 1e-9;
        st.calls += 1;
    }
    return out;
}

double
coveredSeconds(const std::vector<SpanRecord> &spans)
{
    double total = 0.0;
    for (const auto &kv : aggregateSpans(spans))
        total += kv.second.self_s;
    return total;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

Tracer::Span::Span(Tracer &t, const char *name, uint64_t request)
    : tracer_(t), index_(t.spans_.size())
{
    SpanRecord r;
    r.name = name;
    r.parent = t.open_.empty() ? -1 : (int64_t)t.open_.back();
    r.request = request ? request : t.request_;
    r.start_ns = t.nowNs();
    t.spans_.push_back(r);
    t.open_.push_back(index_);
}

Tracer::Span::~Span()
{
    tracer_.spans_[index_].end_ns = tracer_.nowNs();
    tracer_.open_.pop_back();
}

bool
Tracer::writeChrome(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"request\": %llu}}\n",
                     i ? "," : "", s.name, (double)s.start_ns * 1e-3,
                     (double)(s.end_ns - s.start_ns) * 1e-3, i,
                     (long long)s.parent,
                     (unsigned long long)s.request);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace tdbench
