#ifndef TDBENCH_TRACE_HH_
#define TDBENCH_TRACE_HH_

/**
 * @file
 * In-memory span tracer of the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a library module (name, start, end, parent span, request id),
 * kept in memory, and written once at exit as Chrome trace-event JSON
 * (chrome://tracing, Perfetto).  A layer's self time is its spans'
 * durations minus the time their child spans cover.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace tdbench {

/** One finished span; times are nanoseconds since the tracer epoch. */
struct SpanRecord
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1; ///< index of the enclosing span, -1 = root
    uint64_t request = 0;
};

/** Aggregate of every span sharing one name. */
struct SpanStat
{
    double self_s = 0.0;
    double total_s = 0.0;
    uint64_t calls = 0;
};

/** Per-name self/total time of @p spans (children must end inside
 * their parent, as RAII nesting guarantees). */
std::map<std::string, SpanStat>
aggregateSpans(const std::vector<SpanRecord> &spans);

/** Sum of every span's self time: the part of the timeline some span
 * covers (each instant counts once, in its innermost span). */
double coveredSeconds(const std::vector<SpanRecord> &spans);

/** Single-threaded span recorder. */
class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span: open on construction, closed on destruction. */
    class Span
    {
      public:
        Span(Tracer &t, const char *name, uint64_t request);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        size_t index_;
    };

    /** Request id new spans inherit when they pass none. */
    void setRequest(uint64_t request) { request_ = request; }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Write Chrome trace-event JSON to @p path. */
    bool writeChrome(const std::string &path) const;

  private:
    friend class Span;

    int64_t nowNs() const;

    std::vector<SpanRecord> spans_;
    std::vector<size_t> open_;
    Clock::time_point epoch_;
    uint64_t request_ = 0;
};

/** Open a span named @p name on @p tracer for the enclosing scope. */
#define TDB_SPAN(tracer, name)                                           \
    ::tdbench::Tracer::Span TDB_SPAN_CAT(tdb_span_, __LINE__)(           \
        (tracer), (name), 0)
#define TDB_SPAN_CAT(a, b) TDB_SPAN_CAT2(a, b)
#define TDB_SPAN_CAT2(a, b) a##b

} // namespace tdbench

#endif // TDBENCH_TRACE_HH_
