/**
 * @file
 * Shared pieces of the perfbench binary: host clocks, the in-memory
 * span tracer used by traced runs, and extraction of the exact
 * (deterministic) counts of one simulated run from its run report.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/**
 * Time one fixed chunk (about 10 ms) of the host-speed reference:
 * inserts into and lookups in a std::map, allocation-heavy pointer
 * code like the simulator's own. A shared host
 * drifts in speed by tens of percent over seconds to minutes, and
 * the simulator and this chunk drift together; perfbench/run.py
 * divides host times by the run's interquartile mean chunk time to
 * cancel that.
 */
double referenceMs();

/** One recorded interval: name, [start, end), parent span and id. */
struct Span
{
    std::string name;
    std::string id; ///< job or request the span belongs to
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1; ///< index into Tracer::spans(), -1 for a root
};

/**
 * In-memory span recorder for the traced run. Spans nest by call
 * order on one thread: begin() makes the innermost open span the
 * parent. Nothing is written until writeChromeTrace() at the end.
 */
class Tracer
{
  public:
    Tracer() : _t0(Clock::now()) {}

    int begin(const std::string &name, const std::string &id);
    void end(int span);

    const std::vector<Span> &spans() const { return _spans; }

    /** Duration minus the union of its children's intervals, in ms. */
    std::vector<double> selfMs() const;

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point _t0;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, const std::string &id)
        : _tracer(tracer), _span(tracer ? tracer->begin(name, id) : -1)
    {
    }
    ~Scope()
    {
        if (_tracer)
            _tracer->end(_span);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *_tracer;
    int _span;
};

/**
 * The exact counts of one run, read from its run report. `canonical`
 * is the report with every host-dependent field (wall time, plan-cache
 * warmth, probe-only sections) removed, so two runs of one simulated
 * program give byte-identical strings.
 */
struct Counts
{
    bool validated = false;
    std::string canonical;
    std::map<std::string, double> values;
};

/** Counts from a parsed run report (driver::buildRunReport output). */
Counts countsFromReport(const distda::sim::JsonValue &report);

/** FNV-1a of @p text, printed as 16 hex digits. */
std::string digest(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
