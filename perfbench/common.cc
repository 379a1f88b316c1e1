#include "perfbench/common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <utility>

namespace perfbench
{

using distda::sim::JsonValue;
using distda::sim::JsonWriter;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

namespace
{
/** Keeps the reference chunk's result observable. */
volatile std::uint64_t g_referenceSink = 0;
} // namespace

double
referenceMs()
{
    std::mt19937 rng(12345); // identical work in every chunk
    const auto t0 = Clock::now();
    std::map<std::uint32_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 20000; ++i)
        m[rng() % 50000] += i;
    std::uint64_t sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto it = m.find(rng() % 50000);
        if (it != m.end())
            sum += it->second;
    }
    const double ms = msBetween(t0, Clock::now());
    g_referenceSink = sum;
    return ms;
}

int
Tracer::begin(const std::string &name, const std::string &id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = _open.empty() ? -1 : _open.back();
    s.start = Clock::now();
    _spans.push_back(std::move(s));
    _open.push_back(static_cast<int>(_spans.size()) - 1);
    return _open.back();
}

void
Tracer::end(int span)
{
    _spans[static_cast<std::size_t>(span)].end = Clock::now();
    // Spans close innermost first (Scope is RAII).
    if (!_open.empty() && _open.back() == span)
        _open.pop_back();
}

std::vector<double>
Tracer::selfMs() const
{
    std::vector<std::vector<std::pair<Clock::time_point,
                                      Clock::time_point>>>
        children(_spans.size());
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, s.end);
            if (b > a) {
                covered += msBetween(a, b);
                reach = b;
            }
        }
        self[i] = msBetween(s.start, s.end) - covered;
    }
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(1);
        w.key("ts").value(1000.0 * msBetween(_t0, s.start));
        w.key("dur").value(1000.0 * msBetween(s.start, s.end));
        w.key("args").beginObject();
        w.key("id").value(s.id);
        w.key("span").value(static_cast<std::int64_t>(i));
        w.key("parent").value(static_cast<std::int64_t>(s.parent));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return distda::sim::writeTextFile(path, w.str());
}

namespace
{

double
num(const JsonValue *v)
{
    return v && v->isNumber() ? v->num : 0.0;
}

double
leaf(const JsonValue &obj, const char *key)
{
    return num(obj.find(key));
}

/** Copy @p v into @p w, skipping the object members in @p drop. */
void
dumpWithout(const JsonValue &v, JsonWriter &w,
            std::initializer_list<const char *> drop)
{
    w.beginObject();
    for (const auto &[k, child] : v.obj) {
        if (std::find_if(drop.begin(), drop.end(), [&](const char *d) {
                return k == d;
            }) != drop.end())
            continue;
        w.key(k);
        distda::sim::dumpJsonValue(child, w);
    }
    w.endObject();
}

} // namespace

Counts
countsFromReport(const JsonValue &report)
{
    Counts c;
    const JsonValue *validated = report.find("validated");
    c.validated = validated &&
                  validated->kind == JsonValue::Kind::Bool &&
                  validated->b;

    const JsonValue empty;
    const JsonValue *metrics = report.find("metrics");
    const JsonValue *stats = report.find("stats");
    const JsonValue *breakdown = report.find("offload_breakdown");
    const JsonValue &m = metrics ? *metrics : empty;
    const JsonValue *hier_p = stats ? stats->find("hier") : nullptr;
    const JsonValue &hier = hier_p ? *hier_p : empty;

    auto &v = c.values;
    v["sim.time_ns"] = leaf(m, "time_ns");
    v["engine.insts"] =
        leaf(m, "host_insts") + leaf(m, "accel_insts");
    double invocations = 0.0;
    if (breakdown) {
        for (const JsonValue &row : breakdown->arr)
            invocations += leaf(row, "invocations");
    }
    v["offload.invocations"] = invocations;
    v["offload.mmio_ops"] = leaf(m, "mmio_ops");
    // The hierarchy's stat names are flat, dotted keys.
    v["mem.cache_accesses"] = leaf(hier, "cache_accesses_total");
    for (const char *stat :
         {"l1d.accesses", "l1d.hits", "l2.accesses", "l2.hits",
          "acp.accesses", "l3.accesses", "l3.misses", "dram.reads",
          "dram.row_hits", "dram.row_misses"})
        v[std::string("mem.") + stat] = leaf(hier, stat);
    double packets = 0.0;
    for (const auto &[name, stat] : hier.obj) {
        if (name.rfind("noc_packets.", 0) == 0)
            packets += num(&stat);
    }
    v["noc.packets"] = packets;
    v["noc.hop_flits"] = leaf(hier, "noc_hop_flits");
    v["noc.bytes"] = leaf(hier, "noc_bytes.total");

    // Everything the simulation determines, nothing the host does:
    // wall time and plan-cache warmth are dropped, and so are the
    // probe-only sections, so a probe request matches a plain one.
    JsonWriter w;
    w.beginObject();
    w.key("validated").value(c.validated);
    w.key("metrics");
    dumpWithout(m, w, {"wall_ms", "plan_cache"});
    w.key("offload_breakdown");
    if (breakdown)
        distda::sim::dumpJsonValue(*breakdown, w);
    else
        w.nullValue();
    w.key("stats");
    if (stats)
        dumpWithout(*stats, w, {"dist"});
    else
        w.nullValue();
    w.endObject();
    c.canonical = w.str();
    return c;
}

std::string
digest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
