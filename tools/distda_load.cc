/**
 * @file
 * Open-loop load generator for the offload service (distda_serve).
 *
 * Replays a mixed stream of offload requests against a running daemon
 * from several concurrent connections and reports client-observed
 * latency quantiles (streaming P² p50/p95/p99), throughput, error
 * counts and the aggregate plan-cache hit rate the daemon reported
 * per request. The request mix is the cross product of --workloads
 * and --configs, walked round-robin by request index so every
 * (workload, config) pair — and therefore every plan fingerprint —
 * appears with equal weight.
 *
 * Usage and flags: usageText below, which --help prints.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "src/driver/config.hh"
#include "src/serve/client.hh"
#include "src/serve/protocol.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/stats.hh"

using namespace distda;

namespace
{

constexpr const char *usageText = R"usage(Usage:
  distda_load --socket=<path> | --port=<n> [--host=<addr>]
              [--requests=<n>] [--connections=<n>] [--rate=<rps>]
              [--workloads=a,b,...] [--configs=x,y,...]
              [--scale=<f>] [--timeout-ms=<n>] [--probe]
              [--report-out=<file>] [--min-hit-rate=<f>]
              [--allow-errors] [--quiet]

--rate > 0 runs open loop: request i is released at t0 + i/rate
globally across connections, whether or not earlier requests have
completed, so daemon-side queueing shows up as client latency
instead of being absorbed by the generator. --rate=0 (default) runs
closed loop at maximum throughput. --report-out writes the "report"
subtree of the first successful response verbatim, for
distda_stats diff against a direct distda_run --stats-json run.

A connection that fails mid-run reconnects once; if that also fails
(daemon draining or gone) the connection retires and the remaining
requests are counted as errors. SIGPIPE is ignored and SIGINT stops
new requests, letting in-flight ones finish before the summary — so
the generator always reports what it measured, even under an
interrupted or draining daemon. Exit is nonzero on any error or a
missed --min-hit-rate unless --allow-errors is given.

Example (the check.sh smoke stage):
  distda_load --socket=/tmp/distda.sock --requests=1000 \
    --connections=8 --workloads=fdt,bfs \
    --configs=Dist-DA-IO,Dist-DA-F --scale=0.25 --min-hit-rate=0.9
)usage";

std::atomic<bool> g_interrupted{false};

void
onInterrupt(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

struct LoadOptions
{
    std::string socketPath;
    std::string host;
    int port = -1;
    std::uint64_t requests = 1000;
    int connections = 4;
    double rate = 0.0; ///< total req/s across connections; 0 = closed loop
    std::vector<std::string> workloads{"fdt"};
    std::vector<std::string> configs{"Dist-DA-IO"};
    double scale = 0.25;
    int timeoutMs = 30'000;
    bool probe = false;
    std::string reportOut;
    double minHitRate = -1.0;
    bool allowErrors = false;
    bool quiet = false;
};

/** Aggregated results; quantiles guarded by the mutex. */
struct LoadResults
{
    std::mutex mu;
    stats::P2Quantile p50{0.5};
    stats::P2Quantile p95{0.95};
    stats::P2Quantile p99{0.99};
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::string firstReport; ///< "report" subtree of first ok reply
    std::string firstError;
};

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

bool
connectClient(serve::ServeClient &client, const LoadOptions &opts,
              std::string &err)
{
    if (!opts.socketPath.empty())
        return client.connectUnix(opts.socketPath, err);
    return client.connectTcp(opts.host, opts.port, err);
}

/** Record one response line; returns false on a non-ok reply. */
bool
recordResponse(const std::string &response, double latency_ms,
               LoadResults &results, std::string &err)
{
    sim::JsonValue doc;
    if (!sim::tryParseJson(response, doc, err))
        return false;
    const sim::JsonValue *ok = doc.find("ok");
    if (!ok || ok->kind != sim::JsonValue::Kind::Bool) {
        err = "response missing 'ok'";
        return false;
    }
    if (!ok->b) {
        const sim::JsonValue *msg = doc.find("error");
        err = msg && msg->isString() ? msg->str : "server error";
        return false;
    }

    std::uint64_t hits = 0, misses = 0;
    if (const sim::JsonValue *service = doc.find("service")) {
        if (const sim::JsonValue *h = service->find("plan_cache_hits"))
            hits = static_cast<std::uint64_t>(h->num);
        if (const sim::JsonValue *m = service->find("plan_cache_misses"))
            misses = static_cast<std::uint64_t>(m->num);
    }

    std::lock_guard<std::mutex> lock(results.mu);
    results.ok++;
    results.hits += hits;
    results.misses += misses;
    results.p50.add(latency_ms);
    results.p95.add(latency_ms);
    results.p99.add(latency_ms);
    if (results.firstReport.empty()) {
        if (const sim::JsonValue *report = doc.find("report")) {
            if (report->isObject()) {
                sim::JsonWriter w;
                sim::dumpJsonValue(*report, w);
                results.firstReport = w.str();
            }
        }
    }
    return true;
}

void
recordError(LoadResults &results, const std::string &err,
            std::uint64_t count = 1)
{
    std::lock_guard<std::mutex> lock(results.mu);
    results.errors += count;
    if (results.firstError.empty())
        results.firstError = err;
}

/**
 * One connection's request loop. Pulls global request indices from
 * @p next so the open-loop schedule and the workload/config mix are
 * shared across connections.
 */
void
connectionLoop(const LoadOptions &opts,
               const std::vector<serve::ServeRequest> &mix,
               std::chrono::steady_clock::time_point t0,
               std::atomic<std::uint64_t> &next, LoadResults &results)
{
    using Clock = std::chrono::steady_clock;
    serve::ServeClient client;
    std::string err;
    if (!connectClient(client, opts, err)) {
        // Count the requests this connection would have carried.
        std::uint64_t missed = 0;
        while (next.fetch_add(1) < opts.requests)
            missed++;
        recordError(results, err, missed);
        return;
    }

    bool reconnected = false;
    while (!g_interrupted.load(std::memory_order_relaxed)) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= opts.requests)
            break;

        if (opts.rate > 0.0) {
            const auto release =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / opts.rate));
            std::this_thread::sleep_until(release);
        }

        serve::ServeRequest req = mix[i % mix.size()];
        req.id = i;
        const std::string line = serve::buildRequestLine(req);

        const auto start = Clock::now();
        std::string response;
        bool sent = client.request(line, response, err, opts.timeoutMs);
        if (!sent && !reconnected) {
            // One reconnect per connection: a daemon restart is
            // survivable, a draining or dead daemon retires us.
            reconnected = true;
            if (connectClient(client, opts, err))
                sent = client.request(line, response, err,
                                      opts.timeoutMs);
        }
        if (!sent) {
            // Reconnect budget spent: retire this connection and
            // leave the remaining request indices to its peers
            // instead of burning through them as instant errors.
            recordError(results, err);
            break;
        }
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count();
        if (!recordResponse(response, latency_ms, results, err))
            recordError(results, err);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    LoadOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0) {
            opts.socketPath = arg.substr(9);
        } else if (arg.rfind("--host=", 0) == 0) {
            opts.host = arg.substr(7);
        } else if (arg.rfind("--port=", 0) == 0) {
            opts.port = static_cast<int>(
                driver::parseInt(arg.substr(7), "--port"));
        } else if (arg.rfind("--requests=", 0) == 0) {
            opts.requests = static_cast<std::uint64_t>(
                driver::parseInt(arg.substr(11), "--requests"));
        } else if (arg.rfind("--connections=", 0) == 0) {
            opts.connections = static_cast<int>(
                driver::parseInt(arg.substr(14), "--connections"));
        } else if (arg.rfind("--rate=", 0) == 0) {
            opts.rate = driver::parseDouble(arg.substr(7), "--rate");
        } else if (arg.rfind("--workloads=", 0) == 0) {
            opts.workloads = splitList(arg.substr(12));
        } else if (arg.rfind("--configs=", 0) == 0) {
            opts.configs = splitList(arg.substr(10));
        } else if (arg.rfind("--scale=", 0) == 0) {
            opts.scale = driver::parseDouble(arg.substr(8), "--scale");
        } else if (arg.rfind("--timeout-ms=", 0) == 0) {
            opts.timeoutMs = static_cast<int>(
                driver::parseInt(arg.substr(13), "--timeout-ms"));
        } else if (arg == "--probe") {
            opts.probe = true;
        } else if (arg.rfind("--report-out=", 0) == 0) {
            opts.reportOut = arg.substr(13);
        } else if (arg.rfind("--min-hit-rate=", 0) == 0) {
            opts.minHitRate =
                driver::parseDouble(arg.substr(15), "--min-hit-rate");
        } else if (arg == "--allow-errors") {
            opts.allowErrors = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help") {
            std::fputs(usageText, stdout);
            return 0;
        } else {
            fatal("unknown flag '%s'", arg.c_str());
        }
    }
    if (opts.socketPath.empty() && opts.port < 0)
        fatal("need a target: --socket=<path> or --port=<n>");
    if (opts.workloads.empty() || opts.configs.empty())
        fatal("--workloads and --configs must be non-empty");
    if (opts.connections < 1)
        fatal("--connections must be >= 1");

    // Build the request mix once: cross product, validated up front so
    // a typo'd model name dies here, not as N server-side errors.
    std::vector<serve::ServeRequest> mix;
    for (const std::string &wl : opts.workloads) {
        for (const std::string &cfg : opts.configs) {
            serve::ServeRequest req;
            req.workload = wl;
            req.config.model = driver::parseArchModel(cfg);
            req.scale = opts.scale;
            req.probe = opts.probe;
            mix.push_back(req);
        }
    }

    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    LoadResults results;
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> threads;
    const int conns = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(opts.connections),
        std::max<std::uint64_t>(opts.requests, 1)));
    threads.reserve(static_cast<std::size_t>(conns));
    for (int i = 0; i < conns; ++i) {
        threads.emplace_back(connectionLoop, std::cref(opts),
                             std::cref(mix), t0, std::ref(next),
                             std::ref(results));
    }
    for (std::thread &t : threads)
        t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    const std::uint64_t done = results.ok + results.errors;
    const std::uint64_t lookups = results.hits + results.misses;
    const double hit_rate =
        lookups > 0
            ? static_cast<double>(results.hits) /
                  static_cast<double>(lookups)
            : 0.0;
    const bool interrupted =
        g_interrupted.load(std::memory_order_relaxed);

    if (!opts.quiet && !results.firstError.empty()) {
        std::fprintf(stderr, "distda_load: first error: %s\n",
                     results.firstError.c_str());
    }
    std::printf("requests=%llu ok=%llu errors=%llu interrupted=%d\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(results.ok),
                static_cast<unsigned long long>(results.errors),
                interrupted ? 1 : 0);
    std::printf("p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
                results.p50.value(), results.p95.value(),
                results.p99.value());
    std::printf("wall_s=%.3f throughput_rps=%.1f\n", wall_s,
                wall_s > 0.0 ? static_cast<double>(results.ok) / wall_s
                             : 0.0);
    std::printf("plan_cache_hits=%llu plan_cache_misses=%llu "
                "hit_rate=%.4f\n",
                static_cast<unsigned long long>(results.hits),
                static_cast<unsigned long long>(results.misses),
                hit_rate);

    if (!opts.reportOut.empty()) {
        if (results.firstReport.empty()) {
            std::fprintf(stderr,
                         "distda_load: no report captured for %s\n",
                         opts.reportOut.c_str());
            return 1;
        }
        std::FILE *f = std::fopen(opts.reportOut.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", opts.reportOut.c_str());
        std::fputs(results.firstReport.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }

    if (results.errors > 0 && !opts.allowErrors)
        return 1;
    if (opts.minHitRate >= 0.0 && !interrupted &&
        hit_rate < opts.minHitRate) {
        std::fprintf(stderr,
                     "distda_load: hit rate %.4f below required %.4f\n",
                     hit_rate, opts.minHitRate);
        return 1;
    }
    return 0;
}
