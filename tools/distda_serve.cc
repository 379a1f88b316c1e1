/**
 * @file
 * Offload-as-a-service daemon: a long-lived front end over
 * serve::Server. Clients submit offload requests (workload +
 * RunConfig as JSON, one per line) over a Unix or loopback-TCP
 * socket; plans compile once per (kernel, config) fingerprint via the
 * process-wide PlanCache and every later request reuses them; each
 * response streams back the full --stats-json run report.
 *
 * Usage and flags: usageText below, which --help prints.
 */

#include <cstdio>
#include <string>

#include "src/compiler/plan_cache.hh"
#include "src/driver/config.hh"
#include "src/serve/server.hh"
#include "src/sim/logging.hh"

using namespace distda;

constexpr const char *usageText = R"usage(Usage:
  distda_serve --socket=<path> | --port=<n>
               [--jobs=<n>] [--backlog=<n>] [--max-connections=<n>]
               [--max-request-bytes=<n>] [--timeout-ms=<n>]
               [--max-scale=<f>] [--plan-cache-capacity=<n>]
               [--verbose]

--port=0 binds an ephemeral loopback port and prints it. SIGINT or
SIGTERM drains: accepting stops, in-flight requests finish and
flush their responses, the daemon prints its service summary and
exits 0. SIGPIPE is ignored process-wide — a client disconnecting
mid-response costs that client its response, never the daemon its
life. See DESIGN.md §12 for the protocol schema.

Examples:
  distda_serve --socket=/tmp/distda.sock --jobs=8
  distda_serve --port=9177 --plan-cache-capacity=1024
)usage";

int
main(int argc, char **argv)
{
    serve::ServeOptions opts;
    std::size_t cache_capacity = 0;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0) {
            opts.socketPath = arg.substr(9);
        } else if (arg.rfind("--port=", 0) == 0) {
            opts.tcpPort = static_cast<int>(
                driver::parseInt(arg.substr(7), "--port"));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = static_cast<int>(
                driver::parseInt(arg.substr(7), "--jobs"));
        } else if (arg.rfind("--backlog=", 0) == 0) {
            opts.backlog = static_cast<int>(
                driver::parseInt(arg.substr(10), "--backlog"));
        } else if (arg.rfind("--max-connections=", 0) == 0) {
            opts.maxConnections = static_cast<int>(driver::parseInt(
                arg.substr(18), "--max-connections"));
        } else if (arg.rfind("--max-request-bytes=", 0) == 0) {
            opts.maxRequestBytes =
                static_cast<std::size_t>(driver::parseInt(
                    arg.substr(20), "--max-request-bytes"));
        } else if (arg.rfind("--timeout-ms=", 0) == 0) {
            opts.requestTimeoutMs = static_cast<int>(
                driver::parseInt(arg.substr(13), "--timeout-ms"));
        } else if (arg.rfind("--max-scale=", 0) == 0) {
            opts.maxScale =
                driver::parseDouble(arg.substr(12), "--max-scale");
        } else if (arg.rfind("--plan-cache-capacity=", 0) == 0) {
            cache_capacity = static_cast<std::size_t>(driver::parseInt(
                arg.substr(22), "--plan-cache-capacity"));
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--quiet") {
            verbose = false; // default; accepted for script symmetry
        } else if (arg == "--help") {
            std::fputs(usageText, stdout);
            return 0;
        } else {
            fatal("unknown flag '%s'", arg.c_str());
        }
    }
    if (opts.socketPath.empty() && opts.tcpPort < 0)
        fatal("need a listen address: --socket=<path> or --port=<n>");

    // Per-run inform() chatter would interleave across worker
    // threads; the daemon's own lifecycle messages go to stderr.
    if (!verbose)
        setInformEnabled(false);
    if (cache_capacity > 0)
        compiler::PlanCache::process().setCapacity(cache_capacity);

    serve::Server server(opts);
    server.start();
    serve::Server::installSignalHandlers(server);

    if (!opts.socketPath.empty()) {
        std::fprintf(stderr, "distda_serve: listening on %s\n",
                     opts.socketPath.c_str());
    } else {
        std::fprintf(stderr,
                     "distda_serve: listening on 127.0.0.1:%d\n",
                     server.port());
    }

    server.waitUntilStopRequested();
    std::fprintf(stderr, "distda_serve: draining...\n");
    server.stop();

    const serve::Server::Stats s = server.stats();
    const compiler::PlanCache::Stats cache =
        compiler::PlanCache::process().stats();
    std::fprintf(stderr,
                 "distda_serve: served=%llu errors=%llu "
                 "disconnects=%llu busy_rejected=%llu "
                 "connections=%llu\n",
                 static_cast<unsigned long long>(s.served),
                 static_cast<unsigned long long>(s.errors),
                 static_cast<unsigned long long>(s.disconnects),
                 static_cast<unsigned long long>(s.busyRejected),
                 static_cast<unsigned long long>(s.accepted));
    std::fprintf(stderr,
                 "distda_serve: plan cache hits=%llu misses=%llu "
                 "hit_rate=%.3f entries=%zu evictions=%llu "
                 "compile_ms=%.1f saved_ms=%.1f\n",
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 cache.hitRate(), cache.entries,
                 static_cast<unsigned long long>(cache.evictions),
                 cache.compileMs, cache.savedMs);
    return 0;
}
