/**
 * @file
 * perfbench: host-cost benchmark binary for the Dist-DA simulator.
 * perfbench/run.py builds and invokes it; see perfbench/README.md.
 *
 *   perfbench sweep  --inputs=<wl>:<scale>,... [--configs=headline|a,b]
 *                    --seed=<n> --seconds=<s>
 *                    [--trace=0|1] [--spans-out=<file>]
 *   perfbench daemon --socket=<path> --jobs=<n>
 *   perfbench load   --socket=<path> --inputs=<wl>:<scale>,...
 *                    --configs=headline|a,b --seed=<n> --seconds=<s>
 *                    [--rate=<rps>]
 *   perfbench ref
 *
 * Each mode prints one JSON document on stdout.
 */

#include <cstdio>
#include <string>

#include "perfbench/modes.hh"
#include "src/driver/config.hh"
#include "src/sim/logging.hh"
#include "src/workloads/workload.hh"

namespace perfbench
{

Args::Args(int argc, char **argv, const std::vector<std::string> &known)
{
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            distda::fatal("expected --key=value, got '%s'", arg.c_str());
        const std::string key = arg.substr(2, eq - 2);
        bool ok = false;
        for (const std::string &k : known)
            ok = ok || k == key;
        if (!ok)
            distda::fatal("unknown flag '--%s'", key.c_str());
        _values[key] = arg.substr(eq + 1);
    }
}

std::string
Args::get(const std::string &key) const
{
    const auto it = _values.find(key);
    if (it == _values.end())
        distda::fatal("missing --%s", key.c_str());
    return it->second;
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    const auto it = _values.find(key);
    return it == _values.end() ? fallback : it->second;
}

double
Args::num(const std::string &key, double fallback) const
{
    const auto it = _values.find(key);
    if (it == _values.end())
        return fallback;
    const std::string what = "--" + key;
    return distda::driver::parseDouble(it->second, what.c_str());
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        if (end > start)
            out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::string
RunSpec::id() const
{
    return workload + "/" + distda::driver::archModelName(config.model);
}

std::vector<RunSpec>
parseRuns(const std::string &inputs, const std::string &configs)
{
    using namespace distda;
    std::vector<driver::ArchModel> models;
    if (configs == "headline") {
        models = driver::headlineModels();
    } else {
        for (const std::string &name : splitList(configs))
            models.push_back(driver::parseArchModel(name));
    }
    std::vector<RunSpec> runs;
    for (const std::string &item : splitList(inputs)) {
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos)
            fatal("--inputs item '%s' is not <workload>:<scale>",
                  item.c_str());
        RunSpec run;
        run.workload = item.substr(0, colon);
        run.scale =
            driver::parseDouble(item.substr(colon + 1), "--inputs scale");
        if (!workloads::hasWorkload(run.workload))
            fatal("unknown workload '%s'", run.workload.c_str());
        for (driver::ArchModel m : models) {
            run.config.model = m;
            runs.push_back(run);
        }
    }
    if (runs.empty())
        fatal("empty --inputs or --configs");
    return runs;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "sweep")
        return runSweep(Args(argc, argv,
                             {"inputs", "configs", "seed", "seconds",
                              "trace", "spans-out"}));
    if (mode == "daemon")
        return runDaemon(Args(argc, argv, {"socket", "jobs"}));
    if (mode == "load")
        return runLoad(Args(argc, argv,
                            {"socket", "seed", "seconds", "rate",
                             "inputs", "configs"}));
    if (mode == "ref")
        return runReference(Args(argc, argv, {}));
    std::fprintf(stderr,
                 "usage: perfbench sweep|daemon|load|ref --key=value...\n");
    return 2;
}
