/**
 * @file
 * Report-comparison tool: diff two stats-JSON run reports (from
 * `distda_run --stats-json=`) or two BENCH_*.json perf-baseline
 * files, leaf by leaf.
 *
 * Usage and flags: usageText below, which --help prints.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/driver/config.hh"
#include "src/driver/statsdiff.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"

using namespace distda;

namespace
{

constexpr const char *usageText = R"usage(Usage:
  distda_stats diff <a.json> <b.json>
      [--threshold=<pct>] [--format=text|markdown|csv]
      [--ignore=<substr>] [--all] [--changed-only]
  distda_stats show <a.json>

diff flattens every numeric leaf of both documents into dotted
paths, joins them, and prints a delta table (absolute and percent).
Exit status is 0 iff no leaf changed beyond --threshold (default 0:
two identical runs must diff clean), 1 when the gate fails, and 2
on usage or I/O errors (via fatal). Machine-dependent leaves
(wall_ms, compile_ms, saved, sim_rate, hardware_threads) are
ignored unless --all is given; each --ignore=<substr> adds another
skipped fragment.

show prints one document's numeric leaves as "path value" lines —
useful for grepping a single report.
)usage";

sim::JsonValue
loadReport(const std::string &path)
{
    std::string text;
    if (!sim::readTextFile(path, text))
        fatal("cannot read report '%s'", path.c_str());
    return sim::parseJson(text, path.c_str());
}

driver::DiffFormat
parseFormat(const std::string &name)
{
    if (name == "text")
        return driver::DiffFormat::Text;
    if (name == "markdown")
        return driver::DiffFormat::Markdown;
    if (name == "csv")
        return driver::DiffFormat::Csv;
    fatal("--format: '%s' is not a format (text|markdown|csv)",
          name.c_str());
    return driver::DiffFormat::Text; // unreachable
}

void
usage()
{
    std::fputs(usageText, stderr);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    if (command == "--help") {
        std::fputs(usageText, stdout);
        return 0;
    }

    driver::StatsDiffOptions opts;
    opts.ignoreSubstrings = driver::defaultIgnoreSubstrings();
    std::vector<std::string> files;
    std::vector<std::string> extra_ignores;
    bool all = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--threshold=", 0) == 0) {
            opts.thresholdPct = driver::parseDouble(
                arg.substr(12), "--threshold");
            if (opts.thresholdPct < 0.0)
                fatal("--threshold: %.6g is negative",
                      opts.thresholdPct);
        } else if (arg.rfind("--format=", 0) == 0) {
            opts.format = parseFormat(arg.substr(9));
        } else if (arg.rfind("--ignore=", 0) == 0) {
            const std::string frag = arg.substr(9);
            if (frag.empty())
                fatal("--ignore: empty substring");
            extra_ignores.push_back(frag);
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--changed-only") {
            opts.changedOnly = true;
        } else if (arg == "--help") {
            std::fputs(usageText, stdout);
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            fatal("unknown flag '%s'", arg.c_str());
        } else {
            files.push_back(arg);
        }
    }
    if (all)
        opts.ignoreSubstrings.clear();
    opts.ignoreSubstrings.insert(opts.ignoreSubstrings.end(),
                                 extra_ignores.begin(),
                                 extra_ignores.end());

    if (command == "show") {
        if (files.size() != 1) {
            usage();
            return 2;
        }
        const sim::JsonValue doc = loadReport(files[0]);
        for (const auto &[path, value] :
             driver::flattenNumericLeaves(doc))
            std::printf("%s %.17g\n", path.c_str(), value);
        return 0;
    }

    if (command != "diff" || files.size() != 2) {
        usage();
        return 2;
    }

    const sim::JsonValue a = loadReport(files[0]);
    const sim::JsonValue b = loadReport(files[1]);
    const driver::StatsDiff d = driver::diffReports(a, b, opts);
    std::fputs(
        renderDiff(d, opts, files[0], files[1]).c_str(), stdout);
    return d.pass() ? 0 : 1;
}
