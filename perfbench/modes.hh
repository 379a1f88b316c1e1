/**
 * @file
 * The perfbench binary's modes and their shared `--key=value`
 * argument parsing.
 */

#ifndef PERFBENCH_MODES_HH
#define PERFBENCH_MODES_HH

#include <map>
#include <string>
#include <vector>

#include "src/driver/config.hh"

namespace perfbench
{

/** `--key=value` flags of one mode; unknown keys are fatal. */
class Args
{
  public:
    Args(int argc, char **argv, const std::vector<std::string> &known);

    std::string get(const std::string &key) const; ///< fatal if absent
    std::string get(const std::string &key,
                    const std::string &fallback) const;
    double num(const std::string &key, double fallback) const;

  private:
    std::map<std::string, std::string> _values;
};

/** Comma-separated list; empty items are dropped. */
std::vector<std::string> splitList(const std::string &text);

/** One simulated run: a workload input under one configuration. */
struct RunSpec
{
    std::string workload;
    double scale = 1.0;
    distda::driver::RunConfig config;

    /** "<workload>/<config>", the key of its exact counts. */
    std::string id() const;
};

/**
 * The cross product of `--inputs=<workload>:<scale>,...` and
 * `--configs=headline|<model>,...`, input-major; fatal on bad input.
 */
std::vector<RunSpec> parseRuns(const std::string &inputs,
                               const std::string &configs);

/** Timed or traced sweep over a fixed job list (sweep.cc). */
int runSweep(const Args &args);

/** Offload-service daemon: serve::Server until SIGTERM (serve.cc). */
int runDaemon(const Args &args);

/** Open-loop load generator against a daemon (serve.cc). */
int runLoad(const Args &args);

/** Time host-speed reference chunks in a fresh process (serve.cc). */
int runReference(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_MODES_HH
