/**
 * @file
 * Run metrics collected for the paper's tables and figures.
 *
 * The "data movement" metric sums the bytes crossing each interface:
 * core<->L1 words, L1<->L2 and L2<->L3 line fills and writebacks (L2
 * prefetches included), L3<->DRAM lines, accelerator<->cache (D-A) and
 * accelerator<->accelerator (A-A), plus NoC bytes weighted by hops
 * traveled, so traffic that rides the mesh counts again there. Buffer
 * reads local to an access unit (intra) are deliberately excluded:
 * keeping data inside one unit is what "near-data" avoids moving. See
 * ExecContext::finish().
 */

#ifndef DISTDA_DRIVER_METRICS_HH
#define DISTDA_DRIVER_METRICS_HH

#include <array>
#include <map>
#include <string>
#include <vector>

namespace distda::driver
{

/**
 * Per-kernel offload-lifecycle latency breakdown (one row per kernel,
 * kernel-name order). Phase ticks follow src/offload/lifecycle.hh:
 * enqueue, decode, buffer_alloc, dispatch, execute, writeback,
 * complete — and always sum exactly to e2eTicks (the conservation
 * invariant, asserted at record time and re-checked by the fuzz
 * oracle). Quantiles are of the per-invocation end-to-end latency.
 *
 * Deliberately NOT part of the sweep CSV columns: it is surfaced via
 * stats-JSON and the --breakdown table so the golden CSV stays
 * byte-identical with the breakdown on or off.
 */
struct OffloadPhaseBreakdown
{
    std::string kernel;
    double invocations = 0.0;
    std::array<double, 7> phaseTicks{}; ///< lifecycle phase order
    double e2eTicks = 0.0;
    double p50 = 0.0; ///< per-invocation end-to-end, ticks
    double p95 = 0.0;
    double p99 = 0.0;
    double minTicks = 0.0;
    double maxTicks = 0.0;
};

/** Metrics of one (workload, configuration) run. */
struct Metrics
{
    std::string workload;
    std::string config;

    double timeNs = 0.0;
    double hostInsts = 0.0;
    double accelInsts = 0.0;
    double kernelMemOps = 0.0;
    double hostMemOps = 0.0; ///< host accesses outside offloads
    double mmioOps = 0.0;

    /** Table VI %cc: dynamic instruction share that is specialized. */
    double
    codeCoverage() const
    {
        return totalInsts() > 0.0 ? 100.0 * accelInsts / totalInsts()
                                  : 0.0;
    }

    /** Table VI %dc: share of memory accesses that are offloaded. */
    double
    dataCoverage() const
    {
        const double total = kernelMemOps + hostMemOps;
        return total > 0.0 ? 100.0 * kernelMemOps / total : 0.0;
    }

    /** Table VI %init: MMIO overhead per application memory access. */
    double
    initOverhead() const
    {
        const double total = kernelMemOps + hostMemOps;
        return total > 0.0 ? 100.0 * mmioOps / total : 0.0;
    }

    double cacheAccesses = 0.0; ///< Fig 8 metric
    double dataMovementBytes = 0.0;

    double totalEnergyPj = 0.0;
    std::map<std::string, double> energyByComponent;

    double nocCtrlBytes = 0.0;
    double nocDataBytes = 0.0;
    double nocAccCtrlBytes = 0.0;
    double nocAccDataBytes = 0.0;

    double intraBytes = 0.0; ///< Fig 9
    double daBytes = 0.0;
    double aaBytes = 0.0;

    bool validated = false;

    /** Per-kernel lifecycle breakdown (see OffloadPhaseBreakdown). */
    std::vector<OffloadPhaseBreakdown> offloadBreakdown;

    /**
     * Host wall-clock spent simulating this run (setup + execution +
     * validation), measured by the runner. Machine-dependent, so it is
     * excluded from the CSV columns to keep sweep output identical at
     * every --jobs level.
     */
    double wallMs = 0.0;
    double setupWallMs = 0.0; ///< workload construction + setup share

    /**
     * Plan-acquisition accounting for this run (PlanCache hits/misses
     * plus --plan-dir artifact loads; see src/compiler/plan_cache.hh).
     * The hit/miss split depends on process-wide cache state and the
     * sweep's job schedule, and the wall times are machine-dependent,
     * so — like wallMs — these are excluded from the CSV columns and
     * surface only in stats-JSON reports and the sweep summary.
     */
    double planCacheHits = 0.0;
    double planCacheMisses = 0.0;
    double planCompileMs = 0.0;      ///< wall time spent compiling
    double planCompileMsSaved = 0.0; ///< wall time cache hits avoided

    /**
     * Clock the ipc() denominator counts cycles against, in GHz. Set
     * by ExecContext::finish() from RunConfig::accelGHz when an
     * override is active; 2.0 (the host clock) otherwise.
     */
    double clockGHz = 2.0;

    double totalInsts() const { return hostInsts + accelInsts; }

    /** Simulated nanoseconds per host wall-clock millisecond. */
    double
    simRate() const
    {
        return wallMs > 0.0 ? timeNs / wallMs : 0.0;
    }

    /** IPC against clockGHz (Fig 11a; 2GHz host unless --ghz=). */
    double
    ipc() const
    {
        return timeNs > 0.0 && clockGHz > 0.0
                   ? totalInsts() / (timeNs * clockGHz)
                   : 0.0;
    }

    /** Memory operations per nanosecond (Fig 11a). */
    double
    memOpRate() const
    {
        return timeNs > 0.0 ? kernelMemOps / timeNs : 0.0;
    }

    double nocTotalBytes() const
    {
        return nocCtrlBytes + nocDataBytes + nocAccCtrlBytes +
               nocAccDataBytes;
    }

    /** Energy efficiency of this run relative to @p baseline. */
    double
    energyEfficiencyVs(const Metrics &baseline) const
    {
        return totalEnergyPj > 0.0
                   ? baseline.totalEnergyPj / totalEnergyPj
                   : 0.0;
    }

    double
    speedupVs(const Metrics &baseline) const
    {
        return timeNs > 0.0 ? baseline.timeNs / timeNs : 0.0;
    }
};

} // namespace distda::driver

#endif // DISTDA_DRIVER_METRICS_HH
