/**
 * @file
 * Memory-services example: the §IV-B interface-generality claim in
 * action. A Livia-style task layer — built purely from cp_config,
 * cp_set_rf and cp_run — dispatches single-cacheline min-update tasks
 * over a scattered array under three policies: host-only execution, a
 * coin-flip migration (Livia) and data-location lookup (NSC-style).
 */

#include <cstdio>
#include <vector>

#include "src/driver/system.hh"
#include "src/offload/migration.hh"
#include "src/sim/rng.hh"

using namespace distda;
using offload::MemoryServiceLayer;
using offload::MigrationPolicy;

int
main()
{
    setInformEnabled(false);
    const std::uint64_t n = 1 << 17; // 1MB of doubles
    const std::uint64_t tasks = 16384;

    std::printf("min-update memory services: %llu tasks over %llu "
                "elements\n",
                static_cast<unsigned long long>(tasks),
                static_cast<unsigned long long>(n));
    std::printf("%-16s %12s %14s %10s %10s\n", "policy", "time (us)",
                "energy (nJ)", "migrated", "local%");

    for (MigrationPolicy policy :
         {MigrationPolicy::HostOnly, MigrationPolicy::CoinFlip,
          MigrationPolicy::DataLocation}) {
        driver::SystemParams sp;
        sp.arenaBytes = 16 << 20;
        driver::System sys(sp);
        auto arr = sys.alloc("vals", n, 8, true);
        for (std::uint64_t i = 0; i < n; ++i)
            arr.setF(i, 1e18);

        MemoryServiceLayer svc(&sys.hier(), policy);
        sim::Rng rng(2024);
        sim::Tick now = 0;
        for (std::uint64_t t = 0; t < tasks; ++t) {
            now = svc.runTask(arr, rng.nextBelow(n),
                              rng.nextDouble() * 1000.0, now);
        }

        energy::Counts counts = sys.memoryCounts();
        counts.mmioOps = svc.mmioOps();
        const double pj =
            energy::totalPj(energy::price(counts, sp.energy, 1.0));
        std::printf("%-16s %12.2f %14.1f %10.0f %9.1f%%\n",
                    migrationPolicyName(policy),
                    static_cast<double>(now) / 1e6,
                    pj / 1000.0,
                    svc.stats().migrated,
                    100.0 * svc.stats().localExecutions /
                        svc.stats().tasks);
    }
    return 0;
}
