/**
 * @file
 * Tests for the Livia-style memory-service layer (§IV-B interface
 * generality): every policy computes the same results, data-location
 * dispatch executes at the data's home cluster, and migration cuts
 * host-side cache walks for scattered single-line tasks.
 */

#include <gtest/gtest.h>

#include "src/driver/system.hh"
#include "src/offload/migration.hh"
#include "src/sim/rng.hh"

using namespace distda;
using offload::MemoryServiceLayer;
using offload::MigrationPolicy;

namespace
{

struct TaskTrace
{
    std::uint64_t idx;
    double operand;
};

std::vector<TaskTrace>
makeTasks(std::uint64_t count, std::uint64_t array_size)
{
    sim::Rng rng(123);
    std::vector<TaskTrace> tasks;
    for (std::uint64_t i = 0; i < count; ++i)
        tasks.push_back(
            {rng.nextBelow(array_size), rng.nextDouble() * 100.0});
    return tasks;
}

struct PolicyRun
{
    std::vector<double> values;
    sim::Tick endTick = 0;
    double hostCacheAccesses = 0.0;
    double migrated = 0.0;
    double localShare = 0.0;
};

PolicyRun
runPolicy(MigrationPolicy policy)
{
    driver::SystemParams sp;
    sp.arenaBytes = 32 << 20;
    driver::System sys(sp);
    const std::uint64_t n = 1 << 16;
    auto arr = sys.alloc("vals", n, 8, true);
    for (std::uint64_t i = 0; i < n; ++i)
        arr.setF(i, 1e9);

    MemoryServiceLayer svc(&sys.hier(), policy);
    sim::Tick now = 0;
    for (const auto &t : makeTasks(4096, n))
        now = svc.runTask(arr, t.idx, t.operand, now);

    PolicyRun r;
    r.endTick = now;
    for (std::uint64_t i = 0; i < 256; ++i)
        r.values.push_back(arr.getF(i));
    r.hostCacheAccesses =
        sys.hier().l1().accesses() + sys.hier().l2().accesses();
    r.migrated = svc.stats().migrated;
    r.localShare = svc.stats().tasks > 0
                       ? svc.stats().localExecutions /
                             svc.stats().tasks
                       : 0.0;
    return r;
}

} // namespace

TEST(Migration, AllPoliciesComputeSameResult)
{
    const auto host = runPolicy(MigrationPolicy::HostOnly);
    const auto coin = runPolicy(MigrationPolicy::CoinFlip);
    const auto data = runPolicy(MigrationPolicy::DataLocation);
    EXPECT_EQ(host.values, coin.values);
    EXPECT_EQ(host.values, data.values);
}

TEST(Migration, DataLocationRunsAtHome)
{
    const auto data = runPolicy(MigrationPolicy::DataLocation);
    EXPECT_GT(data.localShare, 0.95);
    EXPECT_DOUBLE_EQ(data.migrated, 4096.0);
}

TEST(Migration, CoinFlipMigratesAboutHalf)
{
    const auto coin = runPolicy(MigrationPolicy::CoinFlip);
    EXPECT_GT(coin.migrated, 4096.0 * 0.4);
    EXPECT_LT(coin.migrated, 4096.0 * 0.6);
}

TEST(Migration, MigrationAvoidsHostCacheWalks)
{
    const auto host = runPolicy(MigrationPolicy::HostOnly);
    const auto data = runPolicy(MigrationPolicy::DataLocation);
    // Scattered single-line tasks thrash the host L1/L2; near-data
    // dispatch bypasses them entirely.
    EXPECT_LT(data.hostCacheAccesses, host.hostCacheAccesses * 0.1);
}

TEST(Migration, PolicyNamesResolve)
{
    EXPECT_STREQ(migrationPolicyName(MigrationPolicy::HostOnly),
                 "host-only");
    EXPECT_STREQ(migrationPolicyName(MigrationPolicy::CoinFlip),
                 "coin-flip");
    EXPECT_STREQ(migrationPolicyName(MigrationPolicy::DataLocation),
                 "data-location");
}
