/**
 * @file
 * A Livia-style "memory services" layer built on top of the Table II
 * interface, demonstrating §IV-B's interface-generality claim: the
 * migration scheme is implemented purely with cp_config (once per
 * cluster), cp_set_rf (operand transfer) and cp_run (invocation),
 * dispatching each single-cacheline task either to the host, to a
 * random location (Livia's coin flip) or to the cluster owning the
 * data (the NSC-style location lookup).
 *
 * The task used here is the canonical Livia example: an atomic
 * min-update of one element (arr[idx] = min(arr[idx], operand)).
 */

#ifndef DISTDA_OFFLOAD_MIGRATION_HH
#define DISTDA_OFFLOAD_MIGRATION_HH

#include "src/engine/backend.hh"
#include "src/offload/interface.hh"
#include "src/sim/rng.hh"

namespace distda::offload
{

/** Where a memory-service task executes. */
enum class MigrationPolicy
{
    HostOnly,     ///< every task runs on the host core
    CoinFlip,     ///< migrate to the data's cluster half the time
    DataLocation, ///< always run at the cluster owning the line
};

const char *migrationPolicyName(MigrationPolicy p);

/** Task-dispatch statistics. */
struct MigrationStats
{
    double tasks = 0.0;
    double migrated = 0.0;
    double localExecutions = 0.0; ///< ran at the data's home cluster
};

/**
 * The memory-service dispatcher. Accelerators at every cluster are
 * configured once with the task function; each runTask() then costs
 * only the operand cp_set_rf writes and a cp_run.
 */
class MemoryServiceLayer
{
  public:
    MemoryServiceLayer(mem::Hierarchy *hier, MigrationPolicy policy,
                       std::uint64_t seed = 1);

    /**
     * Min-update task: arr[idx] = min(arr[idx], operand), executed
     * functionally and charged per the chosen policy.
     * @return the tick the update is durable.
     */
    sim::Tick runTask(engine::ArrayRef &arr, std::uint64_t idx,
                      double operand, sim::Tick now);

    const MigrationStats &stats() const { return _stats; }
    std::uint64_t mmioOps() const { return _iface.mmioOps(); }

    /**
     * Per-task lifecycle breakdown (one OffloadRecord per runTask,
     * conservation-checked): host-path tasks split into Enqueue
     * (host-core queueing), Execute (read + update) and Writeback
     * (store drain); migrated tasks into Decode (one-time cp_config),
     * Enqueue (operand cp_set_rf), Dispatch (cp_run) and Execute
     * (the near-data read-modify-write).
     */
    const LifecycleStats &lifecycle() const { return _lifecycle; }

  private:
    mem::Hierarchy *_hier;
    CoprocessorInterface _iface;
    MigrationPolicy _policy;
    sim::Rng _rng;
    MigrationStats _stats;
    LifecycleStats _lifecycle;
    bool _configured = false;
    sim::Tick _hostBusy = 0;
};

} // namespace distda::offload

#endif // DISTDA_OFFLOAD_MIGRATION_HH
