/**
 * @file
 * Baseline execution of a kernel on the out-of-order host (the OoO
 * configuration): every load/store walks the L1/L2/L3/DRAM hierarchy
 * and per-iteration time follows an analytical OoO model — issue-width
 * bound on the instruction stream, MSHR/window bound on memory-level
 * parallelism, and full serialization for pointer-chasing recurrences.
 */

#ifndef DISTDA_ENGINE_HOST_EXEC_HH
#define DISTDA_ENGINE_HOST_EXEC_HH

#include <memory>
#include <vector>

#include "src/compiler/dfg.hh"
#include "src/compiler/plan.hh"
#include "src/engine/backend.hh"
#include "src/mem/hierarchy.hh"
#include "src/offload/lifecycle.hh"

namespace distda::engine
{

/** OoO pipeline parameters (Table III: 5-way Ice-Lake-class @2GHz). */
struct HostParams
{
    int issueWidth = 5;
    /**
     * Sustained IPC ceiling. The 5-way front end rarely extracts full
     * width on these loop bodies (FP dependence chains, load-use
     * delays, branches); calibrated to the ~1.2 sustained IPC a
     * gem5-class X86 O3 model achieves here, which the paper's own
     * ratios imply (its Mono-DA-IO 1-issue accelerators run close to
     * the OoO baseline).
     */
    double sustainedIpc = 1.2;
    double memPortsPerCycle = 2.0; ///< L1 load/store ports
    std::uint64_t clockHz = 2'000'000'000ULL;
    int maxMlp = 8;          ///< L1 MSHRs bound outstanding misses
    int loopOverheadOps = 4; ///< loop control per iteration
};

/** Outcome of a host-side kernel execution. */
struct HostRunResult
{
    sim::Tick endTick = 0;
    double insts = 0.0;
    double memOps = 0.0;
    std::vector<std::pair<int, compiler::Word>> results;
    /**
     * Lifecycle record of this run: the host path has no interface
     * traffic, so the whole end-to-end latency is Execute and the
     * other six phases are zero (trivially conserved).
     */
    offload::OffloadRecord record;
};

/** Executes kernels directly on the host core. */
class HostExecutor
{
  public:
    HostExecutor(const compiler::Kernel &kernel, mem::Hierarchy *hier,
                 MemBackend *backend,
                 const HostParams &params = HostParams{});

    /**
     * Owning binding for the compile→instantiate split: executes the
     * plan's kernel and shares plan ownership so cached or
     * deserialized plans stay alive for the executor's lifetime.
     */
    HostExecutor(std::shared_ptr<const compiler::OffloadPlan> plan,
                 mem::Hierarchy *hier, MemBackend *backend,
                 const HostParams &params = HostParams{});

    HostRunResult run(const std::vector<ArrayRef> &bindings,
                      const std::vector<compiler::Word> &params,
                      sim::Tick start_tick);

  private:
    /** Kind of one op of the per-iteration stream. */
    enum class OpKind : std::uint8_t
    {
        IndVar,  ///< value = iteration number
        Carry,   ///< value = the carry's latched state
        Compute, ///< value = evalOp(a, b, c)
        Load,    ///< value = memory, walks the host hierarchy
        Store,   ///< memory = value(b) when pred holds
    };

    /**
     * One predecoded node of the per-iteration op stream, in
     * topological order. Operands are indices into the run's value
     * array; a missing operand reads a zero slot past the nodes.
     * Param and constant nodes are not ops: their values are set once
     * per run.
     */
    struct HostOp
    {
        OpKind kind = OpKind::Compute;
        compiler::OpCode op = compiler::OpCode::Mov; ///< Compute only
        bool affine = false;      ///< address = base + ivCoeff * it
        bool elemIsFloat = false;
        std::uint32_t bytes = 0;  ///< access width
        int dst = 0;              ///< this node's value slot
        int a = 0, b = 0, c = 0;  ///< operand slots (Load: a = addr)
        int pred = -1;            ///< Store predicate slot, -1 = none
        int objId = 0;
        std::size_t level = 0;    ///< dependent-load depth (Load)
        std::int64_t ivCoeff = 0;
        std::size_t baseIdx = 0;  ///< affine base slot, folded per run
    };

    HostExecutor(const compiler::Kernel &kernel,
                 const compiler::DependenceInfo &dep,
                 const std::vector<int> &topo, mem::Hierarchy *hier,
                 MemBackend *backend, const HostParams &params,
                 std::shared_ptr<const compiler::OffloadPlan> plan);

    /** Owned plan for the shared_ptr constructor; null when borrowed. */
    std::shared_ptr<const compiler::OffloadPlan> _planRef;
    const compiler::Kernel &_kernel;
    mem::Hierarchy *_hier;
    MemBackend *_backend;
    HostParams _params;

    std::vector<HostOp> _ops;
    /** Affine accesses' node ids, one per base slot. */
    std::vector<int> _affineNodes;
    /** (carry node, update node) pairs latched after each iteration. */
    std::vector<std::pair<int, int>> _latches;
    int _opsPerIter = 0;     ///< issued ops incl. loop overhead
    int _memOpsPerIter = 0;  ///< access nodes, predicated or not
    sim::Tick _computeTicks = 0;
    double _mlp = 1.0;
    std::size_t _levels = 1; ///< load-chain levels tracked
    bool _memoryRecurrence = false;
};

} // namespace distda::engine

#endif // DISTDA_ENGINE_HOST_EXEC_HH
