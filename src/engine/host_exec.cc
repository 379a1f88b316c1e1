#include "src/engine/host_exec.hh"

#include <algorithm>

#include "src/compiler/classify.hh"
#include "src/sim/logging.hh"

namespace distda::engine
{

using compiler::AccessDir;
using compiler::Kernel;
using compiler::Node;
using compiler::NodeKind;
using compiler::PatternKind;
using compiler::Word;

HostExecutor::HostExecutor(const Kernel &kernel, mem::Hierarchy *hier,
                           MemBackend *backend, const HostParams &params)
    : HostExecutor(kernel, compiler::classifyKernel(kernel),
                   kernel.topoOrder(), hier, backend, params, nullptr)
{
}

HostExecutor::HostExecutor(
    std::shared_ptr<const compiler::OffloadPlan> plan,
    mem::Hierarchy *hier, MemBackend *backend, const HostParams &params)
    : HostExecutor(plan->kernel, plan->dep, plan->kernel.topoOrder(),
                   hier, backend, params, plan)
{
}

HostExecutor::HostExecutor(
    const Kernel &kernel, const compiler::DependenceInfo &dep,
    const std::vector<int> &topo, mem::Hierarchy *hier,
    MemBackend *backend, const HostParams &params,
    std::shared_ptr<const compiler::OffloadPlan> plan)
    : _planRef(std::move(plan)), _kernel(kernel), _hier(hier),
      _backend(backend), _params(params),
      _levels(static_cast<std::size_t>(dep.loadChainDepth) + 1),
      _memoryRecurrence(dep.hasMemoryRecurrence)
{
    // Per-iteration static op count.
    _opsPerIter = _params.loopOverheadOps;
    for (const Node &n : kernel.nodes) {
        if (n.kind == NodeKind::Compute || n.kind == NodeKind::Access)
            ++_opsPerIter;
        if (n.kind == NodeKind::Access)
            ++_memOpsPerIter;
    }
    const sim::Tick cycle = sim::ClockDomain(_params.clockHz).period();
    const double issue_cycles = std::max(
        {static_cast<double>(_opsPerIter) /
             std::min<double>(_params.issueWidth, _params.sustainedIpc),
         static_cast<double>(_memOpsPerIter) / _params.memPortsPerCycle,
         static_cast<double>(dep.carryChainCycles)});
    _computeTicks = static_cast<sim::Tick>(
        issue_cycles * static_cast<double>(cycle));

    // The op stream in topological order, with each load's dependence
    // depth (indirect chains serialize).
    const int zero_slot = static_cast<int>(kernel.nodes.size());
    const auto slot = [zero_slot](int node) {
        return node != compiler::noNode ? node : zero_slot;
    };
    std::vector<std::size_t> depth(kernel.nodes.size(), 0);
    int num_loads = 0;
    for (int id : topo) {
        const Node &n = kernel.node(id);
        std::size_t d = 0;
        for (int in : n.valueInputs())
            d = std::max(d, depth[static_cast<std::size_t>(in)]);
        const bool load =
            n.kind == NodeKind::Access && n.dir == AccessDir::Load;
        if (load) {
            ++d;
            ++num_loads;
        }
        depth[static_cast<std::size_t>(id)] = d;

        HostOp op;
        op.dst = id;
        switch (n.kind) {
          case NodeKind::IndVar: op.kind = OpKind::IndVar; break;
          case NodeKind::Carry: op.kind = OpKind::Carry; break;
          case NodeKind::Compute:
            op.kind = OpKind::Compute;
            op.op = n.op;
            op.a = slot(n.inputA);
            op.b = slot(n.inputB);
            op.c = slot(n.inputC);
            break;
          case NodeKind::Access:
            op.kind = load ? OpKind::Load : OpKind::Store;
            op.bytes = n.bits / 8;
            op.elemIsFloat = n.elemIsFloat;
            op.objId = n.objId;
            op.level = d;
            op.affine = n.pattern == PatternKind::Affine;
            if (op.affine) {
                op.ivCoeff = n.affine.ivCoeff;
                op.baseIdx = _affineNodes.size();
                _affineNodes.push_back(id);
            } else {
                op.a = slot(n.addrInput);
            }
            op.b = slot(n.valueInput);
            if (n.predInput != compiler::noNode)
                op.pred = n.predInput;
            break;
          default:
            continue; // values set once per run, or no value at all
        }
        _ops.push_back(op);
    }
    _mlp = std::min<double>(_params.maxMlp, std::max(1, num_loads * 2));

    for (const Node &n : kernel.nodes) {
        if (n.kind == NodeKind::Carry && n.carryUpdate != compiler::noNode)
            _latches.emplace_back(n.id, n.carryUpdate);
    }
}

HostRunResult
HostExecutor::run(const std::vector<ArrayRef> &bindings,
                  const std::vector<Word> &params, sim::Tick start_tick)
{
    DISTDA_ASSERT(bindings.size() == _kernel.objects.size(),
                  "host run: binding count mismatch");

    std::int64_t trip = _kernel.loop.staticExtent;
    if (_kernel.loop.extentParam >= 0)
        trip = params[static_cast<std::size_t>(
                          _kernel.loop.extentParam)]
                   .i;

    // Loop-invariant values, set once: constants (never ops), carry
    // state and the zero slot; with a non-empty loop also params and
    // each affine access's parameter-dependent base (params are read
    // only by iterations).
    std::vector<Word> vals(_kernel.nodes.size() + 1, Word{});
    std::vector<Word> carry_state(_kernel.nodes.size(), Word{});
    std::vector<std::int64_t> bases(_affineNodes.size(), 0);
    for (const Node &n : _kernel.nodes) {
        const auto id = static_cast<std::size_t>(n.id);
        if (n.kind == NodeKind::ConstInt || n.kind == NodeKind::ConstFloat)
            vals[id] = n.imm;
        else if (n.kind == NodeKind::Carry)
            carry_state[id] = n.carryInit;
        else if (n.kind == NodeKind::Param && trip > 0)
            vals[id] = params[static_cast<std::size_t>(n.paramIdx)];
    }
    for (std::size_t i = 0; i < bases.size() && trip > 0; ++i) {
        const compiler::AffinePattern &p =
            _kernel.node(_affineNodes[i]).affine;
        bases[i] = p.constBase;
        for (std::size_t k = 0; k < p.paramCoeffs.size(); ++k) {
            if (p.paramCoeffs[k] != 0)
                bases[i] += p.paramCoeffs[k] * params[k].i;
        }
    }

    HostRunResult result;
    Word *const v = vals.data();
    sim::Tick now = start_tick;
    std::vector<double> level_max(_levels, 0.0);
    for (std::int64_t it = 0; it < trip; ++it) {
        double load_lat_sum = 0.0;
        double chain_lat = 0.0; // deepest dependent-load chain
        std::fill(level_max.begin(), level_max.end(), 0.0);

        for (const HostOp &op : _ops) {
            switch (op.kind) {
              case OpKind::IndVar:
                v[op.dst].i = it;
                break;
              case OpKind::Carry:
                v[op.dst] = carry_state[static_cast<std::size_t>(op.dst)];
                break;
              case OpKind::Compute:
                v[op.dst] = compiler::evalOp(op.op, v[op.a], v[op.b],
                                             v[op.c]);
                break;
              case OpKind::Load: {
                  const ArrayRef &arr =
                      bindings[static_cast<std::size_t>(op.objId)];
                  const std::int64_t off =
                      op.affine ? bases[op.baseIdx] + op.ivCoeff * it
                                : v[op.a].i;
                  DISTDA_ASSERT(
                      off >= 0 &&
                          static_cast<std::uint64_t>(off) < arr.count,
                      "host load out of bounds: obj %d off %lld",
                      op.objId, static_cast<long long>(off));
                  const mem::Addr addr =
                      arr.addrOf(static_cast<std::uint64_t>(off));
                  v[op.dst] = _backend->load(addr, op.bytes,
                                             op.elemIsFloat);
                  const auto res =
                      _hier->hostAccess(addr, op.bytes, false, now);
                  const auto lat = static_cast<double>(res.latency);
                  load_lat_sum += lat;
                  if (op.level < level_max.size())
                      level_max[op.level] =
                          std::max(level_max[op.level], lat);
                  break;
              }
              case OpKind::Store: {
                  if (op.pred >= 0 && v[op.pred].i == 0)
                      break;
                  const ArrayRef &arr =
                      bindings[static_cast<std::size_t>(op.objId)];
                  const std::int64_t off =
                      op.affine ? bases[op.baseIdx] + op.ivCoeff * it
                                : v[op.a].i;
                  DISTDA_ASSERT(
                      off >= 0 &&
                          static_cast<std::uint64_t>(off) < arr.count,
                      "host store out of bounds: obj %d off %lld",
                      op.objId, static_cast<long long>(off));
                  const mem::Addr addr =
                      arr.addrOf(static_cast<std::uint64_t>(off));
                  _backend->store(addr, v[op.b], op.bytes,
                                  op.elemIsFloat);
                  // Store latency is hidden by the store buffer;
                  // traffic/energy still counted.
                  _hier->hostAccess(addr, op.bytes, true, now);
                  break;
              }
            }
        }
        for (const auto &[carry, update] : _latches) {
            carry_state[static_cast<std::size_t>(carry)] =
                v[static_cast<std::size_t>(update)];
        }

        for (std::size_t lvl = 2; lvl < level_max.size(); ++lvl)
            chain_lat += level_max[lvl];

        sim::Tick mem_ticks;
        if (_memoryRecurrence) {
            // Pointer chasing: the next address needs this load.
            mem_ticks = static_cast<sim::Tick>(load_lat_sum);
        } else {
            mem_ticks = static_cast<sim::Tick>(
                chain_lat + (load_lat_sum - chain_lat) / _mlp);
        }
        now += std::max(_computeTicks, mem_ticks);
        // Integer-valued adds: exact, so per-iteration batching of the
        // access count equals one add per access.
        result.memOps += _memOpsPerIter;
        result.insts += _opsPerIter;
    }

    for (int node : _kernel.resultCarries) {
        result.results.push_back(
            {node, carry_state[static_cast<std::size_t>(node)]});
    }
    result.endTick = now;
    result.record.start = start_tick;
    result.record.end = now;
    result.record.add(offload::Phase::Execute, now - start_tick);
    return result;
}

} // namespace distda::engine
