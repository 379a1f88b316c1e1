#include "src/offload/migration.hh"

#include <algorithm>

namespace distda::offload
{

const char *
migrationPolicyName(MigrationPolicy p)
{
    switch (p) {
      case MigrationPolicy::HostOnly: return "host-only";
      case MigrationPolicy::CoinFlip: return "coin-flip";
      case MigrationPolicy::DataLocation: return "data-location";
      default: return "?";
    }
}

MemoryServiceLayer::MemoryServiceLayer(mem::Hierarchy *hier,
                                       MigrationPolicy policy,
                                       std::uint64_t seed)
    : _hier(hier), _iface(hier), _policy(policy), _rng(seed)
{
}

sim::Tick
MemoryServiceLayer::runTask(engine::ArrayRef &arr, std::uint64_t idx,
                            double operand, sim::Tick now)
{
    const mem::Addr addr = arr.addrOf(idx);
    const int home = _hier->l3().clusterOf(addr);
    const int host = _hier->mesh().hostNode();

    OffloadRecord rec;
    rec.start = now;
    _iface.setRecord(&rec);

    if (!_configured && _policy != MigrationPolicy::HostOnly) {
        // One-time: configure the task accelerator at every cluster
        // (the "already configured accelerator" of §IV-B).
        for (int c = 0; c < _hier->mesh().numNodes(); ++c)
            now = _iface.cpConfig(c, 64, now);
        _configured = true;
    }

    _stats.tasks += 1.0;

    bool migrate = false;
    switch (_policy) {
      case MigrationPolicy::HostOnly:
        migrate = false;
        break;
      case MigrationPolicy::CoinFlip:
        migrate = _rng.nextBelow(2) == 0;
        break;
      case MigrationPolicy::DataLocation:
        migrate = true;
        break;
    }

    // Functional effect is policy-independent.
    const double cur = arr.getF(idx);
    arr.setF(idx, std::min(cur, operand));

    if (!migrate) {
        // Host executes the read-modify-write through its hierarchy.
        const sim::Tick queued = std::max(now, _hostBusy);
        rec.add(Phase::Enqueue, queued - now);
        const auto rd =
            _hier->hostAccess(addr, arr.elemBytes, false, queued);
        const sim::Tick t = queued + rd.latency + 500;
        rec.add(Phase::Execute, t - queued);
        _hier->hostAccess(addr, arr.elemBytes, true, t);
        _hostBusy = t + 500;
        rec.add(Phase::Writeback, _hostBusy - t);
        if (home == host)
            _stats.localExecutions += 1.0;
        _iface.setRecord(nullptr);
        rec.end = _hostBusy;
        _lifecycle.add(rec);
        return _hostBusy;
    }

    _stats.migrated += 1.0;
    // Operand + index ride cp_set_rf; cp_run fires the task; the task
    // body is a near-data RMW through the target cluster's ACP.
    sim::Tick t = now;
    const int target =
        (_policy == MigrationPolicy::CoinFlip &&
         _rng.nextBelow(4) == 0)
            ? static_cast<int>(_rng.nextBelow(
                  static_cast<std::uint64_t>(
                      _hier->mesh().numNodes())))
            : home;
    t = _iface.cpSetRf(target, 0, compiler::Word{.f = operand}, t);
    t = _iface.cpSetRf(target, 1,
                       compiler::Word{static_cast<std::int64_t>(idx)},
                       t);
    t = _iface.cpRun(target, t);
    const auto rd =
        _hier->accelAccess(addr, arr.elemBytes, false, target, t);
    t += rd.latency + 1000; // compare + select on the task unit
    rec.add(Phase::Execute, rd.latency + 1000);
    _hier->accelAccess(addr, arr.elemBytes, true, target, t);
    if (target == home)
        _stats.localExecutions += 1.0;
    _iface.setRecord(nullptr);
    rec.end = t;
    _lifecycle.add(rec);
    return t;
}

} // namespace distda::offload
