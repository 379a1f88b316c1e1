#include "src/offload/interface.hh"

#include <cstdlib>

#include "src/sim/logging.hh"

namespace distda::offload
{

int
AccelScheduler::allocStream(int access_id, int cluster, mem::Addr start,
                            std::int64_t stride_bytes,
                            std::uint32_t length_bytes,
                            std::uint32_t buffer_bytes)
{
    // Multi-access combining: an existing stream on this cluster with
    // the same stride whose window covers the new access at constant
    // distance absorbs it (Fig 2d case 1).
    for (auto &[buf, entry] : _table) {
        if (entry.random || entry.cluster != cluster)
            continue;
        if (entry.strideBytes != stride_bytes)
            continue;
        const std::int64_t dist = std::llabs(
            static_cast<std::int64_t>(entry.start) -
            static_cast<std::int64_t>(start));
        if (shouldCombine(dist, buffer_bytes)) {
            _accessToBuf[access_id] = buf;
            return buf;
        }
    }
    const int buf = _nextBuf++;
    BufferEntry e;
    e.bufId = buf;
    e.accessId = access_id;
    e.cluster = cluster;
    e.start = start;
    e.strideBytes = stride_bytes;
    e.lengthBytes = length_bytes;
    _table[buf] = e;
    _accessToBuf[access_id] = buf;
    return buf;
}

int
AccelScheduler::allocRandom(int access_id, int cluster, mem::Addr start,
                            mem::Addr end)
{
    const int buf = _nextBuf++;
    BufferEntry e;
    e.bufId = buf;
    e.accessId = access_id;
    e.cluster = cluster;
    e.start = start;
    e.lengthBytes = static_cast<std::uint32_t>(
        std::min<mem::Addr>(end - start, ~std::uint32_t(0)));
    e.random = true;
    _table[buf] = e;
    _accessToBuf[access_id] = buf;
    return buf;
}

void
AccelScheduler::free(int buf_id)
{
    auto it = _table.find(buf_id);
    if (it == _table.end())
        panic("scheduler free of unknown buf %d", buf_id);
    for (auto a = _accessToBuf.begin(); a != _accessToBuf.end();) {
        if (a->second == buf_id)
            a = _accessToBuf.erase(a);
        else
            ++a;
    }
    _table.erase(it);
}

int
AccelScheduler::bufOf(int access_id) const
{
    auto it = _accessToBuf.find(access_id);
    return it == _accessToBuf.end() ? -1 : it->second;
}

CoprocessorInterface::CoprocessorInterface(mem::Hierarchy *hier)
    : _hier(hier)
{
}

sim::Tick
CoprocessorInterface::mmio(int cluster, std::uint32_t bytes,
                           sim::Tick now, bool posted)
{
    ++_mmioOps;
    const int host = _hier->mesh().hostNode();
    auto req = _hier->mesh().transfer(host, cluster, bytes,
                                      noc::TrafficClass::Ctrl, now);
    if (posted) {
        // Posted MMIO write: the host issues and moves on (one core
        // cycle); the write drains through the NoC behind it.
        return now + 500;
    }
    auto ack = _hier->mesh().transfer(cluster, host, 8,
                                      noc::TrafficClass::Ctrl,
                                      now + req.latency);
    return now + req.latency + ack.latency;
}

sim::Tick
CoprocessorInterface::mmioPhase(Phase phase, int cluster,
                                std::uint32_t bytes, sim::Tick now,
                                bool posted)
{
    const sim::Tick done = mmio(cluster, bytes, now, posted);
    if (_rec)
        _rec->add(phase, done - now);
    return done;
}

sim::Tick
CoprocessorInterface::cpConfig(int cluster, std::uint32_t config_bytes,
                               sim::Tick now)
{
    _configBytes += config_bytes;
    return mmioPhase(Phase::Decode, cluster, 8 + config_bytes, now,
                     true);
}

sim::Tick
CoprocessorInterface::cpConfigStream(int cluster, int access_id,
                                     mem::Addr start,
                                     std::int64_t stride_bytes,
                                     std::uint32_t length_bytes,
                                     std::uint32_t buffer_bytes,
                                     sim::Tick now, int *buf_id)
{
    const int buf = _sched.allocStream(access_id, cluster, start,
                                       stride_bytes, length_bytes,
                                       buffer_bytes);
    if (buf_id)
        *buf_id = buf;
    // start/stride/length/args
    return mmioPhase(Phase::BufferAlloc, cluster, 32, now, true);
}

sim::Tick
CoprocessorInterface::cpConfigRandom(int cluster, int access_id,
                                     mem::Addr start, mem::Addr end,
                                     sim::Tick now, int *buf_id)
{
    const int buf = _sched.allocRandom(access_id, cluster, start, end);
    if (buf_id)
        *buf_id = buf;
    return mmioPhase(Phase::BufferAlloc, cluster, 24, now, true);
}

sim::Tick
CoprocessorInterface::cpSetRf(int cluster, int reg, compiler::Word value,
                              sim::Tick now)
{
    (void)reg;
    (void)value;
    return mmioPhase(Phase::Enqueue, cluster, 16, now, true);
}

sim::Tick
CoprocessorInterface::cpLoadRf(int cluster, int reg, sim::Tick now)
{
    (void)reg;
    return mmioPhase(Phase::Complete, cluster, 8, now, false);
}

sim::Tick
CoprocessorInterface::cpRun(int cluster, sim::Tick now)
{
    // The launch must reach the accelerator before execution starts.
    return mmioPhase(Phase::Dispatch, cluster, 8, now, false);
}

sim::Tick
CoprocessorInterface::cpConsumeDone(int cluster, sim::Tick ready,
                                    sim::Tick now)
{
    // The done token rides the NoC as inter-accelerator control.
    const int host = _hier->mesh().hostNode();
    auto token = _hier->mesh().transfer(cluster, host, 8,
                                        noc::TrafficClass::AccCtrl,
                                        ready);
    return std::max(now, ready + token.latency);
}

} // namespace distda::offload
