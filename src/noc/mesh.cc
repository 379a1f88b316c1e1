#include "src/noc/mesh.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <set>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::noc
{

const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::Ctrl: return "ctrl";
      case TrafficClass::Data: return "data";
      case TrafficClass::AccCtrl: return "acc_ctrl";
      case TrafficClass::AccData: return "acc_data";
      default: panic("bad traffic class %d", static_cast<int>(c));
    }
}

Mesh::Mesh(const MeshParams &params)
    : _params(params), _clock(params.clockHz),
      _routerBusyUntil(static_cast<std::size_t>(numNodes()), 0)
{
    if (params.cols < 1 || params.rows < 1)
        fatal("mesh dimensions must be positive");
    if (params.hostNode < 0 || params.hostNode >= numNodes())
        fatal("host node %d outside mesh", params.hostNode);
    if (!std::has_single_bit(params.linkBytes) ||
        !std::has_single_bit(params.flitBytes))
        fatal("mesh link (%u) and flit (%u) bytes must be powers of two",
              params.linkBytes, params.flitBytes);
    _linkShift = std::countr_zero(params.linkBytes);
    _flitShift = std::countr_zero(params.flitBytes);
    const int n = numNodes();
    _hops.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
            _hops[static_cast<std::size_t>(src * n + dst)] =
                std::abs(nodeX(src) - nodeX(dst)) +
                std::abs(nodeY(src) - nodeY(dst));
        }
    }
}

void
Mesh::setProbe(sim::Probe *probe)
{
    _probe = probe;
    _nodeTracks.clear();
    _pktBytes = nullptr;
    _pktHops = nullptr;
    if (!probe)
        return;
    _nodeTracks.reserve(static_cast<std::size_t>(numNodes()));
    for (int n = 0; n < numNodes(); ++n)
        _nodeTracks.push_back(probe->addTrack(n, "noc"));
    _pktBytes = &probe->addDist("noc.packet_bytes", 0.0, 128.0, 16);
    _pktHops = &probe->addDist("noc.packet_hops", 0.0, 8.0, 8);
}

void
Mesh::recordTransfer(int src, int nhops, std::uint32_t bytes,
                     TrafficClass cls, sim::Tick start, sim::Tick end)
{
    // trafficClassName returns string literals, satisfying the probe's
    // static-storage span-name contract.
    _probe->span(_nodeTracks[static_cast<std::size_t>(src)],
                 trafficClassName(cls), start, end);
    _pktBytes->sample(static_cast<double>(bytes));
    _pktHops->sample(static_cast<double>(nhops));
}

TransferResult
Mesh::multicast(int src, const std::vector<int> &dsts, std::uint32_t bytes,
                TrafficClass cls, sim::Tick now)
{
    if (dsts.empty())
        return TransferResult{0, 0};
    if (_probe) {
        _probe->instant(_nodeTracks[static_cast<std::size_t>(src)],
                        "multicast", now);
    }

    // Build the set of unique links along the XY paths; hop flits and
    // bytes are charged once per unique link (tree forwarding).
    std::set<std::pair<int, int>> links;
    int max_hops = 0;
    for (int dst : dsts) {
        max_hops = std::max(max_hops, hops(src, dst));
        int x = nodeX(src), y = nodeY(src);
        const int tx = nodeX(dst), ty = nodeY(dst);
        int cur = src;
        while (x != tx || y != ty) {
            if (x != tx)
                x += (tx > x) ? 1 : -1;
            else
                y += (ty > y) ? 1 : -1;
            int nxt = y * _params.cols + x;
            links.insert({cur, nxt});
            cur = nxt;
        }
    }

    const auto idx = static_cast<std::size_t>(cls);
    _bytes[idx] += static_cast<double>(bytes) * links.size() /
                   std::max<std::size_t>(hops(src, dsts.front()), 1);
    ++_packets[idx];

    const std::uint64_t flits =
        (bytes + _params.flitBytes - 1) >> _flitShift;
    _totalHopFlits += flits * links.size();

    const sim::Cycles ser_cycles =
        (bytes + _params.linkBytes - 1) >> _linkShift;
    const sim::Tick latency = _clock.cyclesToTicks(
        static_cast<sim::Cycles>(max_hops) * _params.hopCycles +
        std::max<sim::Cycles>(ser_cycles, 1));
    return TransferResult{latency, max_hops};
}

double
Mesh::bytesInClass(TrafficClass cls) const
{
    return _bytes[static_cast<std::size_t>(cls)];
}

double
Mesh::totalBytes() const
{
    double total = 0.0;
    for (double b : _bytes)
        total += b;
    return total;
}

void
Mesh::exportStats(stats::Group &group) const
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TrafficClass::NumClasses); ++i) {
        auto cls = static_cast<TrafficClass>(i);
        group.add(std::string("noc_bytes.") + trafficClassName(cls)) =
            _bytes[i];
        group.add(std::string("noc_packets.") + trafficClassName(cls)) =
            _packets[i];
    }
    group.add("noc_bytes.total") = totalBytes();
    group.add("noc_hop_flits") = _totalHopFlits;
}

} // namespace distda::noc
