/**
 * @file
 * Custom-schedule example (the Fig 5b use case): drive the Table II
 * interface by hand, without the compiler — configure access units
 * with cp_config_stream / cp_config_random, fill a source block,
 * stream it through a reversal into a remote destination buffer, and
 * drain the result (cp_fill_ra / cp_drain_ra semantics). This is the
 * "user-specified schedule" path the §VI-D case studies build on.
 */

#include <cstdio>
#include <vector>

#include "src/accel/access_unit.hh"
#include "src/driver/system.hh"
#include "src/engine/channel.hh"
#include "src/offload/interface.hh"

using namespace distda;

int
main()
{
    setInformEnabled(false);
    driver::SystemParams sp;
    sp.arenaBytes = 8 << 20;
    driver::System sys(sp);

    const std::uint64_t n = 4096;
    auto src = sys.alloc("src", n, 8, true);
    auto dst = sys.alloc("dst", n, 8, true);
    for (std::uint64_t i = 0; i < n; ++i)
        src.setF(i, static_cast<double>(i));

    auto &hier = sys.hier();
    const int c_src = hier.l3().clusterOf(src.base);
    const int c_dst = hier.l3().clusterOf(dst.base);

    offload::CoprocessorInterface iface(&hier);

    // Host configuration, exactly the Fig 5b pseudocode: a
    // forward-stepping write access and reverse-stepping read access
    // share the source buffer; a third access fills the destination.
    sim::Tick t = 0;
    int buf_s = -1, buf_sr = -1, buf_d = -1;
    t = iface.cpConfigStream(c_src, /*accW*/ 0, src.base, 8,
                             static_cast<std::uint32_t>(n * 8), 4096, t,
                             &buf_s);
    t = iface.cpConfigStream(c_src, /*accR*/ 1, src.base, 8,
                             static_cast<std::uint32_t>(n * 8), 4096, t,
                             &buf_sr);
    t = iface.cpConfigStream(c_dst, /*accD*/ 2, dst.base, 8,
                             static_cast<std::uint32_t>(n * 8), 4096, t,
                             &buf_d);
    std::printf("scheduler combined accW/accR onto one buffer: %s "
                "(buf %d == buf %d)\n",
                buf_s == buf_sr ? "yes" : "no", buf_s, buf_sr);

    accel::AccessStats stats;
    auto port = [&hier](int cluster) {
        return accel::MemPort(
            [](void *ctx, mem::Addr a, std::uint32_t s, bool w,
               sim::Tick tk) {
                return static_cast<mem::Cache *>(ctx)
                    ->access(a, s, w, tk)
                    .latency;
            },
            &hier.acp(cluster));
    };

    accel::StreamParams rp;
    rp.base = src.base;
    rp.strideBytes = 8;
    rp.elemBytes = 8;
    rp.unitCluster = c_src;
    rp.consumerCluster = c_src;
    rp.totalElems = n;
    accel::StreamUnit read_stream(rp, port(c_src), &hier.mesh(),
                                  &stats);

    accel::StreamParams wp = rp;
    wp.base = dst.base;
    wp.hasLoads = false;
    wp.hasStores = true;
    wp.unitCluster = c_dst;
    wp.consumerCluster = c_dst;
    accel::StreamUnit write_stream(wp, port(c_dst), &hier.mesh(),
                                   &stats);

    engine::Channel channel(64, 8, false, c_src, c_dst);

    // Partition-1: cp_fill the source block, then repeatedly consume
    // and step (reverse order) producing into the network.
    // Partition-2: receive and write into the destination buffer; the
    // buffer drains to memory as it fills and flushes at the end.
    sim::Tick p1 = iface.cpRun(c_src, t);
    sim::Tick p2 = iface.cpRun(c_dst, t);
    std::uint64_t sent = 0, received = 0;
    while (received < n) {
        while (sent < n && !channel.full()) {
            const std::uint64_t k = n - 1 - sent; // reverse stepping
            p1 = read_stream.readAt(static_cast<std::int64_t>(k), p1,
                                    0);
            compiler::Word w;
            w.f = src.getF(k);
            auto xfer = hier.mesh().transfer(
                c_src, c_dst, 8, noc::TrafficClass::AccData, p1);
            channel.push(w, p1 + xfer.latency);
            p1 += 500;
            ++sent;
        }
        while (!channel.empty()) {
            const auto &item = channel.front();
            p2 = std::max(p2, item.readyAt) + 500;
            dst.setF(received, item.value.f);
            p2 = write_stream.writeAt(
                static_cast<std::int64_t>(received), p2, 0);
            channel.pop();
            ++received;
        }
    }
    const sim::Tick done = write_stream.flush(p2);

    // Validate the reversal.
    bool ok = true;
    for (std::uint64_t i = 0; i < n; ++i)
        ok = ok && dst.getF(i) == src.getF(n - 1 - i);

    std::printf("reversed %llu elements in %.2f us (%s)\n",
                static_cast<unsigned long long>(n),
                static_cast<double>(done) / 1e6,
                ok ? "validated" : "MISMATCH");
    std::printf("traffic: intra=%.0fB, D-A=%.0fB, A-A over NoC=%.0fB, "
                "MMIO ops=%llu\n",
                stats.intraBytes, stats.daBytes,
                hier.mesh().bytesInClass(noc::TrafficClass::AccData),
                static_cast<unsigned long long>(iface.mmioOps()));
    return ok ? 0 : 1;
}
