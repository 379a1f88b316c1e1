#include "src/energy/energy_model.hh"

#include "src/sim/logging.hh"

namespace distda::energy
{

const char *
componentName(Component c)
{
    switch (c) {
      case Component::OoOCore: return "ooo_core";
      case Component::IOCore: return "io_core";
      case Component::Cgra: return "cgra";
      case Component::L1: return "l1";
      case Component::L2: return "l2";
      case Component::L3: return "l3";
      case Component::Dram: return "dram";
      case Component::Buffer: return "buffer";
      case Component::Noc: return "noc";
      case Component::Mmio: return "mmio";
      case Component::Acp: return "acp";
      default: panic("bad energy component %d", static_cast<int>(c));
    }
}

Breakdown
price(const Counts &counts, const EnergyParams &params,
      double inst_energy_scale)
{
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    // Full pipeline passes and port ops at their own per-op prices.
    const auto accel = [&](std::uint64_t ops, std::uint64_t port_ops,
                           double pj) {
        return n(ops) * (pj * inst_energy_scale) +
               n(port_ops) * (pj * (inst_energy_scale * 0.4));
    };
    Breakdown pj{};
    const auto set = [&pj](Component c, double v) {
        pj[static_cast<std::size_t>(c)] = v;
    };
    set(Component::OoOCore, n(counts.oooInsts) * params.oooPerInstPj);
    set(Component::IOCore,
        accel(counts.ioOps, counts.ioPortOps, params.ioPerInstPj));
    set(Component::Cgra,
        accel(counts.cgraOps, counts.cgraPortOps, params.cgraPerOpPj));
    set(Component::L1, n(counts.l1Accesses) * params.l1AccessPj);
    set(Component::L2, n(counts.l2Accesses) * params.l2AccessPj);
    set(Component::L3, n(counts.l3Accesses) * params.l3AccessPj);
    set(Component::Dram, n(counts.dramLines) * params.dramLinePj);
    set(Component::Buffer, n(counts.ioPortOps + counts.cgraPortOps) *
                               params.bufferAccessPj);
    set(Component::Noc, n(counts.nocHopFlits) * params.nocHopFlitPj);
    set(Component::Mmio, n(counts.mmioOps) * params.mmioPj);
    set(Component::Acp, n(counts.acpAccesses) * params.acpAccessPj);
    return pj;
}

double
totalPj(const Breakdown &pj)
{
    double total = 0.0;
    for (double v : pj)
        total += v;
    return total;
}

} // namespace distda::energy
