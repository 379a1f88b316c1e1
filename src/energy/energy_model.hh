/**
 * @file
 * Dynamic-energy pricing in the spirit of McPAT/Cacti at 32nm.
 *
 * Simulation only counts events; energy is priced once, after the run,
 * as integer event counts times per-event costs (gem5 statistics fed
 * through McPAT do the same). A recorded set of counts can therefore be
 * re-priced under other EnergyParams without re-simulating.
 *
 * The evaluation reports *normalized* energy efficiency, so what matters
 * is that per-event costs sit in the right ratios: DRAM access >> L3
 * bank >> L2 >> L1 >> access-unit SRAM buffer >> ALU op, and an OoO
 * instruction (fetch/decode/rename/ROB/issue overheads included) costs
 * several times an in-order instruction, which in turn costs several
 * times a bare CGRA PE operation.
 */

#ifndef DISTDA_ENERGY_ENERGY_MODEL_HH
#define DISTDA_ENERGY_ENERGY_MODEL_HH

#include <array>
#include <cstdint>

namespace distda::energy
{

/** System components that consume dynamic energy. */
enum class Component : std::uint8_t
{
    OoOCore,     ///< host out-of-order pipeline
    IOCore,      ///< in-order accelerator core
    Cgra,        ///< CGRA fabric PEs and local routing
    L1,          ///< private L1 data cache
    L2,          ///< private L2 cache
    L3,          ///< one NUCA L3 bank access
    Dram,        ///< LPDDR access
    /**
     * Access-unit SRAM buffer port, charged once per channel produce or
     * consume. Access-unit fills and reads of the stream buffers
     * (accel::AccessStats::bufferAccesses) are not charged.
     */
    Buffer,
    Noc,         ///< on-chip network hop traversal
    Mmio,        ///< host-side MMIO intrinsic issue
    Acp,         ///< accelerator coherency port access
    NumComponents
};

constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(Component::NumComponents);

/** Human-readable component name, for stat registration. */
const char *componentName(Component c);

/**
 * Per-event energy costs in picojoules. Defaults approximate 32nm
 * McPAT/Cacti values for the Table III configuration.
 */
struct EnergyParams
{
    double oooPerInstPj = 320.0;    ///< full OoO pipeline per instruction
    double ioPerInstPj = 38.0;      ///< 1-issue in-order per instruction
    double cgraPerOpPj = 7.0;       ///< single PE operation + fabric hop
    double l1AccessPj = 30.0;       ///< 32KB 8-way per access
    double l2AccessPj = 80.0;       ///< 128KB 16-way per access
    double l3AccessPj = 180.0;      ///< 256KB bank per access
    double dramLinePj = 18000.0;    ///< LPDDR 64B line transfer
    double bufferAccessPj = 3.0;    ///< 4KB SRAM buffer, 8B access
    double nocHopFlitPj = 19.0;     ///< 8B flit: router + 2mm link
    double mmioPj = 200.0;          ///< uncached MMIO intrinsic
    double acpAccessPj = 8.0;       ///< 1KB ACP front-end access
};

/** The priced events of one run, counted by the simulated components. */
struct Counts
{
    std::uint64_t oooInsts = 0;
    /**
     * Accelerator instructions per substrate, split into full pipeline
     * passes and channel-port ops (produce/consume), which cost 0.4 of
     * a full pass. Port ops are also the Buffer events.
     */
    std::uint64_t ioOps = 0;
    std::uint64_t ioPortOps = 0;
    std::uint64_t cgraOps = 0;
    std::uint64_t cgraPortOps = 0;
    /** Cache array accesses: demand accesses plus prefetch fills. */
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l3Accesses = 0; ///< all banks
    std::uint64_t acpAccesses = 0; ///< ACPs + Mono-CA private cache
    std::uint64_t dramLines = 0;   ///< reads + writes
    std::uint64_t nocHopFlits = 0;
    std::uint64_t mmioOps = 0;
};

/** Energy per component in picojoules, indexed by Component. */
using Breakdown = std::array<double, kNumComponents>;

/**
 * Price @p counts under @p params. Accelerator instructions cost
 * @p inst_energy_scale times the substrate's per-instruction price (see
 * engine::EngineConfig::instEnergyScale).
 */
Breakdown price(const Counts &counts, const EnergyParams &params,
                double inst_energy_scale);

/** Sum of @p pj over all components, in Component order. */
double totalPj(const Breakdown &pj);

} // namespace distda::energy

#endif // DISTDA_ENERGY_ENERGY_MODEL_HH
