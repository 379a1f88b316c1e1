/**
 * @file
 * One simulated system instance: energy parameters, memory hierarchy,
 * slab-allocated accelerator-visible arena with real backing bytes, and
 * the object translation table. A fresh System is built per
 * (workload, configuration) run.
 */

#ifndef DISTDA_DRIVER_SYSTEM_HH
#define DISTDA_DRIVER_SYSTEM_HH

#include <memory>
#include <string>

#include "src/energy/energy_model.hh"
#include "src/engine/backend.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/slab_allocator.hh"

namespace distda::driver
{

/** System-wide construction parameters. */
struct SystemParams
{
    mem::HierarchyParams hierarchy;
    energy::EnergyParams energy;
    mem::Addr arenaBase = 0x1000'0000;
    std::uint64_t arenaBytes = 64ULL << 20;
    /**
     * Dist-DA-F+A: anchor each allocation to one L3 cluster for
     * intra-cluster locality instead of page interleaving.
     */
    bool allocAffinity = false;
};

/** The simulated platform shared by host and accelerators. */
class System
{
  public:
    explicit System(const SystemParams &params = SystemParams{})
        : _params(params), _hier(params.hierarchy),
          _slab(params.arenaBase, params.arenaBytes),
          _backend(params.arenaBase, params.arenaBytes)
    {
    }

    mem::Hierarchy &hier() { return _hier; }
    mem::SlabAllocator &slab() { return _slab; }
    engine::MemBackend &backend() { return _backend; }
    mem::ObjectTable &objects() { return _objects; }
    const SystemParams &params() const { return _params; }

    /**
     * The memory system's priced events: cache array accesses, DRAM
     * lines and NoC hop flits. Core and MMIO counts are the caller's.
     */
    energy::Counts
    memoryCounts()
    {
        energy::Counts c;
        c.l1Accesses = _hier.l1().arrayAccesses();
        c.l2Accesses = _hier.l2().arrayAccesses();
        for (int k = 0; k < _params.hierarchy.l3.clusters; ++k) {
            c.l3Accesses += _hier.l3().bank(k).arrayAccesses();
            c.acpAccesses += _hier.acp(k).arrayAccesses();
        }
        c.dramLines = _hier.dram().reads() + _hier.dram().writes();
        c.nocHopFlits = _hier.mesh().hopFlits();
        return c;
    }

    /** Allocate a data structure in the accelerator-visible arena. */
    engine::ArrayRef
    alloc(const std::string &name, std::uint64_t count,
          std::uint32_t elem_bytes, bool is_float)
    {
        const mem::Addr base = _slab.allocate(count * elem_bytes, name);
        if (_params.allocAffinity) {
            // Dist-DA-F+A: stripe each object across clusters in 32KB
            // chunks so an inner-loop window stays intra-cluster
            // without exceeding a single bank's capacity.
            const std::uint64_t chunk = 32 * 1024;
            const std::uint64_t bytes = count * elem_bytes;
            for (std::uint64_t off = 0; off < bytes; off += chunk) {
                _hier.l3().setAffinity(base + off,
                                       std::min(chunk, bytes - off),
                                       _nextAffinityCluster);
                _nextAffinityCluster = (_nextAffinityCluster + 1) %
                                       _params.hierarchy.l3.clusters;
            }
        }
        const int obj_id = _nextObjId++;
        _objects.registerObject(obj_id, base, count, elem_bytes, name);
        engine::ArrayRef ref;
        ref.base = base;
        ref.count = count;
        ref.elemBytes = elem_bytes;
        ref.isFloat = is_float;
        ref.mem = &_backend;
        return ref;
    }

  private:
    SystemParams _params;
    mem::Hierarchy _hier;
    mem::SlabAllocator _slab;
    engine::MemBackend _backend;
    mem::ObjectTable _objects;
    int _nextObjId = 0;
    int _nextAffinityCluster = 0;
};

} // namespace distda::driver

#endif // DISTDA_DRIVER_SYSTEM_HH
