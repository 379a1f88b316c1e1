/**
 * @file
 * The architecture interface of Table II: MMIO-based software
 * intrinsics through which the host allocates, configures and launches
 * distributed accelerator resources, and through which accelerators
 * communicate as peers.
 *
 * Host-issued intrinsics cost one uncached MMIO operation plus a NoC
 * control transfer to the target cluster; accelerator-local dataflow
 * mechanisms (cp_produce/cp_consume/cp_step) execute in the actors at
 * single-cycle cost and are realized by the engine's channels and
 * stream units.
 */

#ifndef DISTDA_OFFLOAD_INTERFACE_HH
#define DISTDA_OFFLOAD_INTERFACE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "src/compiler/dfg.hh"
#include "src/mem/hierarchy.hh"
#include "src/offload/lifecycle.hh"

namespace distda::offload
{

/**
 * The hardware scheduler of Fig 2b: maintains the buffer allocation
 * table (access-id to buf-id, per application context) and performs
 * multi-access combining at allocation time (Fig 2d).
 */
class AccelScheduler
{
  public:
    struct BufferEntry
    {
        int bufId = -1;
        int accessId = -1;
        int cluster = 0;
        mem::Addr start = 0;
        std::int64_t strideBytes = 0;
        std::uint32_t lengthBytes = 0;
        bool random = false;
        int combinedInto = -1; ///< buf-id this access was merged into
    };

    /**
     * Allocate a strided access; combining merges it into an existing
     * buffer on the same cluster when the runtime access distance fits
     * the buffer window (Fig 2d case 1). Returns the buf-id.
     */
    int allocStream(int access_id, int cluster, mem::Addr start,
                    std::int64_t stride_bytes, std::uint32_t length_bytes,
                    std::uint32_t buffer_bytes);

    /** Allocate a random-access window [start, end). */
    int allocRandom(int access_id, int cluster, mem::Addr start,
                    mem::Addr end);

    /** Free a buffer allocation. */
    void free(int buf_id);

    /** Look up the buffer backing @p access_id (-1 when absent). */
    int bufOf(int access_id) const;

    const std::map<int, BufferEntry> &table() const { return _table; }
    std::size_t liveBuffers() const { return _table.size(); }

    /**
     * The Fig 2d combining rule: accesses at constant distance @p
     * distance_bytes share a buffer when the trailing window fits.
     */
    static bool
    shouldCombine(std::int64_t distance_bytes,
                  std::uint32_t buffer_bytes)
    {
        return distance_bytes >= 0 &&
               static_cast<std::uint64_t>(distance_bytes) +
                       mem::lineBytes <=
                   buffer_bytes;
    }

  private:
    int _nextBuf = 0;
    std::map<int, BufferEntry> _table;   ///< buf-id -> entry
    std::map<int, int> _accessToBuf;     ///< access-id -> buf-id
};

/** Host-side view of the interface; counts MMIO traffic for Table VI. */
class CoprocessorInterface
{
  public:
    explicit CoprocessorInterface(mem::Hierarchy *hier);

    AccelScheduler &scheduler() { return _sched; }

    /** cp_config: transfer an offload configuration of @p bytes. */
    sim::Tick cpConfig(int cluster, std::uint32_t config_bytes,
                       sim::Tick now);

    /** cp_config_stream: allocate a strided access unit. */
    sim::Tick cpConfigStream(int cluster, int access_id, mem::Addr start,
                             std::int64_t stride_bytes,
                             std::uint32_t length_bytes,
                             std::uint32_t buffer_bytes, sim::Tick now,
                             int *buf_id = nullptr);

    /** cp_config_random: allocate a random access window. */
    sim::Tick cpConfigRandom(int cluster, int access_id, mem::Addr start,
                             mem::Addr end, sim::Tick now,
                             int *buf_id = nullptr);

    /** cp_set_rf: write a scalar into an accelerator register. */
    sim::Tick cpSetRf(int cluster, int reg, compiler::Word value,
                      sim::Tick now);

    /** cp_load_rf: read a scalar back (value delivered by the engine). */
    sim::Tick cpLoadRf(int cluster, int reg, sim::Tick now);

    /** cp_run: start an offload. */
    sim::Tick cpRun(int cluster, sim::Tick now);

    /** Host-side blocking cp_consume (waits for a done token). */
    sim::Tick cpConsumeDone(int cluster, sim::Tick ready, sim::Tick now);

    /** MMIO operations issued so far (Table VI %init numerator). */
    std::uint64_t mmioOps() const { return _mmioOps; }

    /** Control bytes pushed for configurations. */
    double configBytes() const { return _configBytes; }

    /**
     * Attach the per-invocation lifecycle record host-time deltas are
     * attributed to: each intrinsic adds (returned tick - now) to its
     * phase — cp_config to Decode, cp_config_stream/random to
     * BufferAlloc, cp_set_rf to Enqueue, cp_run to Dispatch and
     * cp_load_rf to Complete. Null (the default) disables attribution;
     * cp_consume is left to the caller, whose done-token bookkeeping
     * is not a simple delta of the host timeline.
     */
    void setRecord(OffloadRecord *rec) { _rec = rec; }

  private:
    /**
     * One MMIO intrinsic: an MMIO op + NoC control transfer. Posted
     * writes (configs, cp_set_rf) cost the host one issue cycle;
     * synchronous intrinsics (cp_run, cp_load_rf) wait for the ack.
     */
    sim::Tick mmio(int cluster, std::uint32_t bytes, sim::Tick now,
                   bool posted);

    /** mmio() plus phase attribution of the host-visible delta. */
    sim::Tick mmioPhase(Phase phase, int cluster, std::uint32_t bytes,
                        sim::Tick now, bool posted);

    mem::Hierarchy *_hier;
    AccelScheduler _sched;
    OffloadRecord *_rec = nullptr;
    std::uint64_t _mmioOps = 0;
    double _configBytes = 0.0;
};

} // namespace distda::offload

#endif // DISTDA_OFFLOAD_INTERFACE_HH
