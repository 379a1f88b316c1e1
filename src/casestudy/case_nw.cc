/**
 * @file
 * The nw control-intensive case study (Fig 12a): Needleman-Wunsch with
 * irregular data access patterns under user annotation.
 *  - Dist-DA-B:  the loop-blocked automated offload (one invocation
 *                per DP row, host-orchestrated);
 *  - Dist-DA-BN: the whole blocked loop nest offloaded; a control
 *                partition produces row bases that the compute
 *                partition consumes, pipelining rows through one
 *                continuous read-modify-write window over F;
 *  - Dist-DA-BNS: adds the user fill/drain schedule (Fig 5b): blocks
 *                are staged ahead (double buffering), so the compute
 *                partition never waits on the fill FSM.
 */

#include <algorithm>

#include "src/casestudy/case_common.hh"
#include "src/casestudy/case_spmv.hh"
#include "src/driver/context.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/offload/interface.hh"
#include "src/sim/rng.hh"
#include "src/workloads/common.hh"

namespace distda::casestudy
{

using driver::ExecContext;
using engine::ActorStatus;
using engine::ArrayRef;
using engine::Channel;

namespace
{

constexpr std::int64_t penalty = 10;

/** Deterministic nw dataset + reference (same generator as the suite). */
struct NwData
{
    std::int64_t n = 0;
    std::vector<std::int64_t> refm;
    std::vector<std::int64_t> initF;
    std::vector<std::int64_t> refF;
};

NwData
makeNwData(double scale)
{
    NwData d;
    d.n = workloads::scaled(512, scale, 16);
    const auto m = static_cast<std::size_t>(d.n + 1);
    sim::Rng rng(29);
    d.refm.resize(static_cast<std::size_t>(d.n * d.n));
    for (auto &v : d.refm)
        v = static_cast<std::int64_t>(rng.nextBelow(21)) - 10;
    d.initF.assign(m * m, 0);
    for (std::int64_t i = 0; i <= d.n; ++i) {
        d.initF[static_cast<std::size_t>(i) * m] = -penalty * i;
        d.initF[static_cast<std::size_t>(i)] = -penalty * i;
    }
    d.refF = d.initF;
    for (std::int64_t i = 1; i <= d.n; ++i) {
        for (std::int64_t j = 1; j <= d.n; ++j) {
            const auto fm = static_cast<std::int64_t>(m);
            const std::int64_t diag =
                d.refF[static_cast<std::size_t>((i - 1) * fm + j - 1)] +
                d.refm[static_cast<std::size_t>((i - 1) * d.n + j - 1)];
            const std::int64_t up =
                d.refF[static_cast<std::size_t>((i - 1) * fm + j)] -
                penalty;
            const std::int64_t left =
                d.refF[static_cast<std::size_t>(i * fm + j - 1)] -
                penalty;
            d.refF[static_cast<std::size_t>(i * fm + j)] =
                std::max(std::max(diag, up), left);
        }
    }
    return d;
}

/** Control partition: produces per-row base offsets (Fig 5a). */
class RowController : public CaseActor
{
  public:
    RowController(std::int64_t n, Channel *rows, noc::Mesh *mesh)
        : _n(n), _rows(rows), _mesh(mesh)
    {
    }

    ActorStatus
    run(std::int64_t budget) override
    {
        std::int64_t done = 0;
        while (_i <= _n) {
            if (done >= budget)
                return ActorStatus::Running;
            if (!tryProduce(*_rows,
                            ExecContext::wi(_i * (_n + 1)), *_mesh,
                            now))
                return ActorStatus::Blocked;
            now += 500;
            insts += 2.0; // bound compute + produce
            ++_i;
            ++done;
        }
        _rows->close();
        return ActorStatus::Finished;
    }

  private:
    std::int64_t _n;
    Channel *_rows;
    noc::Mesh *_mesh;
    std::int64_t _i = 1;
};

/**
 * Compute partition: one continuous RMW window over F (the diag/up
 * taps sit N+1 and N+2 elements behind the store lead, all within the
 * buffer) plus a sequential stream over the reference matrix.
 */
class NwComputeActor : public CaseActor
{
  public:
    NwComputeActor(const NwData &d, ArrayRef f, ArrayRef refm,
                   accel::StreamUnit *f_stream,
                   accel::StreamUnit *ref_stream, Channel *rows)
        : _d(d), _f(f), _refm(refm), _fs(f_stream), _rs(ref_stream),
          _rows(rows)
    {
    }

    ActorStatus
    run(std::int64_t budget) override
    {
        const auto m = _d.n + 1;
        std::int64_t done = 0;
        while (_row <= _d.n) {
            if (done >= budget)
                return ActorStatus::Running;
            if (_phase == 0) {
                compiler::Word w;
                if (!tryConsume(*_rows, w)) {
                    return _rows->drained() ? finish()
                                            : ActorStatus::Blocked;
                }
                now += 500;
                _rowBase = w.i;
                _j = 1;
                _phase = 1;
            }
            while (_j <= _d.n) {
                // Lead tap k counts stores in DP order.
                const std::int64_t k = _k;
                now = _fs->readAt(k, now,
                                  static_cast<std::int64_t>(m) + 1);
                now = _fs->readAt(k, now, static_cast<std::int64_t>(m));
                now = _fs->readAt(k, now, 1);
                now = _rs->readAt(k, now, 0);
                insts += 4.0;

                const std::int64_t i = _row;
                const std::int64_t j = _j;
                const std::int64_t diag =
                    _f.getI(static_cast<std::uint64_t>(
                        (i - 1) * m + j - 1)) +
                    _refm.getI(static_cast<std::uint64_t>(
                        (i - 1) * _d.n + j - 1));
                const std::int64_t up = _f.getI(static_cast<std::uint64_t>(
                                           (i - 1) * m + j)) -
                                       penalty;
                const std::int64_t left =
                    _f.getI(static_cast<std::uint64_t>(i * m + j - 1)) -
                    penalty;
                const std::int64_t best =
                    std::max(std::max(diag, up), left);
                _f.setI(static_cast<std::uint64_t>(i * m + j), best);
                now = _fs->writeAt(k, now, 0);
                now += 5 * 500; // adds/subs/maxes
                insts += 6.0;
                ++_k;
                ++_j;
            }
            _phase = 0;
            ++_row;
            ++done;
        }
        return finish();
    }

    sim::Tick finishTick = 0;

  private:
    ActorStatus
    finish()
    {
        if (!_flushed) {
            finishTick = _fs->flush(now);
            now = finishTick;
            _flushed = true;
        }
        return ActorStatus::Finished;
    }

    const NwData &_d;
    ArrayRef _f, _refm;
    accel::StreamUnit *_fs;
    accel::StreamUnit *_rs;
    Channel *_rows;
    std::int64_t _row = 1;
    std::int64_t _j = 1;
    std::int64_t _k = 0;
    std::int64_t _rowBase = 0;
    int _phase = 0;
    bool _flushed = false;
};

CaseResult
runNwBlockedNest(const NwData &d, bool staged, const char *label)
{
    const auto m = static_cast<std::uint64_t>(d.n + 1);
    driver::SystemParams sp;
    sp.arenaBytes = m * m * 4 +
                    static_cast<std::uint64_t>(d.n) * d.n * 4 +
                    (16 << 20);
    driver::System sys(sp);
    ArrayRef f = sys.alloc("F", m * m, 4, false);
    ArrayRef refm = sys.alloc("ref",
                              static_cast<std::uint64_t>(d.n) * d.n, 4,
                              false);
    for (std::size_t i = 0; i < d.initF.size(); ++i)
        f.setI(i, d.initF[i]);
    for (std::size_t i = 0; i < d.refm.size(); ++i)
        refm.setI(i, d.refm[i]);

    auto &hier = sys.hier();
    accel::AccessStats stats;
    const int c_f = hier.l3().clusterOf(f.base);
    const int c_host = hier.mesh().hostNode();

    auto port = [&hier](int cluster) {
        return accel::MemPort(
            [](void *ctx, mem::Addr ad, std::uint32_t s, bool w,
               sim::Tick tk) {
                return static_cast<mem::Cache *>(ctx)
                    ->access(ad, s, w, tk)
                    .latency;
            },
            &hier.acp(cluster));
    };

    // The F stream's lead tap walks stores in DP order; the store at
    // (i, j) sits at row-major address (i*m + j), which the DP-order
    // counter tracks closely enough for a per-element stream (one
    // element advance per iteration, one extra line per row).
    accel::StreamParams fp;
    fp.base = f.addrOf(static_cast<std::uint64_t>(d.n + 2));
    fp.strideBytes = 4;
    fp.elemBytes = 4;
    fp.hasLoads = true;
    fp.hasStores = true;
    fp.unitCluster = c_f;
    fp.consumerCluster = c_f;
    fp.capacityBytes = staged ? 8192 : 4096; // BNS double-buffers
    fp.totalElems = static_cast<std::uint64_t>(d.n) * d.n + m;
    accel::StreamUnit f_stream(fp, port(c_f), &hier.mesh(), &stats);

    accel::StreamParams rp;
    rp.base = refm.base;
    rp.strideBytes = 4;
    rp.elemBytes = 4;
    rp.unitCluster = c_f;
    rp.consumerCluster = c_f;
    rp.capacityBytes = staged ? 8192 : 4096;
    rp.totalElems = refm.count;
    accel::StreamUnit ref_stream(rp, port(c_f), &hier.mesh(), &stats);

    Channel rows(64, 8, true, c_host, c_f);

    offload::CoprocessorInterface iface(&hier);
    sim::Tick t0 = 0;
    t0 = iface.cpConfigStream(c_f, 0, fp.base, 4,
                              static_cast<std::uint32_t>(m * m * 4),
                              fp.capacityBytes, t0);
    t0 = iface.cpConfigStream(c_f, 1, rp.base, 4,
                              static_cast<std::uint32_t>(
                                  refm.sizeBytes()),
                              rp.capacityBytes, t0);
    if (staged) {
        // Fig 5b: explicit block prefill before the pipeline starts.
        t0 = iface.cpConfigRandom(c_f, 2, f.base,
                                  f.base + f.sizeBytes(), t0);
        sim::Tick fsm = t0;
        for (std::uint64_t off = 0; off < 8192; off += mem::lineBytes) {
            hier.accelAccess(f.base + off, mem::lineBytes, false, c_f,
                             fsm);
            fsm += 500;
        }
    }
    t0 = iface.cpRun(c_host, t0);
    t0 = iface.cpRun(c_f, t0);

    RowController ctrl(d.n, &rows, &hier.mesh());
    NwComputeActor compute(d, f, refm, &f_stream, &ref_stream, &rows);
    ctrl.now = t0;
    compute.now = t0;

    sim::Tick end = runActors({&ctrl, &compute});
    end = iface.cpConsumeDone(c_f, end, end);

    CaseResult res;
    res.config = label;
    res.timeNs = static_cast<double>(end) / 1000.0;
    std::vector<std::int64_t> got(d.refF.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        got[i] = f.getI(i);
    res.validated = got == d.refF;
    return res;
}

} // namespace

std::vector<CaseResult>
runNwCaseStudy(double scale)
{
    const NwData d = makeNwData(scale);
    std::vector<CaseResult> out;

    // OoO and the automated per-row offload reuse the suite workload
    // (identical generator and sizes).
    driver::RunOptions opts;
    opts.scale = scale;
    {
        driver::RunConfig cfg;
        cfg.model = driver::ArchModel::OoO;
        auto m = driver::runWorkload("nw", cfg, opts);
        out.push_back({"OoO", m.timeNs, m.validated});
    }
    {
        driver::RunConfig cfg;
        cfg.model = driver::ArchModel::DistDA_IO;
        auto m = driver::runWorkload("nw", cfg, opts);
        out.push_back({"Dist-DA-B", m.timeNs, m.validated});
    }
    out.push_back(runNwBlockedNest(d, false, "Dist-DA-BN"));
    out.push_back(runNwBlockedNest(d, true, "Dist-DA-BNS"));
    return out;
}

} // namespace distda::casestudy
