/**
 * @file
 * Tests for the functional memory backend (typed element storage the
 * whole suite's validation rests on) and the analytical OoO host
 * executor (issue bounds, memory-port bounds, recurrence floors,
 * pointer-chase serialization).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/compiler/dfg.hh"
#include "src/driver/system.hh"
#include "src/engine/backend.hh"
#include "src/engine/host_exec.hh"

using namespace distda;
using compiler::KernelBuilder;
using compiler::Word;
using engine::HostExecutor;
using engine::MemBackend;

TEST(Backend, RoundTripsEveryElementWidth)
{
    MemBackend mem(0x1000, 4096);
    // 8/4/2/1-byte integers, sign extension included.
    for (std::uint32_t bytes : {1u, 2u, 4u, 8u}) {
        Word w;
        w.i = -5;
        mem.store(0x1000, w, bytes, false);
        EXPECT_EQ(mem.load(0x1000, bytes, false).i, -5)
            << bytes << " bytes";
        w.i = 100;
        mem.store(0x1000, w, bytes, false);
        EXPECT_EQ(mem.load(0x1000, bytes, false).i, 100);
    }
    // 4-byte float narrows; 8-byte double is exact.
    Word f;
    f.f = 1.0 / 3.0;
    mem.store(0x1100, f, 8, true);
    EXPECT_EQ(mem.load(0x1100, 8, true).f, 1.0 / 3.0);
    mem.store(0x1108, f, 4, true);
    EXPECT_EQ(mem.load(0x1108, 4, true).f,
              static_cast<double>(static_cast<float>(1.0 / 3.0)));
}

TEST(Backend, NarrowIntegersTruncate)
{
    MemBackend mem(0, 64);
    Word w;
    w.i = 0x1FF;
    mem.store(0, w, 1, false);
    EXPECT_EQ(mem.load(0, 1, false).i, -1); // 0xFF sign-extended
}

TEST(Backend, OutOfArenaPanics)
{
    MemBackend mem(0x1000, 64);
    Word w{};
    EXPECT_DEATH(mem.store(0x0800, w, 8, false), "outside");
    EXPECT_DEATH((void)mem.load(0x1000 + 60, 8, false), "outside");
}

TEST(ArrayRef, TypedViews)
{
    MemBackend mem(0x2000, 4096);
    engine::ArrayRef arr;
    arr.base = 0x2000;
    arr.count = 16;
    arr.elemBytes = 4;
    arr.isFloat = false;
    arr.mem = &mem;
    arr.setI(3, -17);
    EXPECT_EQ(arr.getI(3), -17);
    EXPECT_EQ(arr.addrOf(3), 0x2000u + 12);
    EXPECT_EQ(arr.sizeBytes(), 64u);
}

namespace
{

/** Streaming kernel: out[i] = a[i] + b[i]. */
compiler::Kernel
streamKernel(std::int64_t trip)
{
    KernelBuilder kb("hx_stream");
    const int a = kb.object("A", 4096, 8, true);
    const int b = kb.object("B", 4096, 8, true);
    const int c = kb.object("C", 4096, 8, true);
    kb.loopStatic(trip);
    kb.store(c, kb.affine(0, 1),
             kb.fadd(kb.load(a, kb.affine(0, 1)),
                     kb.load(b, kb.affine(0, 1))));
    return kb.build();
}

/** FP reduction kernel with a 2-op carried chain. */
compiler::Kernel
reduceKernel(std::int64_t trip)
{
    KernelBuilder kb("hx_reduce");
    const int a = kb.object("A", 4096, 8, true);
    kb.loopStatic(trip);
    auto s = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(
        s, kb.fadd(s, kb.fmul(kb.load(a, kb.affine(0, 1)),
                              kb.constFloat(2.0))));
    kb.markResult(s);
    return kb.build();
}

struct HostRun
{
    double nsPerIter;
    engine::HostRunResult res;
};

HostRun
runOnHost(const compiler::Kernel &kernel, std::int64_t trip)
{
    driver::SystemParams sp;
    driver::System sys(sp);
    std::vector<engine::ArrayRef> arrays;
    for (const auto &obj : kernel.objects) {
        auto arr = sys.alloc(obj.name, obj.elemCount, obj.elemBytes,
                             obj.isFloat);
        for (std::uint64_t i = 0; i < arr.count; ++i)
            arr.setF(i, 1.0);
        arrays.push_back(arr);
    }
    HostExecutor exec(kernel, &sys.hier(), &sys.backend());
    HostRun r;
    r.res = exec.run(arrays, {}, 0);
    r.nsPerIter = static_cast<double>(r.res.endTick) / 1000.0 /
                  static_cast<double>(trip);
    return r;
}

} // namespace

TEST(HostExec, IssueWidthBoundsThroughput)
{
    const auto run = runOnHost(streamKernel(2048), 2048);
    // 3 accesses + 1 add + 4 overhead = 8 ops at sustained IPC 1.2
    // (~6.7 cycles = 3.3ns), plus memory-port and stall terms.
    EXPECT_GT(run.nsPerIter, 3.0);
    EXPECT_LT(run.nsPerIter, 8.0);
    EXPECT_DOUBLE_EQ(run.res.memOps, 3.0 * 2048);
}

TEST(HostExec, RecurrenceFloorsIterationTime)
{
    // fadd+fmul carried chain: >= 6 cycles = 3ns per iteration even
    // though the op count alone would allow less.
    const auto run = runOnHost(reduceKernel(2048), 2048);
    EXPECT_GE(run.nsPerIter, 2.9);
    ASSERT_EQ(run.res.results.size(), 1u);
    EXPECT_DOUBLE_EQ(run.res.results[0].second.f, 2.0 * 2048);
}

TEST(HostExec, PointerChaseSerializesOnMemory)
{
    KernelBuilder kb("hx_chase");
    const std::uint64_t n = 1 << 16; // 512KB, far beyond L1/L2
    const int next = kb.object("next", n, 8, false);
    kb.loopStatic(512);
    auto p = kb.carry(Word{0}, false);
    kb.setCarry(p, kb.loadIdx(next, p));
    kb.markResult(p);
    const auto kernel = kb.build();

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("next", n, 8, false);
    // A full-cycle permutation with large jumps: every hop leaves the
    // private caches.
    for (std::uint64_t i = 0; i < n; ++i)
        arr.setI(i, static_cast<std::int64_t>((i + 8191) % n));
    HostExecutor exec(kernel, &sys.hier(), &sys.backend());
    const auto res = exec.run({arr}, {}, 0);
    // Every iteration pays a full dependent memory latency: far above
    // the issue bound of ~5 cycles.
    EXPECT_GT(static_cast<double>(res.endTick) / 512.0, 5000.0);
}

TEST(HostExec, CountsTheSameInstructionsEveryIteration)
{
    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 4096, 8, true);
    const auto kernel = reduceKernel(256);
    HostExecutor exec(kernel, &sys.hier(), &sys.backend());
    const engine::HostRunResult res = exec.run({arr}, {}, 0);
    // Priced as OoO instructions by energy::price at the end of a run.
    EXPECT_GT(res.insts, 0.0);
    EXPECT_DOUBLE_EQ(std::fmod(res.insts, 256.0), 0.0);
}

TEST(HostExec, ParamExtentControlsTrip)
{
    KernelBuilder kb("hx_param");
    const int a = kb.object("A", 4096, 8, true);
    const int pt = kb.param("trip");
    kb.loopFromParam(pt);
    auto s = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(s, kb.fadd(s, kb.load(a, kb.affine(0, 1))));
    kb.markResult(s);
    const auto kernel = kb.build();

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 4096, 8, true);
    for (std::uint64_t i = 0; i < arr.count; ++i)
        arr.setF(i, 1.0);
    HostExecutor exec(kernel, &sys.hier(), &sys.backend());
    Word t;
    t.i = 77;
    const auto res = exec.run({arr}, {t}, 0);
    EXPECT_DOUBLE_EQ(res.results[0].second.f, 77.0);
}

TEST(HostExec, ParamTermsShiftAffineAccessesPerRun)
{
    // B[i] = A[2 + 3*off + i]: the param term of the load's base is
    // folded per run, so a second run with another offset must move.
    KernelBuilder kb("hx_shift");
    const int a = kb.object("A", 256, 8, false);
    const int b = kb.object("B", 64, 8, false);
    const int off = kb.param("off");
    kb.loopStatic(64);
    kb.store(b, kb.affine(0, 1),
             kb.load(a, kb.affineP(2, 1, {{off, 3}})));
    const auto kernel = kb.build();

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr_a = sys.alloc("A", 256, 8, false);
    auto arr_b = sys.alloc("B", 64, 8, false);
    for (std::uint64_t i = 0; i < arr_a.count; ++i)
        arr_a.setI(i, static_cast<std::int64_t>(i) * 10);
    HostExecutor exec(kernel, &sys.hier(), &sys.backend());
    for (std::int64_t o : {5, 7}) {
        Word w;
        w.i = o;
        const auto res = exec.run({arr_a, arr_b}, {w}, 0);
        EXPECT_DOUBLE_EQ(res.memOps, 2.0 * 64);
        for (std::uint64_t i = 0; i < 64; ++i) {
            EXPECT_EQ(arr_b.getI(i),
                      (2 + 3 * o + static_cast<std::int64_t>(i)) * 10)
                << "off " << o << " i " << i;
        }
    }
}

TEST(HostExec, PredicatedStoreWritesOnlyWhenTrue)
{
    // B[i] = A[i] where A[i] < 50: five stores land, the rest of B
    // keeps its fill, and every store still counts as a memory op.
    KernelBuilder kb("hx_pred");
    const int a = kb.object("A", 64, 8, false);
    const int b = kb.object("B", 64, 8, false);
    kb.loopStatic(64);
    const auto x = kb.load(a, kb.affine(0, 1));
    kb.storeIf(kb.compute(compiler::OpCode::ICmpLt, x, kb.constInt(50)),
               b, kb.affine(0, 1), x);
    const auto kernel = kb.build();

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr_a = sys.alloc("A", 64, 8, false);
    auto arr_b = sys.alloc("B", 64, 8, false);
    for (std::uint64_t i = 0; i < 64; ++i) {
        arr_a.setI(i, static_cast<std::int64_t>(i) * 10);
        arr_b.setI(i, -1);
    }
    HostExecutor exec(kernel, &sys.hier(), &sys.backend());
    const double l1_before = sys.hier().l1().accesses();
    const auto res = exec.run({arr_a, arr_b}, {}, 0);
    EXPECT_DOUBLE_EQ(res.memOps, 2.0 * 64);
    // 64 loads and 5 stores reach the hierarchy.
    EXPECT_DOUBLE_EQ(sys.hier().l1().accesses() - l1_before, 64.0 + 5.0);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(arr_b.getI(i),
                  i < 5 ? static_cast<std::int64_t>(i) * 10 : -1)
            << i;
    }
}
