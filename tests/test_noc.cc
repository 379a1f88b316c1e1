/**
 * @file
 * Unit tests for the mesh NoC: XY routing properties over every node
 * pair, latency/serialization behaviour, traffic-class byte
 * conservation, multicast link sharing and the flit-hop count that
 * NoC energy is priced from.
 */

#include <gtest/gtest.h>

#include "death_helpers.hh"
#include "src/noc/mesh.hh"

using namespace distda;

namespace
{

noc::Mesh
makeMesh()
{
    return noc::Mesh(noc::MeshParams{});
}

} // namespace

TEST(Mesh, HopCountIsManhattanDistance)
{
    auto mesh = makeMesh();
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            const int ax = a % 4, ay = a / 4;
            const int bx = b % 4, by = b / 4;
            EXPECT_EQ(mesh.hops(a, b),
                      std::abs(ax - bx) + std::abs(ay - by));
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
        }
    }
}

TEST(Mesh, HopTableMatchesManhattanOnEveryGeometry)
{
    for (const auto &[cols, rows] :
         {std::make_pair(4, 2), std::make_pair(8, 8)}) {
        noc::MeshParams p;
        p.cols = cols;
        p.rows = rows;
        const noc::Mesh mesh(p);
        for (int a = 0; a < cols * rows; ++a) {
            for (int b = 0; b < cols * rows; ++b) {
                EXPECT_EQ(mesh.hops(a, b),
                          std::abs(a % cols - b % cols) +
                              std::abs(a / cols - b / cols))
                    << cols << "x" << rows << " " << a << "->" << b;
            }
        }
    }
}

TEST(Mesh, NonPowerOfTwoWidthsAreFatal)
{
    noc::MeshParams link;
    link.linkBytes = 12;
    EXPECT_PANIC(noc::Mesh{link}, "powers of two");
    noc::MeshParams flit;
    flit.flitBytes = 6;
    EXPECT_PANIC(noc::Mesh{flit}, "powers of two");
}

TEST(Mesh, LocalDeliveryIsFree)
{
    auto mesh = makeMesh();
    auto r = mesh.transfer(3, 3, 64, noc::TrafficClass::Data, 0);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(r.hops, 0);
    // Bytes are still accounted (the class totals feed Fig 9/10).
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::Data), 64.0);
    EXPECT_EQ(mesh.hopFlits(), 0u);
}

TEST(Mesh, LatencyGrowsWithDistanceAndSize)
{
    auto mesh = makeMesh();
    const auto near = mesh.transfer(0, 1, 8, noc::TrafficClass::Data,
                                    0);
    const auto far = mesh.transfer(0, 7, 8, noc::TrafficClass::Data,
                                   1000000);
    EXPECT_GT(far.latency, near.latency);
    const auto small = mesh.transfer(0, 1, 8, noc::TrafficClass::Data,
                                     2000000);
    const auto big = mesh.transfer(0, 1, 512, noc::TrafficClass::Data,
                                   3000000);
    EXPECT_GT(big.latency, small.latency);
}

TEST(Mesh, ClassesAccountedSeparately)
{
    auto mesh = makeMesh();
    mesh.transfer(0, 1, 10, noc::TrafficClass::Ctrl, 0);
    mesh.transfer(0, 1, 20, noc::TrafficClass::Data, 0);
    mesh.transfer(0, 1, 30, noc::TrafficClass::AccCtrl, 0);
    mesh.transfer(0, 1, 40, noc::TrafficClass::AccData, 0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::Ctrl), 10.0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::Data), 20.0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::AccCtrl),
                     30.0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::AccData),
                     40.0);
    EXPECT_DOUBLE_EQ(mesh.totalBytes(), 100.0);
}

TEST(Mesh, HopFlitsPerTransfer)
{
    auto mesh = makeMesh();
    // 16 bytes = 2 flits over 2 hops.
    mesh.transfer(0, 2, 16, noc::TrafficClass::Data, 0);
    EXPECT_EQ(mesh.hopFlits(), 2u * 2u);
}

TEST(Mesh, ContentionDelaysBackToBackTransfers)
{
    auto mesh = makeMesh();
    const auto first = mesh.transfer(0, 3, 512,
                                     noc::TrafficClass::Data, 0);
    const auto second = mesh.transfer(0, 3, 512,
                                      noc::TrafficClass::Data, 0);
    EXPECT_GT(second.latency, first.latency);
}

TEST(Mesh, MulticastChargesSharedLinksOnce)
{
    auto m1 = makeMesh();
    auto m2 = makeMesh();
    // Destinations along one path share every link.
    m1.multicast(0, {1, 2, 3}, 8, noc::TrafficClass::AccData, 0);
    // Equivalent unicasts traverse 1+2+3 = 6 hops.
    m2.transfer(0, 1, 8, noc::TrafficClass::AccData, 0);
    m2.transfer(0, 2, 8, noc::TrafficClass::AccData, 0);
    m2.transfer(0, 3, 8, noc::TrafficClass::AccData, 0);
    EXPECT_EQ(m1.hopFlits(), 3u);
    EXPECT_EQ(m2.hopFlits(), 6u);
}

TEST(Mesh, BadNodePanics)
{
    auto mesh = makeMesh();
    EXPECT_DEATH((void)mesh.hops(0, 8), "node");
}

class MeshGeometry
    : public testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MeshGeometry, TriangleInequalityOnHops)
{
    auto mesh = makeMesh();
    const auto [a, b] = GetParam();
    for (int mid = 0; mid < 8; ++mid) {
        EXPECT_LE(mesh.hops(a, b),
                  mesh.hops(a, mid) + mesh.hops(mid, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MeshGeometry,
    testing::Values(std::make_pair(0, 7), std::make_pair(3, 4),
                    std::make_pair(1, 6), std::make_pair(2, 2)));
