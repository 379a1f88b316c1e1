/**
 * @file
 * Energy-model tests: pricing of integer event counts per component,
 * conservation (the sum of components equals the total), re-pricing
 * under custom costs, default-cost ratios that the evaluation's
 * normalized results rest on, and the priced energy of a real run as
 * the metrics and the run report carry it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/driver/runner.hh"
#include "src/energy/energy_model.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"

using namespace distda;
using energy::Component;

namespace
{

double
at(const energy::Breakdown &pj, Component c)
{
    return pj[static_cast<std::size_t>(c)];
}

/** Every component priced from one count at one price. */
const struct
{
    Component comp;
    std::uint64_t energy::Counts::*count;
    double energy::EnergyParams::*price;
} kSimple[] = {
    {Component::OoOCore, &energy::Counts::oooInsts,
     &energy::EnergyParams::oooPerInstPj},
    {Component::IOCore, &energy::Counts::ioOps,
     &energy::EnergyParams::ioPerInstPj},
    {Component::Cgra, &energy::Counts::cgraOps,
     &energy::EnergyParams::cgraPerOpPj},
    {Component::L1, &energy::Counts::l1Accesses,
     &energy::EnergyParams::l1AccessPj},
    {Component::L2, &energy::Counts::l2Accesses,
     &energy::EnergyParams::l2AccessPj},
    {Component::L3, &energy::Counts::l3Accesses,
     &energy::EnergyParams::l3AccessPj},
    {Component::Dram, &energy::Counts::dramLines,
     &energy::EnergyParams::dramLinePj},
    {Component::Noc, &energy::Counts::nocHopFlits,
     &energy::EnergyParams::nocHopFlitPj},
    {Component::Mmio, &energy::Counts::mmioOps,
     &energy::EnergyParams::mmioPj},
    {Component::Acp, &energy::Counts::acpAccesses,
     &energy::EnergyParams::acpAccessPj},
};

/** A distinct count per simple component, no port ops. */
energy::Counts
fixedCounts()
{
    energy::Counts c;
    std::uint64_t n = 7;
    for (const auto &row : kSimple)
        c.*row.count = n *= 3;
    return c;
}

/** bfs at a tenth of its size; @p stats_json names a report file. */
driver::Metrics
runBfs(driver::ArchModel model, const std::string &stats_json)
{
    setInformEnabled(false);
    driver::RunConfig cfg;
    cfg.model = model;
    driver::RunOptions opts;
    opts.scale = 0.1;
    opts.obs.statsJsonPath = stats_json;
    return driver::runWorkload("bfs", cfg, opts);
}

} // namespace

TEST(Energy, PricesEachCountAtItsComponentCost)
{
    const energy::EnergyParams p;
    const energy::Counts c = fixedCounts();
    const energy::Breakdown pj = energy::price(c, p, 1.0);
    for (const auto &row : kSimple) {
        EXPECT_EQ(at(pj, row.comp), c.*row.count * p.*row.price)
            << energy::componentName(row.comp);
    }
    EXPECT_EQ(at(pj, Component::Buffer), 0.0);
}

TEST(Energy, PortOpsCostFourTenthsAndChargeTheBuffer)
{
    const energy::EnergyParams p;
    energy::Counts c;
    c.ioOps = 10;
    c.ioPortOps = 5;
    c.cgraPortOps = 3;
    const energy::Breakdown pj = energy::price(c, p, 2.0);
    EXPECT_DOUBLE_EQ(at(pj, Component::IOCore),
                     (10 + 5 * 0.4) * 2.0 * p.ioPerInstPj);
    EXPECT_DOUBLE_EQ(at(pj, Component::Cgra),
                     3 * 0.4 * 2.0 * p.cgraPerOpPj);
    // The scale prices instructions only, not the buffer port.
    EXPECT_EQ(at(pj, Component::Buffer), 8 * p.bufferAccessPj);
}

TEST(Energy, TotalIsSumOfComponents)
{
    const energy::Breakdown pj =
        energy::price(fixedCounts(), energy::EnergyParams{}, 1.0);
    double sum = 0.0;
    for (double v : pj)
        sum += v;
    EXPECT_EQ(energy::totalPj(pj), sum);
    EXPECT_GT(sum, 0.0);
}

TEST(Energy, ZeroCountsPriceToZero)
{
    EXPECT_EQ(energy::totalPj(energy::price(
                  energy::Counts{}, energy::EnergyParams{}, 6.0)),
              0.0);
}

TEST(Energy, RepricingMovesEachComponentByCountTimesDelta)
{
    // Whole-pJ deltas keep every product exact, so each component
    // moves by exactly count x delta and by nothing else.
    const energy::Counts c = fixedCounts();
    const energy::EnergyParams base;
    energy::EnergyParams custom = base;
    double delta = 0.0;
    for (const auto &row : kSimple)
        custom.*row.price += delta += 1.0;
    const energy::Breakdown a = energy::price(c, base, 1.0);
    const energy::Breakdown b = energy::price(c, custom, 1.0);
    delta = 0.0;
    for (const auto &row : kSimple) {
        EXPECT_EQ(at(b, row.comp) - at(a, row.comp),
                  c.*row.count * (delta += 1.0))
            << energy::componentName(row.comp);
    }
    EXPECT_EQ(at(b, Component::Buffer), at(a, Component::Buffer));
}

TEST(Energy, CostOrderingMatchesTechnology)
{
    // The normalized results rest on these ratios: DRAM >> L3 > L2 >
    // L1 > ACP > buffer, and OoO inst >> in-order inst >> CGRA op.
    const energy::EnergyParams p;
    EXPECT_GT(p.dramLinePj, 10.0 * p.l3AccessPj);
    EXPECT_GT(p.l3AccessPj, p.l2AccessPj);
    EXPECT_GT(p.l2AccessPj, p.l1AccessPj);
    EXPECT_GT(p.l1AccessPj, p.acpAccessPj);
    EXPECT_GT(p.acpAccessPj, p.bufferAccessPj);
    EXPECT_GT(p.oooPerInstPj, 5.0 * p.ioPerInstPj);
    EXPECT_GT(p.ioPerInstPj, 3.0 * p.cgraPerOpPj);
}

TEST(Energy, ComponentNamesAreUnique)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < energy::kNumComponents; ++i)
        names.insert(
            energy::componentName(static_cast<Component>(i)));
    EXPECT_EQ(names.size(), energy::kNumComponents);
}

TEST(Energy, MonoDaIoCoreEnergyIsAccelInstsTimesIoPrice)
{
    // A monolithic accelerator has no channels, so every accelerator
    // instruction is a full in-order pass at 38 pJ.
    const driver::Metrics m = runBfs(driver::ArchModel::MonoDA_IO, "");
    ASSERT_GT(m.accelInsts, 0.0);
    EXPECT_EQ(m.energyByComponent.at("io_core"), m.accelInsts * 38.0);
    EXPECT_EQ(m.energyByComponent.at("buffer"), 0.0);
    EXPECT_EQ(m.energyByComponent.at("cgra"), 0.0);
}

TEST(Energy, RunReportExportsMetricsEnergy)
{
    const std::string path = testing::TempDir() + "energy_report.json";
    const driver::Metrics m = runBfs(driver::ArchModel::DistDA_IO, path);
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const sim::JsonValue doc = sim::parseJson(text.str(), path.c_str());
    const sim::JsonValue &energy = doc.at("stats").at("energy");
    ASSERT_EQ(energy.obj.size(), m.energyByComponent.size() + 1);
    for (const auto &[name, pj] : m.energyByComponent)
        EXPECT_EQ(energy.at("energy_pj." + name).num, pj) << name;
    EXPECT_EQ(energy.at("energy_pj.total").num, m.totalEnergyPj);
    EXPECT_GT(m.energyByComponent.at("buffer"), 0.0);
}
