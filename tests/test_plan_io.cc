/**
 * @file
 * Plan artifact and PlanCache tests: exact serialize→parse→serialize
 * round trips across every paper workload and both accelerator
 * families, fingerprint stability and collision sanity, structural
 * validation of corrupted artifacts, file save/load, cache hit/miss
 * accounting, and cached-vs-fresh execution metric equality (the
 * correctness bar for the compile→execute split).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/compiler/plan_cache.hh"
#include "src/compiler/plan_io.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/sim/logging.hh"
#include "src/workloads/workload.hh"

using namespace distda;
using compiler::CompileOptions;
using compiler::Kernel;
using compiler::OffloadPlan;
using compiler::PlanCache;
using driver::ArchModel;

namespace
{

/** Every kernel of every paper workload, compiled under @p model. */
std::vector<OffloadPlan>
compileAllKernels(ArchModel model)
{
    std::vector<OffloadPlan> plans;
    for (const std::string &name : workloads::workloadNames()) {
        auto wl = workloads::makeWorkload(name, 0.25);
        driver::SystemParams sp;
        sp.arenaBytes = wl->arenaBytes();
        driver::RunConfig cfg;
        cfg.model = model;
        sp.allocAffinity = cfg.allocAffinity();
        driver::System sys(sp);
        wl->setup(sys);
        for (const Kernel *k : wl->kernels())
            plans.push_back(
                compiler::compileKernel(*k, cfg.compileOptions()));
    }
    return plans;
}

/** One representative compiled plan for corruption/file tests. */
OffloadPlan
samplePlan(const std::string &workload = "fdt")
{
    auto wl = workloads::makeWorkload(workload, 0.25);
    driver::SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    driver::RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;
    sp.allocAffinity = cfg.allocAffinity();
    driver::System sys(sp);
    wl->setup(sys);
    return compiler::compileKernel(*wl->kernels().front(),
                                   cfg.compileOptions());
}

/** Fields that must be identical between cached and fresh runs. */
const std::vector<std::pair<const char *, double driver::Metrics::*>> &
comparableMetricFields()
{
    using M = driver::Metrics;
    static const std::vector<
        std::pair<const char *, double M::*>>
        fields = {
            {"timeNs", &M::timeNs},
            {"hostInsts", &M::hostInsts},
            {"accelInsts", &M::accelInsts},
            {"kernelMemOps", &M::kernelMemOps},
            {"hostMemOps", &M::hostMemOps},
            {"mmioOps", &M::mmioOps},
            {"cacheAccesses", &M::cacheAccesses},
            {"dataMovementBytes", &M::dataMovementBytes},
            {"totalEnergyPj", &M::totalEnergyPj},
            {"nocCtrlBytes", &M::nocCtrlBytes},
            {"nocDataBytes", &M::nocDataBytes},
            {"intraBytes", &M::intraBytes},
            {"daBytes", &M::daBytes},
            {"aaBytes", &M::aaBytes},
        };
    return fields;
}

} // namespace

TEST(PlanIo, RoundTripIsByteIdenticalAcrossWorkloadsAndModels)
{
    for (ArchModel model :
         {ArchModel::MonoDA_IO, ArchModel::DistDA_IO}) {
        for (const OffloadPlan &plan : compileAllKernels(model)) {
            const std::string text = compiler::serializePlan(plan);
            const OffloadPlan back = compiler::parsePlan(text);
            EXPECT_EQ(compiler::serializePlan(back), text)
                << "kernel " << plan.kernel.name << " under model "
                << driver::archModelName(model);
            EXPECT_EQ(compiler::validatePlanArtifact(back), "");
        }
    }
}

TEST(PlanIo, FingerprintIsStableAndRecordedInThePlan)
{
    const OffloadPlan a = samplePlan();
    const OffloadPlan b = samplePlan();
    ASSERT_EQ(a.fingerprint.size(), 16u);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprint,
              compiler::planFingerprint(a.kernel, a.options));
}

TEST(PlanIo, FingerprintSeparatesKernelsAndOptions)
{
    // Distinct (kernel, options) pairs must not collide across the
    // whole suite — the cache key and artifact name depend on it.
    std::set<std::string> fps;
    std::size_t plans = 0;
    for (ArchModel model :
         {ArchModel::MonoDA_IO, ArchModel::DistDA_IO}) {
        for (const OffloadPlan &plan : compileAllKernels(model)) {
            fps.insert(plan.fingerprint);
            ++plans;
        }
    }
    EXPECT_EQ(fps.size(), plans);

    // Every CompileOptions knob participates in the fingerprint.
    const OffloadPlan base = samplePlan();
    CompileOptions opts = base.options;
    opts.channelCapacity += 1;
    EXPECT_NE(compiler::planFingerprint(base.kernel, opts),
              base.fingerprint);
    opts = base.options;
    opts.bufferBytes *= 2;
    EXPECT_NE(compiler::planFingerprint(base.kernel, opts),
              base.fingerprint);
}

TEST(PlanIo, ParseRejectsTruncatedAndMangledArtifacts)
{
    const std::string text = compiler::serializePlan(samplePlan());

    auto parse_fails = [](const std::string &t) {
        try {
            ScopedFailureCapture capture;
            compiler::parsePlan(t);
        } catch (const SimFailure &) {
            return true;
        }
        return false;
    };

    EXPECT_TRUE(parse_fails(""));
    EXPECT_TRUE(parse_fails("not a plan\n"));
    // Drop the trailing "end\n": truncation must not parse.
    EXPECT_TRUE(parse_fails(text.substr(0, text.size() - 4)));
    EXPECT_TRUE(parse_fails(text.substr(0, text.size() / 2)));
    // Unknown trailing token after a complete document.
    EXPECT_TRUE(parse_fails(text + "garbage\n"));
}

TEST(PlanIo, ValidatorFlagsCorruptedFields)
{
    // bfs_relax: three partitions, two channels, a carry and a param
    // preload, so every structural field has something to corrupt.
    const OffloadPlan plan = samplePlan("bfs");
    ASSERT_EQ(plan.partitions.size(), 3u);
    ASSERT_EQ(plan.partitions[2].inChannels.size(), 2u);
    ASSERT_FALSE(plan.partitions[2].program.paramRegs.empty());
    ASSERT_FALSE(plan.partitions[2].program.carries.empty());

    using compiler::ChannelDef;
    using compiler::MicroInst;
    using compiler::MicroKind;
    auto inst_of = [](OffloadPlan &p, std::size_t part,
                      MicroKind kind) -> MicroInst & {
        for (MicroInst &inst : p.partitions[part].program.insts) {
            if (inst.kind == kind)
                return inst;
        }
        ADD_FAILURE() << "partition " << part << " has no such inst";
        return p.partitions[part].program.insts.front();
    };
    // A channel partition 2 produces for the host (dst -1 by default).
    auto add_host_channel = [](OffloadPlan &p, ChannelDef ch) {
        ch.id = static_cast<int>(p.channels.size());
        ch.srcPartition = 2;
        p.partitions[2].outChannels.push_back(ch.id);
        p.channels.push_back(ch);
    };

    // Set token @p idx of the first line starting with @p prefix: for
    // out-of-range numbers that no in-memory plan can serialize.
    auto set_token = [](std::string prefix, std::size_t idx,
                        std::string value) {
        return [=](std::string &text) {
            std::size_t at = text.find("\n" + prefix);
            ASSERT_NE(at, std::string::npos) << prefix;
            for (std::size_t i = 0; i < idx; ++i)
                at = text.find(' ', at + 1);
            const std::size_t end = text.find_first_of(" \n", at + 1);
            text.replace(at + 1, end - at - 1, value);
        };
    };

    const struct
    {
        const char *fragment; ///< expected in the first diagnostic
        std::function<void(OffloadPlan &)> corrupt;
        std::function<void(std::string &)> edit = nullptr; ///< on text
    } rows[] = {
        {"fingerprint mismatch",
         [](OffloadPlan &p) {
             p.fingerprint[0] = p.fingerprint[0] == '0' ? '1' : '0';
         }},
        {"characteristics claim 4 partitions",
         [](OffloadPlan &p) { ++p.characteristics.numPartitions; }},
        // The checks that moved into the verifier.
        {"partition at index 1 carries id 5",
         [](OffloadPlan &p) { p.partitions[1].id = 5; }},
        {"parameter index 1 preloaded, kernel has 1",
         [](OffloadPlan &p) {
             p.partitions[2].program.paramRegs[0].first = 1;
         }},
        {"destination partition -2 out of range",
         [&](OffloadPlan &p) {
             ChannelDef ch;
             ch.dstPartition = -2;
             ch.srcNode = p.partitions[2].nodes.front();
             add_host_channel(p, ch);
         }},
        {"host-bound channel 2 sourced by unknown node 999",
         [&](OffloadPlan &p) {
             ChannelDef ch;
             ch.srcNode = 999;
             add_host_channel(p, ch);
         }},
        {"host-bound channel 2 has zero width",
         [&](OffloadPlan &p) {
             ChannelDef ch;
             ch.srcNode = p.partitions[2].nodes.front();
             ch.bits = 0;
             add_host_channel(p, ch);
         }},
        {"characteristics claim max 12 insts",
         [](OffloadPlan &p) {
             ++p.characteristics.maxInsts;
             p.characteristics.maxInstBytes += 8;
         }},
        {"on unknown object 42",
         [](OffloadPlan &p) { p.partitions[0].accessors[0].objId = 42; }},
        // Other structural defects.
        {"destination r1 outside register file of 1",
         [&](OffloadPlan &p) {
             inst_of(p, 0, MicroKind::LoadStream).dst = 1;
         }},
        {"operand c r7 outside register file of 1",
         [&](OffloadPlan &p) { inst_of(p, 0, MicroKind::LoadStream).c = 7; }},
        {"register file of 100000 outside",
         [](OffloadPlan &p) { p.partitions[0].program.numRegs = 100000; }},
        {"consume slot 5 outside",
         [&](OffloadPlan &p) { inst_of(p, 2, MicroKind::Consume).slot = 5; }},
        {"produce slot 5 outside",
         [&](OffloadPlan &p) { inst_of(p, 0, MicroKind::Produce).slot = 5; }},
        {"carry slot 5 outside",
         [&](OffloadPlan &p) {
             inst_of(p, 2, MicroKind::CarryWrite).slot = 5;
         }},
        {"in-channel",
         [](OffloadPlan &p) { p.partitions[2].inChannels[0] = 7; }},
        {"duplicated across 2 partitions",
         [](OffloadPlan &p) {
             p.partitions[1].nodes.push_back(p.partitions[0].nodes.back());
         }},
        {"kernel malformed",
         [](OffloadPlan &p) {
             for (compiler::Node &n : p.kernel.nodes) {
                 if (n.kind == compiler::NodeKind::Access) {
                     n.objId = 42;
                     break;
                 }
             }
         }},
        {"dependence info does not match",
         [](OffloadPlan &p) { p.dep.loadChainDepth = 2000000000; }},
        // Integers beyond int are parse errors, not wrapped values.
        {"channel-list id value -9223372036854775808 out of range",
         [](OffloadPlan &) {},
         set_token("inch 2 ", 2, "-9223372036854775808")},
        // Token 10 of a memobject node (no paramCoeffs) is addrInput,
        // -1 there; 4294967295 used to load as -1 and validate.
        {"addrInput value 4294967295 out of range", [](OffloadPlan &) {},
         set_token("node 0 memobject ", 10, "4294967295")},
        // Unsigned fields neither narrow nor wrap: both used to load
        // as 8-byte elements and validate.
        {"kobject bytes value 4294967304 out of range",
         [](OffloadPlan &) {},
         set_token("kobject 0 ", 3, "4294967304")},
        {"bad unsigned field kobject bytes", [](OffloadPlan &) {},
         set_token("kobject 0 ", 3, "-18446744073709551608")},
        {"channel bits value 4294967304 out of range",
         [](OffloadPlan &) {}, set_token("channel 0 ", 5, "4294967304")},
    };
    for (const auto &row : rows) {
        OffloadPlan p = plan;
        row.corrupt(p);
        std::string text = compiler::serializePlan(p);
        if (row.edit)
            row.edit(text);
        std::string defect;
        {
            ScopedFailureCapture capture;
            try {
                defect = compiler::validatePlanArtifact(
                    compiler::parsePlan(text));
            } catch (const SimFailure &f) {
                defect = f.what();
            }
        }
        EXPECT_NE(defect.find(row.fragment), std::string::npos)
            << "want '" << row.fragment << "', got '" << defect << "'";
    }

    // The untouched artifact stays clean.
    EXPECT_EQ(compiler::validatePlanArtifact(compiler::parsePlan(
                  compiler::serializePlan(plan))),
              "");
}

TEST(PlanIo, SaveAndLoadRoundTripThroughAFile)
{
    const OffloadPlan plan = samplePlan();
    const std::string path =
        ::testing::TempDir() + "/" +
        compiler::planArtifactFile(plan.kernel.name, plan.fingerprint);
    compiler::savePlan(plan, path);
    const OffloadPlan back = compiler::loadPlan(path);
    EXPECT_EQ(compiler::serializePlan(back),
              compiler::serializePlan(plan));
    EXPECT_EQ(back.fingerprint, plan.fingerprint);
    std::remove(path.c_str());
}

TEST(PlanIo, ArtifactFileNameSanitizesHostileKernelNames)
{
    EXPECT_EQ(compiler::planArtifactFile("a b/c", "0123456789abcdef"),
              "a_b-c-0123456789abcdef.plan");
}

TEST(PlanIo, ConcurrentSavesOfOnePlanNeverFail)
{
    // Sweep jobs that compile the same kernel dump the same artifact
    // path at once: no writer may fail, and the survivor must load.
    namespace fs = std::filesystem;
    const OffloadPlan plan = samplePlan();
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("plan-save-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string path =
        (dir / compiler::planArtifactFile(plan.kernel.name,
                                          plan.fingerprint))
            .string();
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                try {
                    ScopedFailureCapture capture;
                    compiler::savePlan(plan, path);
                } catch (const SimFailure &) {
                    ++failures;
                }
            }
        });
    }
    for (std::thread &w : writers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(compiler::validatePlanArtifact(compiler::loadPlan(path)),
              "");

    // Every temp file was renamed into place: only the artifact is left.
    const auto entries = std::distance(fs::directory_iterator(dir),
                                       fs::directory_iterator());
    EXPECT_EQ(entries, 1);
    fs::remove_all(dir);
}

TEST(PlanCacheTest, HitsAndMissesAreCounted)
{
    PlanCache cache;
    const OffloadPlan sample = samplePlan();

    const PlanCache::Lookup miss =
        cache.getOrCompile(sample.kernel, sample.options);
    ASSERT_NE(miss.plan, nullptr);
    EXPECT_FALSE(miss.hit);
    EXPECT_GE(miss.compileMs, 0.0);

    const PlanCache::Lookup hit =
        cache.getOrCompile(sample.kernel, sample.options);
    ASSERT_NE(hit.plan, nullptr);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.plan.get(), miss.plan.get()); // shared instance
    EXPECT_EQ(hit.compileMs, 0.0);

    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.savedMs, miss.compileMs);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTest, DisabledCacheCompilesFreshEveryTime)
{
    PlanCache cache;
    cache.setEnabled(false);
    const OffloadPlan sample = samplePlan();
    const PlanCache::Lookup a =
        cache.getOrCompile(sample.kernel, sample.options);
    const PlanCache::Lookup b =
        cache.getOrCompile(sample.kernel, sample.options);
    EXPECT_FALSE(a.hit);
    EXPECT_FALSE(b.hit);
    EXPECT_NE(a.plan.get(), b.plan.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheTest, InsertedPlansAreFoundByFingerprint)
{
    PlanCache cache;
    auto plan = std::make_shared<const OffloadPlan>(samplePlan());
    cache.insert(plan);

    // A subsequent lookup of the same (kernel, options) is a hit on
    // the inserted instance — no recompilation.
    const PlanCache::Lookup hit =
        cache.getOrCompile(plan->kernel, plan->options);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.plan.get(), plan.get());
}

TEST(PlanCacheTest, CachedAndFreshRunsProduceIdenticalMetrics)
{
    driver::RunOptions opts;
    opts.scale = 0.25;

    driver::RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;

    PlanCache &cache = PlanCache::process();
    cache.clear();
    const driver::Metrics warm = driver::runWorkload("sei", cfg, opts);
    const driver::Metrics hit = driver::runWorkload("sei", cfg, opts);
    cache.setEnabled(false);
    const driver::Metrics cold = driver::runWorkload("sei", cfg, opts);
    cache.setEnabled(true);

    // The second cached run hits for every kernel the first compiled;
    // with the cache off every kernel compiles fresh.
    EXPECT_GT(warm.planCacheMisses, 0.0);
    EXPECT_EQ(warm.planCacheHits, 0.0);
    EXPECT_GT(hit.planCacheHits, 0.0);
    EXPECT_EQ(hit.planCacheMisses, 0.0);
    EXPECT_GT(hit.planCompileMsSaved, 0.0);
    EXPECT_EQ(cold.planCacheHits, 0.0);
    EXPECT_GT(cold.planCacheMisses, 0.0);

    for (const auto &[name, field] : comparableMetricFields()) {
        EXPECT_EQ(warm.*field, hit.*field) << name;
        EXPECT_EQ(warm.*field, cold.*field) << name;
    }
    cache.clear();
}

TEST(PlanCacheTest, RoundTrippedPlansRunIdentically)
{
    driver::RunOptions opts;
    opts.scale = 0.25;
    driver::RunConfig direct;
    direct.model = ArchModel::DistDA_IO;
    driver::RunConfig replan = direct;
    replan.planRoundTrip = true;

    PlanCache::process().clear();
    const driver::Metrics a = driver::runWorkload("nw", direct, opts);
    const driver::Metrics b = driver::runWorkload("nw", replan, opts);
    for (const auto &[name, field] : comparableMetricFields())
        EXPECT_EQ(a.*field, b.*field) << name;
    PlanCache::process().clear();
}
