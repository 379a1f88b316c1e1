/**
 * @file
 * Tests for the differential fuzz harness itself: generator
 * determinism, .repro round-tripping, validator rejection of malformed
 * cases, oracle agreement on generated cases, shrinker behaviour under
 * an artificial oracle, replay of the committed corpus (every past
 * counterexample is a permanent regression test; DISTDA_CORPUS_DIR
 * points at tests/corpus in the source tree), and recorded metric
 * digests that pin the Dist-DA-IO path's exact simulated outcome.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>

#include "src/fuzz/campaign.hh"
#include "src/fuzz/diff.hh"
#include "src/fuzz/gen.hh"
#include "src/fuzz/shrink.hh"

using namespace distda;
using fuzz::FuzzCase;

namespace
{

struct QuietGuard
{
    QuietGuard()
    {
        setInformEnabled(false);
        setWarnEnabled(false);
    }
    ~QuietGuard()
    {
        setInformEnabled(true);
        setWarnEnabled(true);
    }
};

/** Total node count across all kernels — the shrinker's yardstick. */
std::size_t
nodeCount(const FuzzCase &c)
{
    std::size_t n = 0;
    for (const compiler::Kernel &k : c.kernels)
        n += k.nodes.size();
    return n;
}

bool
containsOp(const FuzzCase &c, compiler::OpCode op)
{
    for (const compiler::Kernel &k : c.kernels) {
        for (const compiler::Node &n : k.nodes) {
            if (n.kind == compiler::NodeKind::Compute && n.op == op)
                return true;
        }
    }
    return false;
}

std::string
hex(std::uint64_t v)
{
    return strfmt("%016llx", static_cast<unsigned long long>(v));
}

/** fuzz::metricDigest of @p c's Dist-DA-IO path, which must not crash. */
std::uint64_t
distDigest(const FuzzCase &c)
{
    fuzz::DiffOptions opts;
    opts.cgra = false;
    opts.mono = false;
    opts.analyze = false;
    opts.planRoundTrip = false;
    const fuzz::DiffOutcome out = fuzz::runDifferential(c, opts);
    for (const fuzz::PathResult &r : out.paths) {
        if (r.path != "Dist-DA-IO")
            continue;
        EXPECT_FALSE(r.crashed) << r.failure;
        return fuzz::metricDigest(r.metrics);
    }
    ADD_FAILURE() << "no Dist-DA-IO path ran";
    return 0;
}

} // namespace

TEST(FuzzGen, DeterministicForSeed)
{
    QuietGuard quiet;
    const FuzzCase a = fuzz::generateCase(1234);
    const FuzzCase b = fuzz::generateCase(1234);
    EXPECT_EQ(fuzz::serializeCase(a), fuzz::serializeCase(b));
    const FuzzCase c = fuzz::generateCase(1235);
    EXPECT_NE(fuzz::serializeCase(a), fuzz::serializeCase(c));
}

TEST(FuzzGen, GeneratedCasesAreValid)
{
    QuietGuard quiet;
    for (std::uint64_t seed = 100; seed < 160; ++seed) {
        const FuzzCase c = fuzz::generateCase(seed);
        EXPECT_EQ(fuzz::validateCase(c), "") << "seed " << seed;
    }
}

TEST(FuzzGen, ShapesProduceTheirStructure)
{
    QuietGuard quiet;
    fuzz::GenOptions opts;
    opts.shape = fuzz::Shape::MultiKernel;
    bool multi = false;
    for (std::uint64_t seed = 0; seed < 16 && !multi; ++seed)
        multi = fuzz::generateCase(seed, opts).kernels.size() > 1;
    EXPECT_TRUE(multi) << "multikernel shape never produced >1 kernel";
}

TEST(FuzzCaseIo, SerializeParseRoundTrips)
{
    QuietGuard quiet;
    for (std::uint64_t seed : {7ull, 42ull, 90001ull}) {
        const FuzzCase c = fuzz::generateCase(seed);
        const std::string text = fuzz::serializeCase(c);
        const FuzzCase back = fuzz::parseCase(text);
        EXPECT_EQ(fuzz::serializeCase(back), text) << "seed " << seed;
        EXPECT_EQ(fuzz::validateCase(back), "") << "seed " << seed;
    }
}

TEST(FuzzCaseIo, SaveLoadRoundTrips)
{
    QuietGuard quiet;
    const FuzzCase c = fuzz::generateCase(5);
    const std::string path =
        (std::filesystem::temp_directory_path() / "distda_fuzz_io.repro")
            .string();
    fuzz::saveCase(c, path);
    const FuzzCase back = fuzz::loadCase(path);
    EXPECT_EQ(fuzz::serializeCase(back), fuzz::serializeCase(c));
    std::remove(path.c_str());
}

TEST(FuzzValidate, CatchesOutOfBoundsAffine)
{
    QuietGuard quiet;
    FuzzCase c = fuzz::generateCase(11);
    ASSERT_EQ(fuzz::validateCase(c), "");
    // Push one access pattern past its object: validation must fail
    // rather than let a path fault at simulation time.
    for (compiler::Kernel &k : c.kernels) {
        for (compiler::Node &n : k.nodes) {
            if (n.kind == compiler::NodeKind::Access &&
                n.pattern == compiler::PatternKind::Affine) {
                n.affine.constBase = 1 << 20;
                EXPECT_NE(fuzz::validateCase(c), "");
                return;
            }
        }
    }
    GTEST_SKIP() << "case has no affine access";
}

TEST(FuzzValidate, CatchesDuplicateBindingsAndBadTrips)
{
    QuietGuard quiet;
    FuzzCase c = fuzz::generateCase(17);
    ASSERT_EQ(fuzz::validateCase(c), "");
    {
        FuzzCase dup = c;
        fuzz::Invocation &inv = dup.invocations.front();
        if (inv.objects.size() >= 2) {
            inv.objects[1] = inv.objects[0];
            EXPECT_NE(fuzz::validateCase(dup), "");
        }
    }
    {
        FuzzCase zero = c;
        compiler::Kernel &k = zero.kernels.front();
        if (k.loop.extentParam < 0) {
            k.loop.staticExtent = 0;
            EXPECT_NE(fuzz::validateCase(zero), "");
        }
    }
}

TEST(FuzzDiff, GeneratedCasesAgreeAcrossAllPaths)
{
    QuietGuard quiet;
    for (std::uint64_t seed = 500; seed < 510; ++seed) {
        const FuzzCase c = fuzz::generateCase(seed);
        const fuzz::DiffOutcome out = fuzz::runDifferential(c);
        EXPECT_TRUE(out.ok())
            << "seed " << seed << ": " << out.summary();
        EXPECT_GE(out.paths.size(), 4u);
    }
}

TEST(FuzzDiff, InvalidCaseIsItsOwnFindingKind)
{
    QuietGuard quiet;
    FuzzCase c = fuzz::generateCase(3);
    c.invocations.clear();
    const fuzz::DiffOutcome out = fuzz::runDifferential(c);
    ASSERT_EQ(out.findings.size(), 1u);
    EXPECT_EQ(out.findings[0].kind,
              fuzz::Finding::Kind::InvalidCase);
}

TEST(FuzzShrink, MinimizesUnderArtificialOracle)
{
    QuietGuard quiet;
    // Find a generated case containing an IMul, then shrink under the
    // oracle "still contains an IMul". The minimizer must produce a
    // dramatically smaller — and still valid — case that keeps the
    // property.
    FuzzCase seed_case;
    bool found = false;
    for (std::uint64_t seed = 0; seed < 64 && !found; ++seed) {
        seed_case = fuzz::generateCase(seed);
        found = containsOp(seed_case, compiler::OpCode::IMul);
    }
    ASSERT_TRUE(found) << "no generated case used IMul";

    fuzz::ShrinkStats stats;
    const FuzzCase small = fuzz::shrinkCase(
        seed_case,
        [](const FuzzCase &c) {
            return containsOp(c, compiler::OpCode::IMul);
        },
        8, &stats);

    EXPECT_TRUE(containsOp(small, compiler::OpCode::IMul));
    EXPECT_EQ(fuzz::validateCase(small), "");
    EXPECT_LT(nodeCount(small), nodeCount(seed_case));
    EXPECT_LE(small.invocations.size(), seed_case.invocations.size());
    EXPECT_GT(stats.attempts, 0);
    EXPECT_GT(stats.accepted, 0);
    // A lone IMul needs very little scaffolding; anything bigger means
    // a reduction pass stopped pulling its weight.
    EXPECT_LE(nodeCount(small), 12u);
    EXPECT_EQ(small.kernels.size(), 1u);
    for (const fuzz::Invocation &inv : small.invocations)
        EXPECT_LE(small.tripOf(inv), 2);
}

TEST(FuzzCampaign, CleanCampaignReportsNoFailures)
{
    QuietGuard quiet;
    fuzz::CampaignOptions opts;
    opts.seed = 77;
    opts.runs = 25;
    opts.jobs = 2;
    const fuzz::CampaignResult r = fuzz::runCampaign(opts);
    EXPECT_EQ(r.runs, 25);
    EXPECT_TRUE(r.ok()) << r.failures << " failing runs";
}

TEST(FuzzCampaign, CaseSeedsAreDistinctAcrossRuns)
{
    std::vector<std::uint64_t> seeds;
    for (int run = 0; run < 100; ++run)
        seeds.push_back(fuzz::caseSeedFor(9, run));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

TEST(FuzzCorpus, CommittedReproducersReplayGreen)
{
    QuietGuard quiet;
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(DISTDA_CORPUS_DIR)) {
        if (entry.path().extension() == ".repro")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty())
        << "no .repro files under " << DISTDA_CORPUS_DIR;
    EXPECT_EQ(fuzz::replayCorpus(files), 0);
}

// The digests below were recorded from the raw microcode interpreter
// before it was retired in favour of the predecoded actors alone; they
// stand in for that interpreter as the metric oracle. A change that
// moves them must be a deliberate, documented model change.

TEST(FuzzDigest, CorpusMetricsMatchRecordedDigests)
{
    QuietGuard quiet;
    const std::map<std::string, std::string> want = {
        {"fmin-host-b.repro", "bd0381fae093e2fc"},
        {"fmin-host-run0.repro", "b52dbc0755b965b7"},
        {"ixor-alu-run15.repro", "3f5cfbb9f4c4eff8"},
        {"ixor-alu-run35.repro", "a7bd477ee0e9ef3f"},
        {"ixor-alu-run83.repro", "90417eebf595e9ab"},
        {"ixor-alu-run85.repro", "9cbcd48bc0aaf4fc"},
        {"predecode-tap-run0.repro", "46138936a245c04b"},
        {"predecode-tap-run1.repro", "a321fb9ed4c8d888"},
    };
    std::size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(DISTDA_CORPUS_DIR)) {
        if (entry.path().extension() != ".repro")
            continue;
        const std::string name = entry.path().filename().string();
        const std::string got =
            hex(distDigest(fuzz::loadCase(entry.path().string())));
        const auto it = want.find(name);
        if (it == want.end()) {
            ADD_FAILURE() << name << " has no recorded digest; actual "
                          << got;
            continue;
        }
        ++seen;
        EXPECT_EQ(got, it->second) << name;
    }
    EXPECT_EQ(seen, want.size());
}

TEST(FuzzDigest, SmokeCampaignMetricsMatchRecordedDigest)
{
    QuietGuard quiet;
    // The cases of `distda_fuzz --seed=1 --runs=200`, with their
    // Dist-DA-IO digests folded in run order by FNV-1a 64. Recorded
    // with energy priced once from the run's counts: the accelerator
    // instruction charge (port ops cost an inexact 0.4) is two products,
    // not a per-instruction running sum, which moved totalEnergyPj of
    // port-op runs by at most 1.2e-14 relative and no other field.
    std::uint64_t fold = 14695981039346656037ULL;
    for (int run = 0; run < 200; ++run) {
        const std::uint64_t d =
            distDigest(fuzz::generateCase(fuzz::caseSeedFor(1, run)));
        for (int byte = 0; byte < 8; ++byte) {
            fold ^= (d >> (8 * byte)) & 0xff;
            fold *= 1099511628211ULL;
        }
    }
    EXPECT_EQ(hex(fold), "ccaa48f0f661d3a5");
}
