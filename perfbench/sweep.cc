/**
 * @file
 * `perfbench sweep`: times a fixed list of (workload input, config)
 * jobs single-threaded, the way a figure sweep runs them, and prints
 * one JSON document of raw samples for perfbench/run.py to summarise.
 *
 * An untraced job is one driver::runWorkload call, the code that
 * distda_run and its sweeps run; its time is the Metrics::wallMs that
 * runWorkload reports (make -> validate, without the run report). A
 * traced job runs the public steps of runWorkload one by one —
 * makeWorkload, System, setup, ExecContext + run + finish, validate,
 * buildRunReport — with a span around each step. Either way the run
 * report supplies the job's exact counts, which must not change
 * between repeats.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/common.hh"
#include "perfbench/modes.hh"
#include "src/compiler/plan_cache.hh"
#include "src/driver/config.hh"
#include "src/driver/context.hh"
#include "src/driver/report.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/verify/verify.hh"
#include "src/workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace distda;

using Job = RunSpec;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 15;

/**
 * Host-speed reference chunks timed before each set-up and before each
 * untraced timed job (see referenceMs), so that each host time is
 * normalised by the host's speed while it was measured.
 */
constexpr int kSetupRefChunks = 2;

/** Outcome of one job execution. */
struct JobRun
{
    double ms = 0.0;
    bool ok = false;
    std::string error;
    Counts counts;
};

driver::SystemParams
systemParams(const workloads::Workload &wl, const driver::RunConfig &cfg)
{
    driver::SystemParams sp;
    sp.arenaBytes = wl.arenaBytes();
    sp.allocAffinity = cfg.allocAffinity();
    return sp;
}

/** Exact counts and validity of @p r from its run report. */
void
checkReport(JobRun &r, const std::string &id, const driver::Metrics &m,
            const std::string &report)
{
    sim::JsonValue doc;
    std::string err;
    if (!sim::tryParseJson(report, doc, err))
        throw std::runtime_error("unparsable run report: " + err);
    r.counts = countsFromReport(doc);
    r.ok = m.validated && r.counts.validated;
    if (!r.ok)
        r.error = id + ": validation failed";
}

/** The job as distda_run runs it: one driver::runWorkload call. */
JobRun
runUntraced(const Job &job)
{
    JobRun r;
    const std::string id = job.id();
    try {
        ScopedFailureCapture capture;
        std::string report;
        driver::RunOptions opts;
        opts.scale = job.scale;
        opts.obs.reportOut = &report;
        const driver::Metrics m =
            driver::runWorkload(job.workload, job.config, opts);
        r.ms = m.wallMs;
        checkReport(r, id, m, report);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = id + ": " + e.what();
    }
    return r;
}

/** The job split into runWorkload's public steps, one span each. */
JobRun
runTraced(const Job &job, Tracer &tracer)
{
    JobRun r;
    const std::string id = job.id();
    Tracer *tr = &tracer;
    try {
        ScopedFailureCapture capture;
        std::unique_ptr<workloads::Workload> wl;
        std::unique_ptr<driver::System> sys;
        driver::Metrics m;
        const auto t0 = Clock::now();
        {
            Scope span(tr, "job", id);
            {
                Scope s(tr, "workloads.make", id);
                wl = workloads::makeWorkload(job.workload, job.scale);
            }
            {
                Scope s(tr, "driver.system", id);
                sys = std::make_unique<driver::System>(
                    systemParams(*wl, job.config));
            }
            {
                Scope s(tr, "workloads.setup", id);
                wl->setup(*sys);
            }
            {
                Scope s(tr,
                        job.config.usesAccelerator() ? "engine.run.accel"
                                                     : "engine.run.ooo",
                        id);
                driver::ExecContext ctx(*sys, job.config);
                wl->run(ctx);
                m = ctx.finish();
            }
            {
                Scope s(tr, "workloads.validate", id);
                m.validated = wl->validate(*sys);
            }
        }
        r.ms = msBetween(t0, Clock::now());
        m.workload = job.workload;
        m.wallMs = r.ms;

        std::string report;
        {
            Scope s(tr, "driver.report", id);
            report = driver::buildRunReport(m, *sys, nullptr);
        }
        checkReport(r, id, m, report);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = id + ": " + e.what();
    }
    return r;
}

JobRun
runJob(const Job &job, Tracer *tr)
{
    return tr ? runTraced(job, *tr) : runUntraced(job);
}

/**
 * One set-up of the whole job list: construct and set up every job's
 * workload and compile its kernels cold. Untraced, compilation goes
 * through the process PlanCache exactly as the first real run would;
 * traced, compile and verify are split into their public steps and
 * every kernel x config is compiled, so both get their own span.
 */
double
setupOnce(const std::vector<Job> &jobs, Tracer *tr, int &kernels)
{
    compiler::PlanCache &cache = compiler::PlanCache::process();
    cache.clear();
    kernels = 0;
    double total = 0.0;
    for (const Job &job : jobs) {
        const std::string id = job.id();
        const auto t0 = Clock::now();
        Scope span(tr, "setup", id);
        std::unique_ptr<workloads::Workload> wl;
        {
            Scope s(tr, "workloads.make", id);
            wl = workloads::makeWorkload(job.workload, job.scale);
        }
        std::unique_ptr<driver::System> sys;
        {
            Scope s(tr, "driver.system", id);
            sys = std::make_unique<driver::System>(
                systemParams(*wl, job.config));
        }
        {
            Scope s(tr, "workloads.setup", id);
            wl->setup(*sys);
        }
        const compiler::CompileOptions co = job.config.compileOptions();
        for (const compiler::Kernel *k : wl->kernels()) {
            ++kernels;
            if (!tr) {
                cache.getOrCompile(*k, co);
                continue;
            }
            compiler::CompileOptions unchecked = co;
            unchecked.verifyPlans = compiler::VerifyMode::Off;
            compiler::OffloadPlan plan;
            {
                Scope s(tr, "compiler.compile", id);
                plan = compiler::compileKernel(*k, unchecked);
            }
            Scope s(tr, "verify.verify", id);
            const verify::Report rep =
                verify::verifyPlan(plan, verify::optionsFor(co));
            if (rep.errorCount() > 0)
                fatal("%s: kernel %s fails verification", id.c_str(),
                      k->name.c_str());
        }
        total += msBetween(t0, Clock::now());
    }
    return total;
}

/** Failures and exact counts over every job run of the sweep. */
struct Checker
{
    std::map<std::string, std::string> reference; ///< id -> canonical
    std::map<std::string, std::map<std::string, double>> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    check(const Job &job, const JobRun &r)
    {
        ++attempted;
        std::string error = r.error;
        if (r.ok) {
            auto [it, fresh] =
                reference.emplace(job.id(), r.counts.canonical);
            if (fresh)
                values[job.id()] = r.counts.values;
            else if (it->second != r.counts.canonical)
                error = job.id() + ": exact counts differ between repeats";
        }
        if (!error.empty()) {
            ++failed;
            if (errors.size() < 8)
                errors.push_back(error);
        }
    }
};

void
writeSamples(sim::JsonWriter &w, const char *key,
             const std::vector<double> &v)
{
    w.key(key).beginArray();
    for (double x : v)
        w.value(x);
    w.endArray();
}

/** Self time of every span in @p tr since @p from, summed by name. */
std::map<std::string, double>
selfByName(const Tracer &tr, std::size_t from)
{
    const std::vector<double> self = tr.selfMs();
    std::map<std::string, double> out;
    for (std::size_t i = from; i < tr.spans().size(); ++i)
        out[tr.spans()[i].name] += self[i];
    return out;
}

void
writeSpanSums(sim::JsonWriter &w, const char *key,
              const std::vector<std::map<std::string, double>> &sums)
{
    w.key(key).beginArray();
    for (const auto &pass : sums) {
        w.beginObject();
        for (const auto &[name, ms] : pass)
            w.key(name).value(ms);
        w.endObject();
    }
    w.endArray();
}

} // namespace

int
runSweep(const Args &args)
{
    setInformEnabled(false);
    setWarnEnabled(false);
    const std::vector<Job> base =
        parseRuns(args.get("inputs"), args.get("configs", "headline"));
    const double seconds = args.num("seconds", 10.0);
    const bool traced = args.num("trace", 0) != 0;
    const std::string spans_out = args.get("spans-out", "");
    std::mt19937_64 rng(static_cast<std::uint64_t>(args.num("seed", 1)));

    // The seed orders the jobs; every pass reshuffles.
    std::vector<Job> jobs = base;
    auto shuffled = [&] {
        std::shuffle(jobs.begin(), jobs.end(), rng);
        return jobs;
    };

    Tracer tracer;
    Tracer *tr = traced ? &tracer : nullptr;
    Checker checker;

    std::vector<double> setup_ms, setup_ref_ms;
    std::vector<std::map<std::string, double>> setup_spans;
    int kernels = 0;
    // Set-up and warm-up keep the list order, so what they measure,
    // peak memory included, does not depend on the seed.
    for (int i = 0; i < kSetupReps; ++i) {
        for (int c = 0; c < kSetupRefChunks && !traced; ++c)
            setup_ref_ms.push_back(referenceMs());
        const std::size_t mark = tracer.spans().size();
        setup_ms.push_back(setupOnce(base, tr, kernels));
        if (tr)
            setup_spans.push_back(selfByName(tracer, mark));
    }

    // Untimed warm-up: plans, caches, allocator and page tables settle.
    for (const Job &job : base)
        checker.check(job, runJob(job, tr));
    const double peak_rss_mb = peakRssMb();

    // Timed passes. Untraced, every pass is timed; traced, untraced
    // and traced passes alternate so their ratio is the tracing
    // overhead on the same host at the same time.
    std::map<std::string, std::vector<double>> job_ms;
    std::vector<double> pass_ms, traced_pass_ms, ref_ms;
    std::vector<std::map<std::string, double>> pass_spans;
    const auto start = Clock::now();
    double longest = 0.0;
    for (int pass = 0;; ++pass) {
        const double elapsed = msBetween(start, Clock::now()) / 1000.0;
        const int min_passes = traced ? 4 : 3;
        if (pass >= min_passes && elapsed + longest / 1000.0 > seconds)
            break;
        Tracer *pass_tr = traced && pass % 2 == 1 ? tr : nullptr;
        const std::size_t mark = tracer.spans().size();
        const auto p0 = Clock::now();
        double sum = 0.0;
        for (const Job &job : shuffled()) {
            if (!traced)
                ref_ms.push_back(referenceMs());
            const JobRun r = runJob(job, pass_tr);
            checker.check(job, r);
            sum += r.ms;
            if (!pass_tr)
                job_ms[job.id()].push_back(r.ms);
        }
        longest = std::max(longest, msBetween(p0, Clock::now()));
        if (pass_tr) {
            traced_pass_ms.push_back(sum);
            pass_spans.push_back(selfByName(tracer, mark));
        } else {
            pass_ms.push_back(sum);
        }
    }

    if (tr && !spans_out.empty() && !tracer.writeChromeTrace(spans_out))
        fatal("cannot write %s", spans_out.c_str());

    sim::JsonWriter w;
    w.beginObject();
    w.key("attempted").value(checker.attempted);
    w.key("failed").value(checker.failed);
    w.key("errors").beginArray();
    for (const std::string &e : checker.errors)
        w.value(e);
    w.endArray();
    w.key("peak_rss_mb").value(peak_rss_mb);
    writeSamples(w, "setup_ms", setup_ms);
    writeSamples(w, "pass_ms", pass_ms);
    writeSamples(w, "ref_ms", ref_ms);
    writeSamples(w, "setup_ref_ms", setup_ref_ms);
    w.key("jobs").beginArray();
    for (const Job &job : base) {
        w.beginObject();
        w.key("id").value(job.id());
        writeSamples(w, "ms", job_ms[job.id()]);
        w.key("digest").value(digest(checker.reference[job.id()]));
        w.key("counts").beginObject();
        for (const auto &[name, v] : checker.values[job.id()])
            w.key(name).value(v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    if (traced) {
        w.key("trace").beginObject();
        w.key("kernels").value(kernels);
        writeSamples(w, "traced_pass_ms", traced_pass_ms);
        writeSpanSums(w, "setup_spans", setup_spans);
        writeSpanSums(w, "pass_spans", pass_spans);
        w.endObject();
    }
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace perfbench
