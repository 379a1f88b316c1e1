/**
 * @file
 * Static verification of compiler artifacts (the safety net between
 * codegen and the engine): a pass manager over an OffloadPlan that
 * validates microcode well-formedness, channel-graph liveness, the
 * partitioner's invariants and CGRA mapping legality before anything
 * executes. DataMaestro- and Dato-style dataflow compilers ship the
 * same kind of plan checkers; here every invariant corresponds to a
 * paper rule (Table VI encoding, the SSIV-B decoupling contract, the
 * SSV-A partitioning constraints).
 *
 * Every plan goes through it: fresh compiles (under
 * CompileOptions::verifyPlans) and loaded artifacts alike
 * (compiler::validatePlanArtifact), so each pass must tolerate
 * malformed input and report it rather than index out of range.
 *
 * Passes:
 *   plan       partitioner invariants: dense partition ids, node
 *              coverage, <=1 object per partition, accessor placement
 *              on kernel objects, cut edges materialized as channels,
 *              channel wiring (host-bound ones included), carry cycles
 *              intra-partition, Table VI characteristics consistency
 *   microcode  per-partition programs: def-before-use dataflow,
 *              register-file size, register/slot/param bounds against
 *              the buffer-allocation table and the kernel, ALU operand
 *              arity, int/float type propagation through CarrySlots,
 *              byteSize() == 8 * insts
 *   channels   the SSIV-B decoupling contract: produce/consume counts
 *              balanced per iteration, no zero-capacity channels, no
 *              first-iteration channel-dependence deadlock
 *   cgra       mapping legality when the plan will run on a fabric:
 *              FU-class availability, II >= max(ResMII, RecMII)
 *   smells     warnings: dead registers, dead loads, unused accessors,
 *              empty partitions
 */

#ifndef DISTDA_VERIFY_VERIFY_HH
#define DISTDA_VERIFY_VERIFY_HH

#include <string>
#include <vector>

#include "src/cgra/cgra.hh"
#include "src/compiler/plan.hh"
#include "src/verify/diag.hh"

namespace distda::verify
{

/** What to check and against which engine parameters. */
struct Options
{
    /** Decoupling depth the engine will instantiate (elements). */
    int channelCapacity = 64;
    /** Access-unit buffer capacity (combining-distance bound). */
    std::uint32_t bufferBytes = 4096;
    /** Also check CGRA mapping legality against @ref fabric. */
    bool checkCgra = false;
    cgra::CgraParams fabric;
    /** Run the warning-only smell passes. */
    bool smells = true;
};

/** Verification parameters implied by the compile options. */
Options optionsFor(const compiler::CompileOptions &opts);

/**
 * Verification parameters for a standalone plan (cached or
 * deserialized): derived from the options the plan was compiled with.
 */
Options optionsFor(const compiler::OffloadPlan &plan);

/** One registered verification pass. */
struct Pass
{
    const char *name;
    void (*run)(const compiler::OffloadPlan &plan, const Options &opts,
                Report &report);
};

/** All passes in execution order. */
const std::vector<Pass> &passes();

/** Run every pass over @p plan and collect the findings. */
Report verifyPlan(const compiler::OffloadPlan &plan,
                  const Options &opts = Options{});

/**
 * Report and enforce: warnings go to warn(); under
 * VerifyMode::Error any error panics (a plan that fails static
 * verification is a compiler bug), under Warn errors are downgraded
 * to warn() so the run proceeds at the caller's risk.
 */
void enforce(const Report &report, compiler::VerifyMode mode,
             const std::string &what);

} // namespace distda::verify

#endif // DISTDA_VERIFY_VERIFY_HH
