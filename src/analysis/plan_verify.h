/**
 * @file
 * Plan-level lifetime verification of orchestrator launch sequences.
 *
 * The kernel-level provers (verifier.h budgets, symbolic.h tasklet
 * disjointness) treat each launch in isolation; the remaining silent
 * corruption class lives *between* launches, in the MRAM arena the
 * resident ciphertext cache manages: a kernel parameter block built
 * from a stale address reads a region that was dropped (and possibly
 * reallocated), a launch writes into a pinned operand another handle
 * still references, or a staged scratch write aliases a dirty
 * resident slice whose only copy of the data is the device one.
 *
 * PlanVerifier is a dataflow analysis over the launch sequence: the
 * resident cache reports every region event (alloc, free, pin,
 * dirty-state change) as it happens, the orchestrator declares each
 * launch's intended write targets, and checkLaunch() proves every
 * MRAM region a footprint touches against the arena state *before*
 * the launch executes:
 *
 *  - any byte inside freed-and-not-reallocated space -> UseAfterDrop;
 *  - a write overlapping a live pinned region that is not a declared
 *    output -> WriteWhilePinned;
 *  - a write overlapping an undeclared live *dirty* region (device
 *    copy is the only copy) -> DirtyAlias;
 *  - a write overlapping any other undeclared live region ->
 *    StrayWrite (silently invalidates a cached value).
 *
 * Declared write targets are consumed by the next checkLaunch, so an
 * in-place reduction that legitimately writes its own pinned region
 * passes by declaring it each round. Bytes the arena never tracked
 * (e.g. a standalone convolver's fixed layout) are unconstrained.
 * Event recording is a few map operations per region op; the checks
 * run behind SystemConfig::verifyBeforeLaunch like the rest of the
 * pre-launch stack.
 */

#ifndef PIMHE_ANALYSIS_PLAN_VERIFY_H
#define PIMHE_ANALYSIS_PLAN_VERIFY_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/footprint.h"

namespace pimhe {
namespace analysis {

/** Lifetime violation classes of the plan verifier. */
enum class PlanViolationKind : std::uint8_t
{
    UseAfterDrop,    //!< access inside freed, unreallocated arena space
    WriteWhilePinned,//!< undeclared write into a pinned live region
    DirtyAlias,      //!< undeclared write into a dirty live region
    StrayWrite,      //!< undeclared write into any other live region
};

const char *toString(PlanViolationKind k);

/** One lifetime violation, with the exact bytes and regions named. */
struct PlanViolation
{
    PlanViolationKind kind = PlanViolationKind::UseAfterDrop;
    std::uint64_t begin = 0; //!< first offending byte
    std::uint64_t end = 0;   //!< one past the last offending byte
    std::string what;        //!< names the footprint region + victim

    std::string describe() const;
};

/** Outcome of checking one launch against the arena state. */
struct PlanReport
{
    std::string kernel;
    std::uint64_t launchIndex = 0; //!< 1-based, per verifier
    std::vector<PlanViolation> violations;
    std::vector<std::string> notes; //!< satisfied checks (audit trail)

    bool ok() const { return violations.empty(); }

    /** True when some violation is of this kind. */
    bool
    names(PlanViolationKind k) const
    {
        for (const auto &v : violations)
            if (v.kind == k)
                return true;
        return false;
    }

    std::string summary() const;
};

/**
 * Arena-state machine fed by resident-cache events; one instance per
 * DpuSet (the arena is mirrored across the set's DPUs, so one byte
 * space covers them all).
 */
class PlanVerifier
{
  public:
    /** A region became live at [addr, addr + bytes). Reallocation of
     *  previously freed bytes legitimises them again. */
    void noteAlloc(std::uint64_t id, std::uint64_t addr,
                   std::uint64_t bytes, std::string label);

    /** The region was released; its bytes join the freed set until
     *  some allocation reuses them. Unknown ids are ignored. */
    void noteFree(std::uint64_t id);

    /** Pin state changed (pinned regions must not be written unless
     *  declared as a launch output). Unknown ids are ignored. */
    void notePin(std::uint64_t id, bool pinned);

    /** Dirty state changed (dirty = the device copy is the freshest
     *  and only copy). Unknown ids are ignored. */
    void noteDirty(std::uint64_t id, bool dirty);

    /** Arm region `id` as an intended write target of the next
     *  checked launch. Consumed (cleared) by checkLaunch. */
    void declareWriteTarget(std::uint64_t id);

    /** Drop any armed write targets without checking a launch (used
     *  when verification is disabled so declarations cannot leak into
     *  a later launch). */
    void clearDeclaredTargets() { declared_.clear(); }

    /**
     * Prove the footprint's MRAM regions against the current arena
     * state and consume the declared write targets. Callers gate on
     * report.ok() before spending any simulated cycle.
     */
    PlanReport checkLaunch(const KernelFootprint &fp);

    std::size_t liveRegions() const { return live_.size(); }

    /** Bytes held by live regions: the arena's bytes in use. */
    std::uint64_t
    liveBytes() const
    {
        std::uint64_t bytes = 0;
        for (const auto &[id, r] : live_)
            bytes += r.bytes;
        return bytes;
    }
    std::size_t freedRanges() const { return freed_.size(); }
    std::uint64_t launchesChecked() const { return launches_; }

  private:
    struct Region
    {
        std::uint64_t addr = 0;
        std::uint64_t bytes = 0;
        std::string label;
        bool pinned = false;
        bool dirty = false;

        std::uint64_t end() const { return addr + bytes; }
    };

    void addFreed(std::uint64_t begin, std::uint64_t end);
    void removeFreed(std::uint64_t begin, std::uint64_t end);

    std::map<std::uint64_t, Region> live_; //!< by id
    std::map<std::uint64_t, std::uint64_t> freed_; //!< begin -> end
    std::set<std::uint64_t> declared_; //!< armed write-target ids
    std::uint64_t launches_ = 0;
};

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_PLAN_VERIFY_H
