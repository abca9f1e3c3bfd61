/**
 * @file
 * Per-request launch ledger: the modelled and host-side cost of one
 * request, read from the LaunchStats entries the request appended to
 * each DpuSet it used, plus the TransferTotals delta.
 *
 * Reading only the newly appended entries keeps a request's cost
 * O(its own launches); DpuSet::totalModeledMs() would walk the whole
 * launch history on every call.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "pim/system.h"

namespace perfbench {

/** Cost of one request (or a sum of requests). */
struct LaunchDelta
{
    std::uint64_t launches = 0;
    double kernelMs = 0;   //!< modelled: Σ LaunchStats::kernelMs
    double h2dMs = 0;      //!< modelled: Σ hostToDpuMs
    double d2hMs = 0;      //!< modelled: Σ dpuToHostMs
    double overheadMs = 0; //!< modelled: launch overhead + pre-launch d2h
    double totalMs = 0;    //!< modelled: kernel + h2d + d2h + overhead
    double hostWallMs = 0; //!< host: Σ LaunchStats::hostWallMs
    std::uint64_t instructions = 0; //!< Σ tasklet issue slots
    std::uint64_t busBytes = 0;     //!< TransferTotals::busBytes delta

    void
    add(const LaunchDelta &o)
    {
        launches += o.launches;
        kernelMs += o.kernelMs;
        h2dMs += o.h2dMs;
        d2hMs += o.d2hMs;
        overheadMs += o.overheadMs;
        totalMs += o.totalMs;
        hostWallMs += o.hostWallMs;
        instructions += o.instructions;
        busBytes += o.busBytes;
    }

    /** Bit-exact equality of every modelled field (host fields are
     *  excluded, as in the LaunchStats determinism contract). */
    bool
    modelledEquals(const LaunchDelta &o) const
    {
        return launches == o.launches && kernelMs == o.kernelMs &&
               h2dMs == o.h2dMs && d2hMs == o.d2hMs &&
               overheadMs == o.overheadMs && totalMs == o.totalMs &&
               instructions == o.instructions && busBytes == o.busBytes;
    }
};

/** Relative tolerance of every modelled-time closure check. */
constexpr double kClosureRel = 1e-9;

inline bool
closeRel(double a, double b, double rel)
{
    return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

/**
 * Snapshots a fixed list of DpuSets around one request. end() returns
 * the request's LaunchDelta and records a closure violation (readable
 * through failure()) when the appended entries do not account for
 * the transfer totals' movement. historyTotalMs() gives the sets' own
 * modelled total, against which a caller checks the summed deltas of
 * a whole loop once.
 */
class LaunchLedger
{
  public:
    explicit LaunchLedger(std::vector<const pimhe::pim::DpuSet *> sets)
        : sets_(std::move(sets)), marks_(sets_.size())
    {}

    void
    begin()
    {
        for (std::size_t i = 0; i < sets_.size(); ++i) {
            marks_[i].launches = sets_[i]->launches().size();
            marks_[i].xfer = sets_[i]->transferTotals();
        }
    }

    LaunchDelta
    end()
    {
        LaunchDelta d;
        for (std::size_t i = 0; i < sets_.size(); ++i) {
            const auto &launches = sets_[i]->launches();
            double h2d = 0, d2h = 0;
            for (std::size_t k = marks_[i].launches; k < launches.size();
                 ++k) {
                const pimhe::pim::LaunchStats &l = launches[k];
                d.launches += 1;
                d.kernelMs += l.kernelMs;
                h2d += l.hostToDpuMs;
                d2h += l.dpuToHostMs;
                d.overheadMs += l.launchOverheadMs;
                d.hostWallMs += l.hostWallMs;
                for (const auto &dpu : l.dpus)
                    d.instructions += dpu.totalInstructions();
            }
            const pimhe::pim::TransferTotals &now =
                sets_[i]->transferTotals();
            const pimhe::pim::TransferTotals &was = marks_[i].xfer;
            const double pre =
                now.preLaunchDownloadMs - was.preLaunchDownloadMs;
            d.h2dMs += h2d;
            d.d2hMs += d2h;
            d.overheadMs += pre;
            d.busBytes += now.busBytes() - was.busBytes();
            // Every download of this request must be charged to a
            // launch this request appended; a charge to an older entry
            // would make the per-request deltas lie.
            if (!closeRel(now.downloadModeledMs - was.downloadModeledMs,
                          d2h, kClosureRel) ||
                !closeRel(now.uploadModeledMs - was.uploadModeledMs, h2d,
                          kClosureRel))
                fail("transfer totals moved by a different amount than "
                     "the appended LaunchStats account for");
        }
        d.totalMs = d.kernelMs + d.h2dMs + d.d2hMs + d.overheadMs;
        return d;
    }

    /** Σ DpuSet::totalModeledMs(): walks every set's whole launch
     *  history, so call it once per loop, not per request. */
    double
    historyTotalMs() const
    {
        double sum = 0;
        for (const pimhe::pim::DpuSet *s : sets_)
            sum += s->totalModeledMs();
        return sum;
    }

    /** First closure violation seen, or empty. */
    const std::string &failure() const { return failure_; }

  private:
    struct Mark
    {
        std::size_t launches = 0;
        pimhe::pim::TransferTotals xfer;
    };

    void
    fail(const std::string &why)
    {
        if (failure_.empty())
            failure_ = why;
    }

    std::vector<const pimhe::pim::DpuSet *> sets_;
    std::vector<Mark> marks_;
    std::string failure_;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
