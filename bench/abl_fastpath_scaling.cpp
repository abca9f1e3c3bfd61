/**
 * @file
 * Ablation — compiled-kernel fast path: wall-clock throughput of the
 * simulator at increasing DPU counts, interpreter vs fast execution
 * mode, on the same multi-DPU vector-multiply launch the host-parallel
 * ablation uses. The fast path exists because instruction-level
 * interpretation makes the simulated-DPU count the wall-clock
 * bottleneck; this bench measures exactly that ratio, while asserting
 * every modelled quantity (critical-path cycles, kernel time, copy
 * times) stays bit-identical between the two modes — the property the
 * shadow-mode differential suite proves per kernel. A second table
 * does the same for the 16-DPU row-sharded convolution the perfbench
 * multiply workload launches.
 */

#include <cstring>

#include "analysis/footprint.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "pimhe/fast_kernels.h"

using namespace pimhe;
using namespace pimhe::bench;

namespace {

pim::LaunchStats
runOnce(pim::ExecMode mode, std::size_t dpus, std::size_t host_threads,
        unsigned tasklets, std::size_t limbs, std::size_t per_dpu_elems)
{
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.hostThreads = host_threads;
    cfg.execMode = mode;
    pim::DpuSet set(cfg, dpus);

    pimhe_kernels::VecKernelParams kp;
    kp.elems = static_cast<std::uint32_t>(per_dpu_elems);
    kp.limbs = static_cast<std::uint32_t>(limbs);
    static constexpr std::uint32_t ks[3] = {27, 54, 109};
    static constexpr std::uint32_t cs[3] = {2047, 77823, 229375};
    const std::size_t w = perf::widthIndex(limbs);
    kp.k = ks[w];
    kp.c = cs[w];
    const U128 q = U128::oneShl(kp.k) - U128(kp.c);
    for (std::size_t l = 0; l < 4; ++l)
        kp.q[l] = q.limb(l);
    const std::size_t arr_bytes =
        ((per_dpu_elems * limbs * 4 + 7) / 8) * 8;
    kp.mramA = 0;
    kp.mramB = arr_bytes;
    kp.mramOut = 2 * arr_bytes;

    // Nonzero operands so the fast path's arithmetic really runs.
    std::vector<std::uint8_t> a(arr_bytes, 0), b(arr_bytes, 0);
    for (std::size_t i = 0; i < arr_bytes; i += 8) {
        a[i] = static_cast<std::uint8_t>(i * 37 + 11);
        b[i] = static_cast<std::uint8_t>(i * 61 + 5);
    }
    for (std::size_t d = 0; d < dpus; ++d) {
        set.copyToMram(d, kp.mramA, a);
        set.copyToMram(d, kp.mramB, b);
    }
    // Modelled stats come from the first launch — the only one that
    // carries the pending upload bytes, so its hostToDpuMs is the
    // deterministic value the bit-identical check compares. The
    // repeat launch contributes only its wall-clock reading, damping
    // host scheduler noise. (Taking whole stats from whichever launch
    // was faster made hostToDpuMs depend on which index won the wall
    // race per mode, flaking the identity check.)
    const auto ck = pimhe_kernels::compiledVecMulModQ(kp);
    set.launch(tasklets, ck);
    pim::LaunchStats stats = set.lastLaunch();
    set.launch(tasklets, ck);
    stats.hostWallMs =
        std::min(stats.hostWallMs, set.lastLaunch().hostWallMs);
    return stats;
}

/**
 * The perfbench multiply shape: one 4-limb (109-bit q) negacyclic
 * convolution at n = 256, row-sharded over 16 DPUs, as PimConvolver
 * launches it. Stats as in runOnce: modelled from the first launch,
 * wall time the best of two.
 */
pim::LaunchStats
runConvOnce(pim::ExecMode mode, std::size_t host_threads,
            unsigned tasklets)
{
    constexpr std::size_t dpus = 16;
    constexpr std::uint32_t n = 256;
    constexpr std::uint32_t limbs = 4;
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.hostThreads = host_threads;
    cfg.execMode = mode;
    pim::DpuSet set(cfg, dpus);

    const U128 q = U128::oneShl(109) - U128(229375ULL);
    const U128 half = q.shr(1);
    pimhe_kernels::ConvKernelParams kp;
    kp.n = n;
    kp.limbs = limbs;
    for (std::uint32_t l = 0; l < limbs; ++l) {
        kp.q[l] = q.limb(l);
        kp.halfQ[l] = half.limb(l);
    }
    const std::uint32_t poly_bytes = n * limbs * 4;
    kp.mramA = 0;
    kp.mramB = poly_bytes;
    kp.mramOut = 2 * poly_bytes;
    const auto [b0, e0] = analysis::rowShardRange(n, dpus, 0);
    kp.rowBegin = b0;
    kp.rowEnd = e0;
    kp.mramMeta = kp.mramOut + std::uint64_t(e0 - b0) * kp.accLimbs() * 4;

    // Reduced operands spread over the whole range so both centring
    // signs occur.
    Rng rng(2023);
    std::vector<std::uint8_t> a(poly_bytes), b(poly_bytes);
    for (std::uint32_t i = 0; i < n; ++i)
        for (const auto buf : {&a, &b}) {
            U128 v;
            for (std::uint32_t l = 0; l < limbs; ++l)
                v.setLimb(l, rng.next32());
            v = mod(v, q);
            for (std::uint32_t l = 0; l < limbs; ++l) {
                const std::uint32_t limb = v.limb(l);
                std::memcpy(buf->data() + (i * limbs + l) * 4, &limb, 4);
            }
        }
    set.broadcastToMram(kp.mramA, a);
    set.broadcastToMram(kp.mramB, b);
    for (std::size_t d = 0; d < dpus; ++d) {
        const auto [rb, re] = analysis::rowShardRange(
            n, dpus, static_cast<std::uint32_t>(d));
        const std::uint32_t meta[2] = {rb, re};
        std::vector<std::uint8_t> bytes(8);
        std::memcpy(bytes.data(), meta, 8);
        set.copyToMram(d, kp.mramMeta, bytes);
    }
    const auto ck = pimhe_kernels::compiledNegacyclicConv(kp);
    set.launch(tasklets, ck);
    pim::LaunchStats stats = set.lastLaunch();
    set.launch(tasklets, ck);
    stats.hostWallMs =
        std::min(stats.hostWallMs, set.lastLaunch().hostWallMs);
    return stats;
}

bool
modelledIdentical(const pim::LaunchStats &x, const pim::LaunchStats &y)
{
    if (x.maxCycles != y.maxCycles || x.kernelMs != y.kernelMs ||
        x.hostToDpuMs != y.hostToDpuMs ||
        x.dpuToHostMs != y.dpuToHostMs ||
        x.dpus.size() != y.dpus.size())
        return false;
    for (std::size_t d = 0; d < x.dpus.size(); ++d)
        if (x.dpus[d].cycles != y.dpus[d].cycles)
            return false;
    return true;
}

} // namespace

int
main()
{
    Report report("abl_fastpath_scaling", "S4",
                  "compiled-kernel fast path",
                  "fast mode beats instruction-level interpretation "
                  "by >= 4x wall-clock at 256 DPUs and on the "
                  "sharded convolution by >= 8x; modelled stats "
                  "bit-identical between modes");

    const unsigned tasklets = 12;
    const std::size_t limbs = 2;
    const std::size_t per_dpu = 4096;
    const std::size_t host_threads = 8;
    const std::size_t hw = resolveHostThreads(0);

    std::cout << "full simulation: 64-bit vector mul, " << per_dpu
              << " elements/DPU, " << tasklets << " tasklets, "
              << host_threads << " host threads (host has " << hw
              << " thread(s))\n";

    Table t({"DPUs", "interpret (ms)", "fast (ms)", "speedup",
             "bit-identical"});
    bool all_identical = true;
    double speedup_at_256 = 0;
    std::vector<double> interp_ms, fast_ms;
    for (const std::size_t dpus : {64ul, 256ul, 512ul}) {
        const auto interp = runOnce(pim::ExecMode::Interpret, dpus,
                                    host_threads, tasklets, limbs,
                                    per_dpu);
        const auto fast = runOnce(pim::ExecMode::Fast, dpus,
                                  host_threads, tasklets, limbs,
                                  per_dpu);
        const bool same = modelledIdentical(interp, fast);
        all_identical = all_identical && same;
        const double sp =
            interp.hostWallMs / std::max(fast.hostWallMs, 1e-9);
        if (dpus == 256)
            speedup_at_256 = sp;
        t.addRow({std::to_string(dpus), Table::fmt(interp.hostWallMs, 2),
                  Table::fmt(fast.hostWallMs, 2), Table::fmtSpeedup(sp),
                  same ? "yes" : "NO"});
        interp_ms.push_back(interp.hostWallMs);
        fast_ms.push_back(fast.hostWallMs);
    }
    report.table(t);
    report.series("interpret_wall_ms", interp_ms);
    report.series("fast_wall_ms", fast_ms);

    std::cout << "\nfull simulation: 128-bit negacyclic convolution, "
                 "n=256 row-sharded over 16 DPUs, "
              << tasklets << " tasklets\n";
    const auto conv_interp =
        runConvOnce(pim::ExecMode::Interpret, host_threads, tasklets);
    const auto conv_fast =
        runConvOnce(pim::ExecMode::Fast, host_threads, tasklets);
    const bool conv_same = modelledIdentical(conv_interp, conv_fast);
    all_identical = all_identical && conv_same;
    const double conv_speedup =
        conv_interp.hostWallMs / std::max(conv_fast.hostWallMs, 1e-9);
    Table ct({"kernel", "interpret (ms)", "fast (ms)", "speedup",
              "bit-identical"});
    ct.addRow({"conv n=256 x16", Table::fmt(conv_interp.hostWallMs, 2),
               Table::fmt(conv_fast.hostWallMs, 2),
               Table::fmtSpeedup(conv_speedup),
               conv_same ? "yes" : "NO"});
    report.table(ct);
    report.series("conv_interpret_wall_ms", {conv_interp.hostWallMs});
    report.series("conv_fast_wall_ms", {conv_fast.hostWallMs});

    std::cout << "\nband checks:\n";
    report.bandCheck("modelled stats identical in both modes",
                     all_identical ? 1.0 : 0.0, 1.0, 1.0);
    report.bandCheck("fast-path speedup at 256 DPUs", speedup_at_256,
                     4.0, 100000.0);
    report.bandCheck("fast-path conv speedup at n=256 x16", conv_speedup,
                     8.0, 100000.0);
    const int rc = report.write();
    return all_identical ? rc : 1;
}
