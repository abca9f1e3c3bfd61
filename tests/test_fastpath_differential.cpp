/**
 * @file
 * Differential fuzzing of the compiled-kernel fast path against the
 * interpreter oracle.
 *
 * Two independent checks per grid point, for every registered kernel
 * family across (limb width, shape, tasklet count, host threads):
 *
 *  - a Shadow-mode launch runs both paths on every DPU and panics on
 *    any divergence in semantic outputs or modelled per-tasklet
 *    stats (the in-simulator oracle);
 *  - a pure Fast-mode launch on identically seeded DPUs is compared
 *    field by field against the shadow launch's (interpreter) stats
 *    and byte for byte against its surviving MRAM, proving the fast
 *    path alone reproduces the oracle — outputs, cycles, DMA bytes
 *    and stall cycles bit-identically.
 *
 * Mismatch-injection tests then corrupt a fast body on purpose
 * (off-by-one output tail, stale cycle formula, skipped shard row,
 * dropped column carry)
 * and require shadow mode to die with a diagnostic naming the
 * kernel, the DPU and the first diverging byte range or counter.
 *
 * An oracle test compares the fast-mode PIM convolver with the host's
 * exact convolvers directly, without going through the interpreter.
 *
 * End-to-end, whole BFV pipelines (PimHeSystem and PimConvolver) run
 * in shadow mode with decryption checks, so the fast path is also
 * exercised through the orchestration, resident-cache and transfer
 * layers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "analysis/footprint.h"
#include "ntt/rns.h"
#include "pimhe/fast_kernels.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;
using pimhe::testing::randomBelow;

constexpr unsigned kTaskletGrid[] = {1, 11, 16, 24};
constexpr std::size_t kThreadGrid[] = {1, 8};

SystemConfig
gridSystem(std::size_t dpus, std::size_t threads, ExecMode mode)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.hostThreads = threads;
    cfg.execMode = mode;
    return cfg;
}

/** Exact equality of every modelled LaunchStats field (execMode and
 *  hostWallMs are legitimately different between the two runs). */
void
expectLaunchStatsEqual(const LaunchStats &interp, const LaunchStats &fast,
                       const std::string &what)
{
    ASSERT_EQ(interp.dpus.size(), fast.dpus.size()) << what;
    EXPECT_EQ(interp.maxCycles, fast.maxCycles) << what;
    EXPECT_EQ(interp.kernelMs, fast.kernelMs) << what;
    EXPECT_EQ(interp.hostToDpuMs, fast.hostToDpuMs) << what;
    EXPECT_EQ(interp.dpuToHostMs, fast.dpuToHostMs) << what;
    EXPECT_EQ(interp.launchOverheadMs, fast.launchOverheadMs) << what;
    for (std::size_t d = 0; d < interp.dpus.size(); ++d) {
        const auto &di = interp.dpus[d];
        const auto &df = fast.dpus[d];
        EXPECT_EQ(di.cycles, df.cycles) << what << " dpu " << d;
        ASSERT_EQ(di.tasklets.size(), df.tasklets.size())
            << what << " dpu " << d;
        for (std::size_t t = 0; t < di.tasklets.size(); ++t) {
            EXPECT_EQ(di.tasklets[t].instructions,
                      df.tasklets[t].instructions)
                << what << " dpu " << d << " tasklet " << t;
            EXPECT_EQ(di.tasklets[t].dmaTransfers,
                      df.tasklets[t].dmaTransfers)
                << what << " dpu " << d << " tasklet " << t;
            EXPECT_EQ(di.tasklets[t].dmaBytes, df.tasklets[t].dmaBytes)
                << what << " dpu " << d << " tasklet " << t;
            EXPECT_EQ(di.tasklets[t].dmaStallCycles,
                      df.tasklets[t].dmaStallCycles)
                << what << " dpu " << d << " tasklet " << t;
        }
    }
}

/**
 * Run one CompiledKernel under Shadow (internal oracle) and under
 * pure Fast on identically seeded DPU sets, then require the fast
 * launch to match the interpreter bit for bit in the declared output
 * regions and in every modelled stats field.
 */
void
runShadowAndFast(const CompiledKernel &ck, unsigned tasklets,
                 std::size_t dpus, std::size_t threads,
                 const std::vector<std::vector<std::uint8_t>> &mram_init,
                 std::uint64_t init_addr, const std::string &what)
{
    DpuSet shadow(gridSystem(dpus, threads, ExecMode::Shadow), dpus);
    DpuSet fast(gridSystem(dpus, threads, ExecMode::Fast), dpus);
    for (std::size_t d = 0; d < dpus; ++d) {
        shadow.dpuAt(d).mram().write(init_addr, mram_init[d].data(),
                                     mram_init[d].size());
        fast.dpuAt(d).mram().write(init_addr, mram_init[d].data(),
                                   mram_init[d].size());
    }

    // Shadow mode self-checks every DPU (panic on divergence) and
    // leaves the interpreter's MRAM and stats behind.
    const LaunchStats interp_stats = shadow.launch(tasklets, ck);
    ASSERT_EQ(interp_stats.execMode, ExecMode::Shadow) << what;
    const LaunchStats fast_stats = fast.launch(tasklets, ck);
    ASSERT_EQ(fast_stats.execMode, ExecMode::Fast) << what;

    expectLaunchStatsEqual(interp_stats, fast_stats, what);
    for (std::size_t d = 0; d < dpus; ++d) {
        for (const auto &region : ck.outputs) {
            std::vector<std::uint8_t> a(region.end - region.begin);
            std::vector<std::uint8_t> b(a.size());
            shadow.dpuAt(d).mram().read(region.begin, a.data(),
                                        a.size());
            fast.dpuAt(d).mram().read(region.begin, b.data(), b.size());
            EXPECT_EQ(a, b) << what << " dpu " << d << " output '"
                            << region.name << "'";
        }
    }
}

template <std::size_t L>
VecKernelParams
vecParamsFor(std::size_t elems)
{
    const auto q = standardParams<L>().q;
    VecKernelParams p;
    p.elems = static_cast<std::uint32_t>(elems);
    p.limbs = L;
    p.k = static_cast<std::uint32_t>(q.bitLength());
    p.c = static_cast<std::uint32_t>(
        (WideInt<L>::oneShl(p.k) - q).toUint64());
    for (std::size_t i = 0; i < L; ++i)
        p.q[i] = q.limb(i);
    const std::size_t arr = ((elems * L * 4 + 7) / 8) * 8;
    p.mramA = 0;
    p.mramB = arr;
    p.mramOut = 2 * arr;
    return p;
}

/** elems reduced elements as packed little-endian limb bytes. */
template <std::size_t L>
std::vector<std::uint8_t>
packedVec(Rng &rng, std::size_t elems)
{
    const auto q = standardParams<L>().q;
    std::vector<std::uint8_t> buf(elems * L * 4);
    for (std::size_t i = 0; i < elems; ++i) {
        const auto v = randomBelow<L>(rng, q);
        for (std::size_t l = 0; l < L; ++l) {
            const std::uint32_t limb = v.limb(l);
            std::memcpy(buf.data() + (i * L + l) * 4, &limb, 4);
        }
    }
    return buf;
}

template <std::size_t L>
int
runVecGrid()
{
    int iterations = 0;
    for (const std::size_t elems : {63u, 96u, 256u}) {
        for (const unsigned tasklets : kTaskletGrid) {
            for (const std::size_t threads : kThreadGrid) {
                Rng rng(kSeed + 1000 * L + 10 * elems + tasklets +
                        threads);
                const auto p = vecParamsFor<L>(elems);
                const std::size_t dpus = 2;
                std::vector<std::vector<std::uint8_t>> init(dpus);
                for (auto &m : init) {
                    m = packedVec<L>(rng, elems);
                    const auto b = packedVec<L>(rng, elems);
                    m.resize(p.mramB + b.size());
                    std::memcpy(m.data() + p.mramB, b.data(), b.size());
                }
                const std::string tag =
                    "L" + std::to_string(L) + " e" +
                    std::to_string(elems) + " t" +
                    std::to_string(tasklets) + " th" +
                    std::to_string(threads);
                runShadowAndFast(compiledVecAddModQ(p), tasklets, dpus,
                                 threads, init, 0, "vec-add " + tag);
                runShadowAndFast(compiledVecMulModQ(p), tasklets, dpus,
                                 threads, init, 0, "vec-mul " + tag);

                // Fused (a + b) * c: the third operand lives where the
                // plain kernels put their result.
                FusedKernelParams fp;
                fp.vec = p;
                fp.mramC = p.mramOut;
                fp.vec.mramOut = p.mramOut + (p.mramB - p.mramA);
                std::vector<std::vector<std::uint8_t>> finit(dpus);
                for (std::size_t d = 0; d < dpus; ++d) {
                    finit[d] = init[d];
                    const auto c = packedVec<L>(rng, elems);
                    finit[d].resize(fp.mramC + c.size());
                    std::memcpy(finit[d].data() + fp.mramC, c.data(),
                                c.size());
                }
                runShadowAndFast(compiledVecAddMulModQ(fp), tasklets,
                                 dpus, threads, finit, 0,
                                 "vec-fused " + tag);

                // In-place fold round (mramOut == mramA), as the
                // resident tree reduction launches it.
                VecKernelParams rp = p;
                rp.mramOut = rp.mramA;
                runShadowAndFast(compiledVecAddModQ(rp), tasklets, dpus,
                                 threads, init, 0, "vec-reduce " + tag);
                iterations += 4;
            }
        }
    }
    return iterations;
}

/** The conv grid's modulus: the paper's for 1/2/4 limbs, and the
 *  Mersenne prime 2^89 - 1 for the odd 3-limb width. */
template <std::size_t L>
WideInt<L>
convModulus()
{
    if constexpr (L == 3)
        return WideInt<3>::oneShl(89) - WideInt<3>(1ULL);
    else
        return standardParams<L>().q;
}

template <std::size_t L>
ConvKernelParams
convParamsFor(std::size_t n)
{
    const auto q = convModulus<L>();
    ConvKernelParams p;
    p.n = static_cast<std::uint32_t>(n);
    p.limbs = L;
    for (std::size_t i = 0; i < L; ++i)
        p.q[i] = q.limb(i);
    const auto half = q.shr(1);
    for (std::size_t i = 0; i < L; ++i)
        p.halfQ[i] = half.limb(i);
    p.mramA = 0;
    p.mramB = n * L * 4;
    p.mramOut = 2 * n * L * 4;
    return p;
}

/** How a conv operand's coefficients are drawn. */
enum class ConvFill
{
    Reduced,      //!< uniform below q
    Unreduced,    //!< uniform in [q, 2^(32L)): huge centred magnitudes
    QMinusOne,    //!< every coefficient q - 1 (centred -1)
    HalfQPlusOne, //!< every coefficient floor(q/2) + 1 (most negative)
    Zero,         //!< every coefficient 0
};

template <std::size_t L>
std::vector<std::uint8_t>
convOperand(Rng &rng, std::size_t n, ConvFill fill)
{
    const auto q = convModulus<L>();
    std::vector<std::uint8_t> buf(n * L * 4);
    for (std::size_t i = 0; i < n; ++i) {
        WideInt<L> v;
        switch (fill) {
        case ConvFill::Reduced:
            v = randomBelow<L>(rng, q);
            break;
        case ConvFill::Unreduced:
            do {
                v = pimhe::testing::randomWide<L>(rng);
            } while (v < q);
            break;
        case ConvFill::QMinusOne:
            v = q - WideInt<L>(1ULL);
            break;
        case ConvFill::HalfQPlusOne:
            v = q.shr(1) + WideInt<L>(1ULL);
            break;
        case ConvFill::Zero:
            break;
        }
        for (std::size_t l = 0; l < L; ++l) {
            const std::uint32_t limb = v.limb(l);
            std::memcpy(buf.data() + (i * L + l) * 4, &limb, 4);
        }
    }
    return buf;
}

/**
 * Shadow + pure-fast check of one convolution: plain on one DPU, or
 * row-sharded over `dpus` DPUs whose metadata blocks select disjoint
 * row ranges of the same operands. Shard 0 is a widest shard, so its
 * row count bounds every DPU's accumulator region.
 */
template <std::size_t L>
void
runConvCase(std::size_t n, std::size_t dpus, unsigned tasklets,
            std::size_t threads, const std::vector<std::uint8_t> &a,
            const std::vector<std::uint8_t> &b, const std::string &what)
{
    ConvKernelParams p = convParamsFor<L>(n);
    std::vector<std::uint8_t> base = a;
    base.resize(p.mramB + b.size());
    std::memcpy(base.data() + p.mramB, b.data(), b.size());
    if (dpus == 1) {
        runShadowAndFast(compiledNegacyclicConv(p), tasklets, 1, threads,
                         {base}, 0, what);
        return;
    }
    const auto shards = static_cast<std::uint32_t>(dpus);
    const auto [b0, e0] =
        analysis::rowShardRange(static_cast<std::uint32_t>(n), shards, 0);
    p.rowBegin = b0;
    p.rowEnd = e0;
    p.mramMeta =
        p.mramOut + static_cast<std::uint64_t>(e0 - b0) * p.accLimbs() * 4;
    std::vector<std::vector<std::uint8_t>> init(dpus, base);
    for (std::size_t d = 0; d < dpus; ++d) {
        const auto [rb, re] = analysis::rowShardRange(
            static_cast<std::uint32_t>(n), shards,
            static_cast<std::uint32_t>(d));
        init[d].resize(p.mramMeta + 8);
        const std::uint32_t meta[2] = {rb, re};
        std::memcpy(init[d].data() + p.mramMeta, meta, 8);
    }
    runShadowAndFast(compiledNegacyclicConv(p), tasklets, dpus, threads,
                     init, 0, what);
}

template <std::size_t L>
int
runConvGrid()
{
    int iterations = 0;
    const std::string width = "L" + std::to_string(L);
    for (const std::size_t n : {16u, 32u}) {
        for (const unsigned tasklets : kTaskletGrid) {
            for (const std::size_t threads : kThreadGrid) {
                Rng rng(kSeed + 77 * L + 10 * n + tasklets + threads);
                const std::string tag =
                    width + " n" + std::to_string(n) + " t" +
                    std::to_string(tasklets) + " th" +
                    std::to_string(threads);
                const auto a = convOperand<L>(rng, n, ConvFill::Reduced);
                const auto b = convOperand<L>(rng, n, ConvFill::Reduced);
                runConvCase<L>(n, 1, tasklets, threads, a, b,
                               "conv " + tag);
                runConvCase<L>(n, 2, tasklets, threads, a, b,
                               "conv-sharded " + tag);
                iterations += 2;
            }
        }
    }

    // Edge operands the word-level mirror must survive: unreduced
    // inputs (centred magnitudes near 2^(32L), the deepest columns),
    // all q - 1 and all floor(q/2) + 1 (rows whose sum is negative
    // and borrows through every accumulator word), and all zero.
    const std::pair<ConvFill, ConvFill> edges[] = {
        {ConvFill::Unreduced, ConvFill::Unreduced},
        {ConvFill::Unreduced, ConvFill::Reduced},
        {ConvFill::QMinusOne, ConvFill::QMinusOne},
        {ConvFill::HalfQPlusOne, ConvFill::HalfQPlusOne},
        {ConvFill::HalfQPlusOne, ConvFill::Unreduced},
        {ConvFill::Zero, ConvFill::Zero},
    };
    Rng rng(kSeed + 5000 + L);
    int edge = 0;
    for (const auto &[fa, fb] : edges) {
        const std::size_t n = 32;
        const auto a = convOperand<L>(rng, n, fa);
        const auto b = convOperand<L>(rng, n, fb);
        const std::string tag =
            width + " edge " + std::to_string(edge++);
        runConvCase<L>(n, 1, 11, 8, a, b, "conv " + tag);
        runConvCase<L>(n, 2, 16, 1, a, b, "conv-sharded " + tag);
        iterations += 2;
    }
    return iterations;
}

/** The perfbench multiply shape: n = 256 over 16 row-sharded DPUs at
 *  12 tasklets, the deepest accumulation the shipped workloads reach,
 *  on reduced and on unreduced operands. */
int
runConvPerfbenchShape()
{
    Rng rng(kSeed + 256);
    const std::size_t n = 256;
    const auto a = convOperand<4>(rng, n, ConvFill::Reduced);
    const auto b = convOperand<4>(rng, n, ConvFill::Reduced);
    runConvCase<4>(n, 16, 12, 8, a, b, "conv-sharded L4 n256 x16");
    const auto ua = convOperand<4>(rng, n, ConvFill::Unreduced);
    const auto ub = convOperand<4>(rng, n, ConvFill::Unreduced);
    runConvCase<4>(n, 16, 12, 8, ua, ub,
                   "conv-sharded L4 n256 x16 unreduced");
    return 2;
}

int
runNttGrid()
{
    int iterations = 0;
    for (const std::uint32_t n : {64u, 256u}) {
        for (const unsigned tasklets : kTaskletGrid) {
            for (const std::size_t threads : kThreadGrid) {
                const auto primes = findNttPrimes(30, 2ULL * n, 1);
                if (primes.empty()) {
                    ADD_FAILURE() << "no NTT prime for n=" << n;
                    continue;
                }
                const auto p =
                    static_cast<std::uint32_t>(primes.front());
                const std::uint32_t count = 5;
                const auto kp = makeNttParams(p, n, count);

                Rng rng(kSeed + 31 * n + tasklets + threads);
                const std::uint64_t psi = primitiveRoot(p, 2 * n);
                const std::uint64_t psi_inv = invMod64(psi, p);
                int log_n = 0;
                while ((1u << log_n) < n)
                    ++log_n;
                std::vector<std::uint32_t> words(
                    static_cast<std::size_t>(kp.mramOut) / 4, 0);
                std::uint64_t pw = 1, pwi = 1;
                std::vector<std::uint64_t> pows(n), powis(n);
                for (std::uint32_t i = 0; i < n; ++i) {
                    pows[i] = pw;
                    powis[i] = pwi;
                    pw = mulMod64(pw, psi, p);
                    pwi = mulMod64(pwi, psi_inv, p);
                }
                for (std::uint32_t i = 0; i < n; ++i) {
                    std::uint32_t r = 0, x = i;
                    for (int bit = 0; bit < log_n; ++bit) {
                        r = (r << 1) | (x & 1);
                        x >>= 1;
                    }
                    words[kp.mramPsi / 4 + i] =
                        static_cast<std::uint32_t>(pows[r]);
                    words[kp.mramPsiInv / 4 + i] =
                        static_cast<std::uint32_t>(powis[r]);
                }
                for (std::uint32_t i = 0; i < count * n; ++i) {
                    words[kp.mramA / 4 + i] =
                        static_cast<std::uint32_t>(rng.uniform(p));
                    words[kp.mramB / 4 + i] =
                        static_cast<std::uint32_t>(rng.uniform(p));
                }
                std::vector<std::vector<std::uint8_t>> init(1);
                init[0].resize(words.size() * 4);
                std::memcpy(init[0].data(), words.data(),
                            init[0].size());

                runShadowAndFast(compiledNttMul(kp), tasklets, 1,
                                 threads, init, 0,
                                 "ntt n" + std::to_string(n) + " t" +
                                     std::to_string(tasklets) + " th" +
                                     std::to_string(threads));
                iterations += 1;
            }
        }
    }
    return iterations;
}

/**
 * The full fuzz grid in one test so the iteration budget is counted
 * where it runs: every registered kernel family, across widths,
 * shapes, tasklet counts 1/11/16/24 and host threads 1/8. Each
 * iteration is a shadow launch (self-checking oracle) plus a pure
 * fast launch compared bit for bit against the interpreter.
 */
TEST(FastPathDifferential, FullGridIsBitExact)
{
    int iterations = 0;
    iterations += runVecGrid<1>();
    iterations += runVecGrid<2>();
    iterations += runVecGrid<4>();
    iterations += runConvGrid<1>();
    iterations += runConvGrid<2>();
    iterations += runConvGrid<3>();
    iterations += runConvGrid<4>();
    iterations += runConvPerfbenchShape();
    iterations += runNttGrid();
    EXPECT_GE(iterations, 200)
        << "fuzz grid shrank below the 200-iteration budget";
}

// ----- the native 128-bit add lane at its edges -----

/** The generic limb loop hostWideAddModQ falls back to for widths
 *  without a native lane, spelled out as the lane's reference. */
void
limbLoopAddModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t *out,
                std::uint32_t limbs)
{
    std::uint32_t s[kMaxLimbs];
    std::uint32_t d[kMaxLimbs];
    const std::uint32_t carry = fastpath::hostWideAdd(a, b, s, limbs);
    const std::uint32_t borrow = fastpath::hostWideSub(s, q, d, limbs);
    const std::uint32_t take_d = carry | (borrow ^ 1u);
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = take_d != 0 ? d[i] : s[i];
}

/**
 * hostWideAddModQ at 4 limbs (the native u128 lane) against the limb
 * loop, bit for bit, on the values where a 128-bit lane can go wrong:
 * a carry out of the top word (with and without a wrapped sum below
 * q), sums landing exactly on q and on q - 1, unreduced operands and a
 * random grid. The same pairs then run through vec-add-modq under
 * Shadow, whose interpreter oracle is the DPU kernel itself.
 */
TEST(FastPathLanes, WideAddModQ128MatchesLimbLoopAtEdges)
{
    constexpr std::uint32_t L = 4;
    using W = WideInt<L>;
    const W q = standardParams<L>().q;
    const W max = W::maxValue();
    const W one(1ULL);
    const W half = W::oneShl(127);
    std::vector<std::pair<W, W>> pairs = {
        {max, max},           // carry out, wrapped sum >= q
        {max, one},           // carry out, wrapped sum 0 < q
        {half, half},         // carry out, wrapped sum 0 < q
        {max, q},             // carry out, wrapped sum q - 1
        {q - one, one},       // a + b == q
        {q, W()},             // a + b == q, a unreduced
        {q.shr(1), q - q.shr(1)}, // a + b == q
        {q - one, W()},       // a + b == q - 1
        {q.shr(1), q - one - q.shr(1)}, // a + b == q - 1
        {q, q},               // both unreduced, no carry
        {max - q, q},         // a + b == 2^128 - 1
        {W(), W()},
    };
    Rng rng(kSeed + 128);
    for (int i = 0; i < 256; ++i) {
        pairs.emplace_back(pimhe::testing::randomWide<L>(rng),
                           pimhe::testing::randomWide<L>(rng));
        pairs.emplace_back(randomBelow<L>(rng, q), randomBelow<L>(rng, q));
        W u = pimhe::testing::randomWide<L>(rng);
        while (u < q)
            u = pimhe::testing::randomWide<L>(rng);
        pairs.emplace_back(u, randomBelow<L>(rng, q));
    }

    std::uint32_t ql[L];
    for (std::uint32_t l = 0; l < L; ++l)
        ql[l] = q.limb(l);
    std::vector<std::uint8_t> abytes(pairs.size() * L * 4);
    std::vector<std::uint8_t> bbytes(abytes.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        std::uint32_t al[L], bl[L], lane[L], loop[L];
        for (std::uint32_t l = 0; l < L; ++l) {
            al[l] = pairs[i].first.limb(l);
            bl[l] = pairs[i].second.limb(l);
        }
        fastpath::hostWideAddModQ(al, bl, ql, lane, L);
        limbLoopAddModQ(al, bl, ql, loop, L);
        EXPECT_EQ(0, std::memcmp(lane, loop, sizeof lane))
            << "pair " << i << ": a=" << pairs[i].first.toHexString()
            << " b=" << pairs[i].second.toHexString();
        std::memcpy(abytes.data() + i * L * 4, al, L * 4);
        std::memcpy(bbytes.data() + i * L * 4, bl, L * 4);
    }

    const auto p = vecParamsFor<L>(pairs.size());
    std::vector<std::uint8_t> init = abytes;
    init.resize(p.mramB);
    init.insert(init.end(), bbytes.begin(), bbytes.end());
    runShadowAndFast(compiledVecAddModQ(p), 11, 1, 1, {init}, 0,
                     "vec-add-modq L4 lane edges");
}

// ----- oracle: fast-mode PIM convolver vs the host engines -----

/**
 * The fast path checked without the interpreter: PimConvolver<4> in
 * pure Fast mode, on one DPU and row-sharded over 16, must equal the
 * host's exact convolvers coefficient for coefficient. Schoolbook is
 * the reference at n = 256; the RNS-NTT engine (itself locked to
 * schoolbook in test_ntt) at n = 1024, where schoolbook would be slow
 * under the sanitizers.
 */
TEST(FastPathOracle, PimConvolverMatchesHostConvolvers)
{
    const auto q = standardParams<4>().q;
    for (const std::size_t n : {256u, 1024u}) {
        RingContext<4> ring(n, q);
        const RnsNttConvolver<4> rns(ring);
        const SchoolbookConvolver<4> schoolbook(ring);
        Rng rng(kSeed + 404 + n);
        std::vector<std::pair<Polynomial<4>, Polynomial<4>>> operands;
        operands.emplace_back(ring.sampleUniform(rng),
                              ring.sampleUniform(rng));
        // Every coefficient floor(q/2) + 1 (the most negative centred
        // value) against every coefficient q - 1 (centred -1).
        Polynomial<4> most_negative(n);
        Polynomial<4> minus_one(n);
        for (std::size_t i = 0; i < n; ++i) {
            most_negative[i] = q.shr(1) + U128(1ULL);
            minus_one[i] = q - U128(1ULL);
        }
        operands.emplace_back(most_negative, minus_one);

        for (const std::size_t dpus : {1u, 16u}) {
            const PimConvolver<4> pim(ring,
                                      gridSystem(dpus, 4, ExecMode::Fast),
                                      12, dpus);
            for (std::size_t k = 0; k < operands.size(); ++k) {
                const auto &[a, b] = operands[k];
                const auto got = pim.convolveCentered(a, b);
                ASSERT_EQ(pim.dpuSet().lastLaunch().execMode,
                          ExecMode::Fast);
                const auto want = n == 256
                                      ? schoolbook.convolveCentered(a, b)
                                      : rns.convolveCentered(a, b);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(got[i], want[i])
                        << "n " << n << " dpus " << dpus << " operands "
                        << k << " coeff " << i;
            }
        }
    }
}

// ----- mismatch injection: a wrong fast body must be caught -----

std::vector<std::vector<std::uint8_t>>
smallVecInit(const VecKernelParams &p, std::size_t dpus)
{
    Rng rng(kSeed + 4242);
    std::vector<std::vector<std::uint8_t>> init(dpus);
    for (auto &m : init) {
        m = packedVec<2>(rng, p.elems);
        const auto b = packedVec<2>(rng, p.elems);
        m.resize(p.mramB + b.size());
        std::memcpy(m.data() + p.mramB, b.data(), b.size());
    }
    return init;
}

TEST(FastPathMismatchDeath, OffByOneOutputTailIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto p = vecParamsFor<2>(65);
    CompiledKernel ck = compiledVecAddModQ(p);
    const auto base = ck.fast;
    // Deliberate bug: the fast body mangles the final element's last
    // byte — an off-by-one tail.
    ck.fast = [base, p](FastCtx &f) {
        base(f);
        const std::uint64_t last =
            p.mramOut +
            static_cast<std::uint64_t>(p.elems) * p.elemBytes() - 1;
        std::uint8_t byte = 0;
        f.mram.read(last, &byte, 1);
        byte ^= 0x01;
        f.mram.write(last, &byte, 1);
    };

    DpuSet set(gridSystem(1, 1, ExecMode::Shadow), 1);
    const auto init = smallVecInit(p, 1);
    set.dpuAt(0).mram().write(0, init[0].data(), init[0].size());
    EXPECT_DEATH(
        set.launch(12, ck),
        "shadow-mode divergence: dpu 0.*vec-add-modq.*"
        "output 'result' diverges in mram bytes");
}

TEST(FastPathMismatchDeath, StaleCycleFormulaIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto p = vecParamsFor<2>(64);
    CompiledKernel ck = compiledVecMulModQ(p);
    const auto base = ck.fast;
    // Deliberate bug: a stale cost formula over-charges tasklet 0 by
    // one instruction (outputs stay correct, only the model drifts).
    ck.fast = [base](FastCtx &f) {
        base(f);
        f.stats.tasklets[0].instructions += 1;
    };
    DpuSet set(gridSystem(1, 1, ExecMode::Shadow), 1);
    const auto init = smallVecInit(p, 1);
    set.dpuAt(0).mram().write(0, init[0].data(), init[0].size());
    EXPECT_DEATH(
        set.launch(12, ck),
        "shadow-mode divergence: dpu 0.*vec-mul-modq.*"
        "tasklet 0: instructions interpreter=[0-9]+ fast=[0-9]+");
}

TEST(FastPathMismatchDeath, SkippedShardRowIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sp = convParamsFor<2>(16);
    const auto [b0, e0] = analysis::rowShardRange(16, 2, 0);
    sp.rowBegin = b0;
    sp.rowEnd = e0;
    sp.mramMeta = sp.mramOut + static_cast<std::uint64_t>(e0 - b0) *
                                   sp.accLimbs() * 4;
    CompiledKernel ck = compiledNegacyclicConv(sp);
    const auto base = ck.fast;
    // Deliberate bug: the fast body never computes the shard's final
    // row (its accumulator region keeps the pre-launch bytes).
    ck.fast = [base, sp](FastCtx &f) {
        const std::uint32_t acc_bytes = sp.accLimbs() * 4;
        std::uint32_t meta[2] = {0, sp.n};
        f.mram.read(sp.mramMeta, reinterpret_cast<std::uint8_t *>(meta),
                    8);
        const std::uint64_t last_row =
            sp.mramOut +
            static_cast<std::uint64_t>(meta[1] - meta[0] - 1) *
                acc_bytes;
        std::vector<std::uint8_t> saved(acc_bytes);
        f.mram.read(last_row, saved.data(), saved.size());
        base(f);
        f.mram.write(last_row, saved.data(), saved.size());
    };

    DpuSet set(gridSystem(2, 1, ExecMode::Shadow), 2);
    Rng rng(kSeed + 99);
    for (std::size_t d = 0; d < 2; ++d) {
        auto m = packedVec<2>(rng, sp.n);
        const auto b = packedVec<2>(rng, sp.n);
        m.resize(sp.mramB + b.size());
        std::memcpy(m.data() + sp.mramB, b.data(), b.size());
        const auto [rb, re] = analysis::rowShardRange(
            16, 2, static_cast<std::uint32_t>(d));
        m.resize(sp.mramMeta + 8);
        const std::uint32_t meta[2] = {rb, re};
        std::memcpy(m.data() + sp.mramMeta, meta, 8);
        set.dpuAt(d).mram().write(0, m.data(), m.size());
    }
    EXPECT_DEATH(
        set.launch(11, ck),
        "shadow-mode divergence: dpu 0.*negacyclic-conv-sharded.*"
        "output 'accumulators' diverges in mram bytes");
}

TEST(FastPathMismatchDeath, DroppedTopColumnCarryIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    constexpr std::uint32_t L = 4;
    const std::size_t n = 32;
    const auto p = convParamsFor<L>(n);
    CompiledKernel ck = compiledNegacyclicConv(p);
    const auto base = ck.fast;
    // Deliberate bug: the fast body keeps the correct stats but
    // rewrites every row after dropping the carry out of its top
    // column. Reduced operands never carry out of it at L = 4;
    // unreduced ones (centred magnitudes near 2^128) do.
    ck.fast = [base, p](FastCtx &f) {
        using namespace fastpath;
        constexpr std::uint32_t top = 2 * kConvMagDigits<L> - 1;
        base(f);
        std::vector<std::uint32_t> coeffs(std::size_t(p.n) * L);
        auto *bytes = reinterpret_cast<std::uint8_t *>(coeffs.data());
        f.mram.read(p.mramA, bytes, coeffs.size() * 4);
        const CentredOperand a = centreOperand<L>(p, coeffs.data());
        f.mram.read(p.mramB, bytes, coeffs.size() * 4);
        const CentredOperand b = centreOperand<L>(p, coeffs.data());
        for (std::uint32_t m = 0; m < p.n; ++m) {
            ConvColumns<L> col = {};
            accumulateRow<L>(p, a, b, m, col);
            col[0][top] = static_cast<ConvDigit>(col[0][top]);
            col[1][top] = static_cast<ConvDigit>(col[1][top]);
            std::uint32_t acc[2 * kMaxLimbs];
            resolveRow<L>(col, acc);
            f.mram.write(p.mramOut + std::uint64_t(m) * p.accLimbs() * 4,
                         reinterpret_cast<std::uint8_t *>(acc),
                         p.accLimbs() * 4);
        }
    };

    DpuSet set(gridSystem(1, 1, ExecMode::Shadow), 1);
    Rng rng(kSeed + 123);
    auto init = convOperand<L>(rng, n, ConvFill::Unreduced);
    const auto b = convOperand<L>(rng, n, ConvFill::Unreduced);
    init.insert(init.end(), b.begin(), b.end());
    set.dpuAt(0).mram().write(0, init.data(), init.size());
    EXPECT_DEATH(
        set.launch(11, ck),
        "shadow-mode divergence: dpu 0.*negacyclic-conv.*"
        "output 'accumulators' diverges in mram bytes");
}

// ----- end to end: whole BFV pipelines under shadow mode -----

SystemConfig
shadowBfvSystem(std::size_t dpus)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    cfg.hostThreads = 4;
    cfg.execMode = ExecMode::Shadow;
    cfg.dpu.checker.enabled = true;
    cfg.dpu.checker.failFast = true;
    return cfg;
}

TEST(FastPathEndToEnd, BfvPipelineShadowedWithDecryption)
{
    constexpr std::size_t N = 2;
    BfvHarness<N> h(32, kSeed + 7);
    PimHeSystem<N> pimsys(h.ctx, shadowBfvSystem(4), 4, 12);

    Rng rng(kSeed + 8);
    std::vector<Ciphertext<N>> a, b;
    std::vector<std::uint64_t> va, vb;
    for (int i = 0; i < 3; ++i) {
        va.push_back(rng.uniform(h.params.t));
        vb.push_back(rng.uniform(h.params.t));
        a.push_back(h.encryptScalar(va.back()));
        b.push_back(h.encryptScalar(vb.back()));
    }

    // Elementwise adds and coefficientwise products, shadowed.
    const auto sums = pimsys.addCiphertextVectors(a, b);
    for (int i = 0; i < 3; ++i) {
        const auto host = h.eval.add(a[i], b[i]);
        ASSERT_EQ(host.size(), sums[i].size());
        for (std::size_t c = 0; c < host.size(); ++c)
            ASSERT_TRUE(host[c] == sums[i][c]) << "add ct " << i;
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  (va[i] + vb[i]) % h.params.t);
    }
    (void)pimsys.mulCoefficientwise(a, b);

    // Resident fused (x + y) * z and the tree reduction, shadowed.
    const auto ra = pimsys.makeResident(a[0]);
    const auto rb = pimsys.makeResident(b[0]);
    const auto rc = pimsys.makeResident(a[1]);
    const auto fused = pimsys.fusedAddMulResident(ra, rb, rc);
    (void)pimsys.materialize(fused);
    const auto reduced = pimsys.reduceCiphertexts(a);
    EXPECT_EQ(h.decryptScalar(reduced),
              (va[0] + va[1] + va[2]) % h.params.t);

    // Full BFV multiply through the shadowed PIM convolver.
    BfvContext<N> pim_ctx(h.params);
    pim_ctx.setConvolver(std::make_unique<PimConvolver<N>>(
        pim_ctx.ring(), shadowBfvSystem(2), 11));
    Evaluator<N> pim_eval(pim_ctx);
    const auto host_prod = h.eval.multiply(a[0], b[0]);
    const auto pim_prod = pim_eval.multiply(a[0], b[0]);
    ASSERT_EQ(host_prod.size(), pim_prod.size());
    for (std::size_t c = 0; c < host_prod.size(); ++c)
        ASSERT_TRUE(host_prod[c] == pim_prod[c]) << "multiply";
    EXPECT_EQ(h.decryptScalar(pim_prod), va[0] * vb[0] % h.params.t);
}

TEST(FastPathEndToEnd, FastModeMatchesHostEvaluator)
{
    constexpr std::size_t N = 4;
    BfvHarness<N> h(32, kSeed + 21);
    SystemConfig cfg = shadowBfvSystem(4);
    cfg.execMode = ExecMode::Fast;
    PimHeSystem<N> pimsys(h.ctx, cfg, 4, 12);

    Rng rng(kSeed + 22);
    std::vector<Ciphertext<N>> a, b;
    for (int i = 0; i < 3; ++i) {
        a.push_back(h.encryptScalar(rng.uniform(h.params.t)));
        b.push_back(h.encryptScalar(rng.uniform(h.params.t)));
    }
    const auto sums = pimsys.addCiphertextVectors(a, b);
    ASSERT_EQ(pimsys.lastLaunch().execMode, ExecMode::Fast);
    for (int i = 0; i < 3; ++i) {
        const auto host = h.eval.add(a[i], b[i]);
        for (std::size_t c = 0; c < host.size(); ++c)
            ASSERT_TRUE(host[c] == sums[i][c]) << "fast add ct " << i;
    }
}

} // namespace
} // namespace pimhe
