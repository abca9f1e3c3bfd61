/**
 * @file
 * Compiled-kernel fast path for every shipped DPU kernel.
 *
 * The interpreter in pim/dpu.h is the oracle: it computes real values
 * AND charges issue slots per intrinsic, which makes it too slow to
 * simulate thousands of DPUs (the host-parallel engine is wall-clock
 * flat because per-DPU work is dominated by dispatch overhead). Each
 * compiled* factory here returns a pim::CompiledKernel whose fast
 * body reproduces the interpreter bit-exactly at a fraction of the
 * cost, in two halves:
 *
 *  - functional: vectorized host loops mirroring the DPU arithmetic
 *    limb for limb (branch-free selects become ternaries, carry
 *    chains become uint64 accumulators), applied straight to MRAM;
 *  - timing: per-tasklet instruction/DMA counters composed from the
 *    kernel's loop structure times probed unit costs. Every kernel
 *    is branch-free with respect to data, so the cost of one element
 *    / convolution term / transform is a shape constant — probed
 *    once per launch by running the real interpreter body on a
 *    scratch TaskletCtx (see probeInstructions), never hand-derived.
 *
 * The contract is bit-exactness of semantic outputs and of every
 * modelled TaskletStats field, enforced by ExecMode::Shadow and the
 * differential fuzz suite (tests/test_fastpath_differential.cpp). If
 * a kernel body and its fast mirror ever drift apart, shadow mode
 * panics with the kernel, DPU and first diverging byte range.
 */

#ifndef PIMHE_PIMHE_FAST_KERNELS_H
#define PIMHE_PIMHE_FAST_KERNELS_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "pim/dpu.h"
#include "pim/wide_ops.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"

namespace pimhe {
namespace pimhe_kernels {
namespace fastpath {

/**
 * Instruction cost of a data-independent code fragment, measured by
 * executing it once against a scratch TaskletCtx with the launch's
 * DpuConfig (nativeMul32 changes mul costs, so probing must see the
 * real config). Probes run once per compiled-kernel instance under a
 * std::call_once, so the cost is negligible next to a launch.
 */
template <typename Body>
std::uint64_t
probeInstructions(const pim::DpuConfig &cfg, Body &&body,
                  std::size_t wram_bytes = 512)
{
    pim::Wram wram(wram_bytes);
    pim::Mram mram(64);
    pim::TaskletStats ts;
    pim::TaskletCtx ctx(0, 1, cfg, wram, mram, ts, nullptr);
    body(ctx);
    return ts.instructions;
}

// ---------------------------------------------------------------------
// Host mirrors of the DPU wide-integer arithmetic (pim/wide_ops.h).
// Structural, not just mathematical: the branch-free select/mask
// sequences are mirrored so results match the interpreter bit for bit
// even on unreduced inputs. The one mathematical step is the
// convolution's accumulation (runFastConv): the interpreter's
// accumulator is a sum of signed products in Z / 2^(32 * accLimbs),
// where grouping and order cannot change the result, so the mirror
// sums positive and negative products in separate double-width columns
// and subtracts once per row. Centring stays structural, which is
// what keeps unreduced inputs exact (DESIGN.md §12.5).
// ---------------------------------------------------------------------

inline std::uint32_t
hostWideAdd(const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *out, std::uint32_t limbs)
{
    std::uint64_t carry = 0;
    for (std::uint32_t i = 0; i < limbs; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(a[i]) + b[i] + carry;
        out[i] = static_cast<std::uint32_t>(s);
        carry = s >> 32;
    }
    return static_cast<std::uint32_t>(carry);
}

inline std::uint32_t
hostWideSub(const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *out, std::uint32_t limbs)
{
    std::uint32_t borrow = 0;
    for (std::uint32_t i = 0; i < limbs; ++i) {
        const std::uint64_t rhs =
            static_cast<std::uint64_t>(b[i]) + borrow;
        const std::uint32_t next = a[i] < rhs ? 1u : 0u;
        out[i] = static_cast<std::uint32_t>(a[i] - rhs);
        borrow = next;
    }
    return borrow;
}

/** One native word of limbs 32-bit limbs: the limb loop's select,
 *  evaluated in W. The sum wraps modulo 2^bits(W), so the carry out
 *  of the top word is s < a, exact for reduced and unreduced inputs
 *  alike, and the result is bit-identical to the limb loop. */
template <typename W>
inline void
hostWideAddModQLane(const std::uint32_t *a, const std::uint32_t *b,
                    const std::uint32_t *q, std::uint32_t *out)
{
    constexpr std::uint32_t limbs = sizeof(W) / 4;
    const auto load = [](const std::uint32_t *w) {
        W v = 0;
        for (std::uint32_t i = 0; i < limbs; ++i)
            v |= static_cast<W>(w[i]) << (32 * i);
        return v;
    };
    const W av = load(a);
    const W qv = load(q);
    const W s = av + load(b);
    const std::uint32_t carry = s < av ? 1u : 0u;
    const std::uint32_t borrow = s < qv ? 1u : 0u;
    const W r = (carry | (borrow ^ 1u)) != 0 ? W(s - qv) : s;
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = static_cast<std::uint32_t>(r >> (32 * i));
}

/** Mirror of dpuWideAddModQ: s = a + b; d = s - q;
 *  out = (carry | !borrow) ? d : s. */
inline void
hostWideAddModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t *out,
                std::uint32_t limbs)
{
    if (limbs == 1)
        return hostWideAddModQLane<std::uint32_t>(a, b, q, out);
    if (limbs == 2)
        return hostWideAddModQLane<std::uint64_t>(a, b, q, out);
#if defined(__SIZEOF_INT128__)
    if (limbs == 4)
        return hostWideAddModQLane<unsigned __int128>(a, b, q, out);
#endif
    std::uint32_t s[pim::kMaxLimbs];
    std::uint32_t d[pim::kMaxLimbs];
    const std::uint32_t carry = hostWideAdd(a, b, s, limbs);
    const std::uint32_t borrow = hostWideSub(s, q, d, limbs);
    const std::uint32_t take_d = carry | (borrow ^ 1u);
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = take_d != 0 ? d[i] : s[i];
}

/** Exact 2*limbs product; equals the DPU's Karatsuba result (both
 *  compute the exact integer product). */
inline void
hostWideMul(const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *out, std::uint32_t limbs)
{
    std::uint64_t acc[2 * pim::kMaxLimbs + 1] = {};
    for (std::uint32_t i = 0; i < limbs; ++i)
        for (std::uint32_t j = 0; j < limbs; ++j) {
            const std::uint64_t p =
                static_cast<std::uint64_t>(a[i]) * b[j];
            acc[i + j] += p & 0xFFFFFFFFu;
            acc[i + j + 1] += p >> 32;
        }
    std::uint64_t carry = 0;
    for (std::uint32_t k = 0; k < 2 * limbs; ++k) {
        const std::uint64_t v = acc[k] + carry;
        out[k] = static_cast<std::uint32_t>(v);
        carry = v >> 32;
    }
}

/** Mirror of detail::dpuFoldOnce (pseudo-Mersenne fold). */
inline void
hostFoldOnce(const std::uint32_t *in, std::uint32_t in_limbs,
             std::uint32_t k, std::uint32_t c, std::uint32_t *out,
             std::uint32_t out_limbs)
{
    const std::uint32_t limb_shift = k / 32;
    const std::uint32_t bit_shift = k % 32;
    const std::uint32_t hi_limbs =
        in_limbs > limb_shift ? in_limbs - limb_shift : 0;

    std::uint32_t hi[2 * pim::kMaxLimbs] = {};
    for (std::uint32_t i = 0; i < hi_limbs; ++i) {
        std::uint32_t v = in[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < in_limbs)
            v |= in[i + limb_shift + 1] << (32 - bit_shift);
        hi[i] = v;
    }

    std::uint32_t prod[2 * pim::kMaxLimbs + 1] = {};
    std::uint32_t carry = 0;
    for (std::uint32_t i = 0; i < hi_limbs; ++i) {
        const std::uint64_t p =
            static_cast<std::uint64_t>(hi[i]) * c;
        const std::uint64_t lo = (p & 0xFFFFFFFFu) + carry;
        prod[i] = static_cast<std::uint32_t>(lo);
        carry = static_cast<std::uint32_t>((p >> 32) + (lo >> 32));
    }
    prod[hi_limbs] = carry;

    std::uint32_t lo[2 * pim::kMaxLimbs] = {};
    const std::uint32_t lo_limbs =
        std::min(in_limbs, limb_shift + 1);
    for (std::uint32_t i = 0; i < lo_limbs; ++i)
        lo[i] = in[i];
    if (bit_shift != 0 && limb_shift < in_limbs)
        lo[limb_shift] = in[limb_shift] & ((1u << bit_shift) - 1u);
    else if (bit_shift == 0 && limb_shift < in_limbs)
        lo[limb_shift] = 0;

    hostWideAdd(lo, prod, out, out_limbs);
}

/** Mirror of dpuPseudoMersenneReduce (3 folds + 2 cond subs). */
inline void
hostPseudoMersenneReduce(const std::uint32_t *x, std::uint32_t k,
                         std::uint32_t c, const std::uint32_t *q,
                         std::uint32_t *out, std::uint32_t limbs)
{
    std::uint32_t y[2 * pim::kMaxLimbs] = {};
    hostFoldOnce(x, 2 * limbs, k, c, y, limbs + 2);
    std::uint32_t z[2 * pim::kMaxLimbs] = {};
    hostFoldOnce(y, limbs + 2, k, c, z, limbs + 2);
    std::uint32_t w[2 * pim::kMaxLimbs] = {};
    hostFoldOnce(z, limbs + 2, k, c, w, limbs + 1);

    std::uint32_t qext[pim::kMaxLimbs + 1];
    for (std::uint32_t i = 0; i < limbs; ++i)
        qext[i] = q[i];
    qext[limbs] = 0;
    std::uint32_t d[pim::kMaxLimbs + 1];
    for (int round = 0; round < 2; ++round) {
        const std::uint32_t borrow =
            hostWideSub(w, qext, d, limbs + 1);
        for (std::uint32_t i = 0; i < limbs + 1; ++i)
            w[i] = borrow != 0 ? w[i] : d[i];
    }
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = w[i];
}

/** Mirror of dpuWideMulModQ: product then pseudo-Mersenne reduce. */
inline void
hostWideMulModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t k,
                std::uint32_t c, std::uint32_t *out,
                std::uint32_t limbs)
{
#if defined(__SIZEOF_INT128__)
    // Native fast lanes. The generic path computes the exact product
    // then three folds (each truncated to the fold's word budget) and
    // two conditional subtractions; for 1- and 2-limb operands every
    // intermediate fits a machine word pair, so evaluating the SAME
    // fold/truncate/select sequence in u64 / u128 arithmetic is
    // bit-identical — including the third fold's (limbs+1)-word
    // truncation, which is applied explicitly.
    if (limbs == 1) {
        const std::uint64_t mask = (1ull << k) - 1; // k <= 32
        std::uint64_t x = static_cast<std::uint64_t>(a[0]) * b[0];
        x = (x >> k) * c + (x & mask); // fits: c < 2^(k-1)
        x = (x >> k) * c + (x & mask);
        x = ((x >> k) * c + (x & mask)) &
            0xFFFFFFFFFFFFFFFFull; // 2-word budget
        for (int round = 0; round < 2; ++round)
            if (x >= q[0])
                x -= q[0];
        out[0] = static_cast<std::uint32_t>(x);
        return;
    }
    if (limbs == 2) {
        using u128 = unsigned __int128;
        const std::uint64_t a64 =
            a[0] | (static_cast<std::uint64_t>(a[1]) << 32);
        const std::uint64_t b64 =
            b[0] | (static_cast<std::uint64_t>(b[1]) << 32);
        const std::uint64_t q64 =
            q[0] | (static_cast<std::uint64_t>(q[1]) << 32);
        const u128 mask = (static_cast<u128>(1) << k) - 1; // k <= 64
        const u128 word3 =
            (static_cast<u128>(1) << 96) - 1; // 3-word budget
        u128 x = static_cast<u128>(a64) * b64;
        x = (x >> k) * c + (x & mask); // 4-word budget == u128 wrap
        x = (x >> k) * c + (x & mask);
        x = ((x >> k) * c + (x & mask)) & word3;
        for (int round = 0; round < 2; ++round)
            if (x >= q64)
                x -= q64;
        const std::uint64_t r = static_cast<std::uint64_t>(x);
        out[0] = static_cast<std::uint32_t>(r);
        out[1] = static_cast<std::uint32_t>(r >> 32);
        return;
    }
#endif
    std::uint32_t prod[2 * pim::kMaxLimbs] = {};
    hostWideMul(a, b, prod, limbs);
    hostPseudoMersenneReduce(prod, k, c, q, out, limbs);
}

// ---------------------------------------------------------------------
// Elementwise kernels (add / mul / fused add->mul / in-place reduce).
// ---------------------------------------------------------------------

/** Per-launch probe cache; shared by every DPU of a launch through
 *  the CompiledKernel's fast closure (std::call_once serialises the
 *  first probe across host threads). */
struct ProbedCost
{
    std::once_flag once;
    std::uint64_t perElement = 0;
};

/** Probe the per-element body of runElementwise: limb loads, the
 *  modular op, limb stores, and the charge(3) loop overhead. */
inline std::uint64_t
probeVecPerElement(const pim::DpuConfig &cfg,
                   const VecKernelParams &p, bool multiply)
{
    return probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        std::uint32_t a[pim::kMaxLimbs] = {};
        std::uint32_t b[pim::kMaxLimbs] = {};
        std::uint32_t out[pim::kMaxLimbs] = {};
        for (std::uint32_t l = 0; l < p.limbs; ++l) {
            a[l] = ctx.wramLoad32(4 * l);
            b[l] = ctx.wramLoad32(4 * l);
        }
        if (multiply)
            pim::dpuWideMulModQ(ctx, a, b, p.q.data(), p.k, p.c, out,
                                p.limbs);
        else
            pim::dpuWideAddModQ(ctx, a, b, p.q.data(), out, p.limbs);
        for (std::uint32_t l = 0; l < p.limbs; ++l)
            ctx.wramStore32(4 * l, out[l]);
        ctx.charge(3);
    });
}

/** Probe the fused add->mul per-element body (4-buffer kernel). */
inline std::uint64_t
probeFusedPerElement(const pim::DpuConfig &cfg,
                     const FusedKernelParams &p)
{
    const VecKernelParams &v = p.vec;
    return probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        std::uint32_t a[pim::kMaxLimbs] = {};
        std::uint32_t b[pim::kMaxLimbs] = {};
        std::uint32_t c[pim::kMaxLimbs] = {};
        std::uint32_t sum[pim::kMaxLimbs] = {};
        std::uint32_t out[pim::kMaxLimbs] = {};
        for (std::uint32_t l = 0; l < v.limbs; ++l) {
            a[l] = ctx.wramLoad32(4 * l);
            b[l] = ctx.wramLoad32(4 * l);
            c[l] = ctx.wramLoad32(4 * l);
        }
        pim::dpuWideAddModQ(ctx, a, b, v.q.data(), sum, v.limbs);
        pim::dpuWideMulModQ(ctx, sum, c, v.q.data(), v.k, v.c, out,
                            v.limbs);
        for (std::uint32_t l = 0; l < v.limbs; ++l)
            ctx.wramStore32(4 * l, out[l]);
        ctx.charge(3);
    });
}

/**
 * Fast body shared by the elementwise kernels. Mirrors
 * detail::runElementwise (and the fused kernel body) chunk for chunk:
 * the same tasklet partition, the same DMA transfer sizes and counts,
 * the same per-chunk charge(5) — but element values come from the
 * host mirrors and per-element instructions from the probed cost.
 * Chunks are processed in tasklet order like the sequential
 * interpreter, so even aliased layouts (the in-place reduce) see
 * writes land in the same order.
 *
 * The interpreter's rounded-up DMA tail (stale WRAM bytes past the
 * last element of an odd 4-byte-element count) is NOT reproduced: it
 * is non-semantic by the alignedTaskletRange contract, and shadow
 * mode compares semantic output ranges only.
 */
inline void
runFastElementwise(pim::FastCtx &f, const VecKernelParams &p,
                   std::uint64_t mram_c, bool fused, bool multiply,
                   std::uint64_t per_element)
{
    const std::uint32_t buffers = fused ? 4u : 3u;
    const std::uint32_t eb = p.elemBytes();
    const std::uint32_t chunk_bytes =
        wramChunkBytes(f.cfg, f.numTasklets, buffers);
    const std::uint32_t chunk_elems =
        std::max<std::uint32_t>(1, chunk_bytes / eb);

    std::vector<std::uint32_t> abuf(
        static_cast<std::size_t>(chunk_elems) * p.limbs);
    std::vector<std::uint32_t> bbuf(abuf.size());
    std::vector<std::uint32_t> cbuf(fused ? abuf.size() : 0);
    std::vector<std::uint32_t> obuf(abuf.size());
    auto bytesOf = [](std::vector<std::uint32_t> &v) {
        return reinterpret_cast<std::uint8_t *>(v.data());
    };

    for (unsigned t = 0; t < f.numTasklets; ++t) {
        const auto [begin, end] =
            alignedTaskletRange(p.elems, eb, t, f.numTasklets);
        pim::TaskletStats &ts = f.stats.tasklets[t];
        for (std::uint32_t e = begin; e < end; e += chunk_elems) {
            const std::uint32_t count =
                std::min<std::uint32_t>(chunk_elems, end - e);
            const std::uint32_t dma_bytes =
                ((count * eb + 7) / 8) * 8;
            const std::uint64_t off =
                static_cast<std::uint64_t>(e) * eb;
            const std::uint64_t sem =
                static_cast<std::uint64_t>(count) * eb;

            f.mram.read(p.mramA + off, bytesOf(abuf), sem);
            f.chargeDma(t, dma_bytes);
            f.mram.read(p.mramB + off, bytesOf(bbuf), sem);
            f.chargeDma(t, dma_bytes);
            if (fused) {
                f.mram.read(mram_c + off, bytesOf(cbuf), sem);
                f.chargeDma(t, dma_bytes);
            }
            for (std::uint32_t i = 0; i < count; ++i) {
                const std::uint32_t *a =
                    abuf.data() +
                    static_cast<std::size_t>(i) * p.limbs;
                const std::uint32_t *b =
                    bbuf.data() +
                    static_cast<std::size_t>(i) * p.limbs;
                std::uint32_t *o =
                    obuf.data() +
                    static_cast<std::size_t>(i) * p.limbs;
                if (fused) {
                    const std::uint32_t *c =
                        cbuf.data() +
                        static_cast<std::size_t>(i) * p.limbs;
                    std::uint32_t sum[pim::kMaxLimbs];
                    hostWideAddModQ(a, b, p.q.data(), sum, p.limbs);
                    hostWideMulModQ(sum, c, p.q.data(), p.k, p.c, o,
                                    p.limbs);
                } else if (multiply) {
                    hostWideMulModQ(a, b, p.q.data(), p.k, p.c, o,
                                    p.limbs);
                } else {
                    hostWideAddModQ(a, b, p.q.data(), o, p.limbs);
                }
            }
            ts.instructions +=
                static_cast<std::uint64_t>(count) * per_element + 5;
            f.mram.write(p.mramOut + off, bytesOf(obuf), sem);
            f.chargeDma(t, dma_bytes);
        }
    }
}

// ---------------------------------------------------------------------
// Negacyclic convolution.
// ---------------------------------------------------------------------

/** Mirror of centreMagnitude (borrow trick + selects). */
inline std::uint32_t
hostCentreMagnitude(const ConvKernelParams &p, const std::uint32_t *v,
                    std::uint32_t *mag)
{
    std::uint32_t scratch[pim::kMaxLimbs];
    const std::uint32_t is_neg =
        hostWideSub(p.halfQ.data(), v, scratch, p.limbs);
    std::uint32_t qmv[pim::kMaxLimbs];
    hostWideSub(p.q.data(), v, qmv, p.limbs);
    for (std::uint32_t l = 0; l < p.limbs; ++l)
        mag[l] = is_neg != 0 ? qmv[l] : v[l];
    return is_neg;
}

/** Probe one inner term of the convolution row loop: coefficient
 *  loads, two centrings, the Karatsuba product, the sign xor, the
 *  signed accumulate and the charge(3). */
inline std::uint64_t
probeConvInner(const pim::DpuConfig &cfg, const ConvKernelParams &p)
{
    return probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        std::uint32_t acc[2 * pim::kMaxLimbs] = {};
        std::uint32_t av[pim::kMaxLimbs] = {};
        std::uint32_t bv[pim::kMaxLimbs] = {};
        for (std::uint32_t l = 0; l < p.limbs; ++l) {
            av[l] = ctx.wramLoad32(4 * l);
            bv[l] = ctx.wramLoad32(4 * l);
        }
        std::uint32_t am[pim::kMaxLimbs];
        std::uint32_t bm[pim::kMaxLimbs];
        const std::uint32_t sa = centreMagnitude(ctx, p, av, am);
        const std::uint32_t sb = centreMagnitude(ctx, p, bv, bm);
        std::uint32_t prod[2 * pim::kMaxLimbs] = {};
        pim::dpuWideMulKaratsuba(ctx, am, bm, prod, p.limbs);
        const std::uint32_t negate = ctx.xor_(sa, sb);
        accumulateSigned(ctx, acc, prod, 2 * p.limbs, p.accLimbs(),
                         negate);
        ctx.charge(3);
    });
}

/**
 * Digits of the word-level convolution mirror: 64-bit digits summed
 * in 128-bit columns where the compiler has them, 32-bit digits in
 * 64-bit columns otherwise. Either way one body serves every width.
 */
#if defined(__SIZEOF_INT128__)
using ConvDigit = std::uint64_t;
using ConvColumn = unsigned __int128;
using ConvSignedColumn = __int128;
#else
using ConvDigit = std::uint32_t;
using ConvColumn = std::uint64_t;
using ConvSignedColumn = std::int64_t;
#endif
inline constexpr std::uint32_t kConvDigitBits = 8 * sizeof(ConvDigit);
inline constexpr std::uint32_t kLimbsPerConvDigit = sizeof(ConvDigit) / 4;

/** Digits of one L-limb magnitude and of its accumulator. */
template <std::uint32_t L>
inline constexpr std::uint32_t kConvMagDigits =
    (L + kLimbsPerConvDigit - 1) / kLimbsPerConvDigit;
template <std::uint32_t L>
inline constexpr std::uint32_t kConvAccDigits =
    ConvKernelParams::accLimbsFor(L) / kLimbsPerConvDigit;

/** An operand centred once per DPU run: the sign bit and the
 *  magnitude (packed into little-endian digits) of every coefficient,
 *  exactly as centreMagnitude produces them. */
struct CentredOperand
{
    std::vector<std::uint8_t> sign;
    std::vector<ConvDigit> mag;
};

template <std::uint32_t L>
inline CentredOperand
centreOperand(const ConvKernelParams &p, const std::uint32_t *coeffs)
{
    constexpr std::uint32_t D = kConvMagDigits<L>;
    CentredOperand out;
    out.sign.resize(p.n);
    out.mag.resize(static_cast<std::size_t>(p.n) * D);
    for (std::uint32_t i = 0; i < p.n; ++i) {
        std::uint32_t m[D * kLimbsPerConvDigit] = {};
        out.sign[i] = static_cast<std::uint8_t>(
            hostCentreMagnitude(p, coeffs + std::size_t(i) * L, m));
        for (std::uint32_t d = 0; d < D; ++d) {
            ConvDigit w = 0;
            for (std::uint32_t k = 0; k < kLimbsPerConvDigit; ++k)
                w |= static_cast<ConvDigit>(m[d * kLimbsPerConvDigit + k])
                     << (32 * k);
            out.mag[std::size_t(i) * D + d] = w;
        }
    }
    return out;
}

/** The two column sets of one output row: col[0] sums the positive
 *  terms, col[1] the negative ones, 2 * kConvMagDigits columns each. */
template <std::uint32_t L>
using ConvColumns = ConvColumn[2][2 * kConvMagDigits<L>];

/**
 * Add every term of output row m into its column set, picked by the
 * term's sign bit (the two centring signs, flipped once more by the
 * negacyclic wrap), so there is no branch. Each term adds the low and
 * high halves of its digit partial products: column k takes at most
 * 2 * kConvMagDigits - 1 digit-sized addends per term.
 */
template <std::uint32_t L>
inline void
accumulateRow(const ConvKernelParams &p, const CentredOperand &a,
              const CentredOperand &b, std::uint32_t m,
              ConvColumns<L> &col)
{
    constexpr std::uint32_t D = kConvMagDigits<L>;
    const auto term = [&](std::uint32_t i, std::uint32_t j,
                          std::uint32_t negate) {
        ConvColumn *c = col[negate];
        const ConvDigit *x = &a.mag[std::size_t(i) * D];
        const ConvDigit *y = &b.mag[std::size_t(j) * D];
        for (std::uint32_t u = 0; u < D; ++u)
            for (std::uint32_t v = 0; v < D; ++v) {
                const ConvColumn prod = static_cast<ConvColumn>(x[u]) * y[v];
                c[u + v] += static_cast<ConvDigit>(prod);
                c[u + v + 1] += static_cast<ConvDigit>(prod >> kConvDigitBits);
            }
    };
    for (std::uint32_t i = 0; i <= m; ++i)
        term(i, m - i, a.sign[i] ^ b.sign[m - i]);
    for (std::uint32_t i = m + 1; i < p.n; ++i)
        term(i, m + p.n - i, a.sign[i] ^ b.sign[m + p.n - i] ^ 1u);
}

/**
 * Write acc = P - N mod 2^(32 * accLimbs) as accLimbs() u32 limbs,
 * where P and N are the values of the positive and negative column
 * sets: exactly the interpreter's two's-complement accumulator
 * (DESIGN.md §12.5). The sets are subtracted column by column and
 * carried with a signed carry (the arithmetic shift floors).
 */
template <std::uint32_t L>
inline void
resolveRow(const ConvColumns<L> &col, std::uint32_t *acc)
{
    ConvSignedColumn carry = 0;
    for (std::uint32_t k = 0; k < kConvAccDigits<L>; ++k) {
        ConvSignedColumn v = carry;
        if (k < 2 * kConvMagDigits<L>)
            v += static_cast<ConvSignedColumn>(col[0][k] - col[1][k]);
        const auto d = static_cast<ConvDigit>(v);
        carry = v >> kConvDigitBits;
        for (std::uint32_t l = 0; l < kLimbsPerConvDigit; ++l)
            acc[k * kLimbsPerConvDigit + l] =
                static_cast<std::uint32_t>(d >> (32 * l));
    }
}

/** runFastConv for one limb count L. */
template <std::uint32_t L>
inline void
runFastConvWidth(pim::FastCtx &f, const ConvKernelParams &p,
                 std::uint64_t inner_cost)
{
    const bool sharded = p.mramMeta != ConvKernelParams::kNoRowMeta;
    const std::uint32_t eb = p.limbs * 4;
    const std::uint32_t poly_bytes = p.n * eb;
    const std::uint32_t acc_bytes = p.accLimbs() * 4;
    PIMHE_ASSERT(2 * poly_bytes + (sharded ? 8u : 0u) +
                         f.numTasklets * acc_bytes <=
                     f.cfg.wramBytes,
                 "polynomials do not fit in WRAM; lower n");
    // The column bound: fewer than 2^(kConvDigitBits - 1) digit-sized
    // addends per column, so no column, and no difference of two
    // columns, leaves the signed column range.
    PIMHE_ASSERT(static_cast<ConvColumn>(2 * kConvMagDigits<L> - 1) * p.n <
                     (static_cast<ConvColumn>(1) << (kConvDigitBits - 1)),
                 "convolution columns could overflow; lower n");

    // Tasklet 0 stages both operands (and the metadata block).
    for (std::uint32_t off = 0; off < poly_bytes; off += 2048) {
        const std::uint32_t bytes =
            std::min<std::uint32_t>(2048, poly_bytes - off);
        f.chargeDma(0, bytes);
        f.chargeDma(0, bytes);
    }
    if (sharded)
        f.chargeDma(0, 8);

    std::vector<std::uint32_t> coeffs(
        static_cast<std::size_t>(p.n) * p.limbs);
    f.mram.read(p.mramA, reinterpret_cast<std::uint8_t *>(coeffs.data()),
                poly_bytes);
    const CentredOperand A = centreOperand<L>(p, coeffs.data());
    f.mram.read(p.mramB, reinterpret_cast<std::uint8_t *>(coeffs.data()),
                poly_bytes);
    const CentredOperand B = centreOperand<L>(p, coeffs.data());
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = p.n;
    if (sharded) {
        std::uint32_t meta[2];
        f.mram.read(p.mramMeta,
                    reinterpret_cast<std::uint8_t *>(meta), 8);
        row_begin = meta[0];
        row_end = meta[1];
    }

    for (unsigned t = 0; t < f.numTasklets; ++t) {
        pim::TaskletStats &ts = f.stats.tasklets[t];
        ts.instructions += 1; // barrier
        if (sharded)
            ts.instructions += 2; // row-bound loads
        const auto [tb, te] =
            taskletRange(row_end - row_begin, t, f.numTasklets);
        for (std::uint32_t m = row_begin + tb; m < row_begin + te;
             ++m) {
            std::uint32_t acc[2 * pim::kMaxLimbs];
            ConvColumns<L> col = {};
            accumulateRow<L>(p, A, B, m, col);
            resolveRow<L>(col, acc);
            ts.instructions +=
                static_cast<std::uint64_t>(p.n) * inner_cost +
                p.accLimbs() + 5;
            f.mram.write(p.mramOut + static_cast<std::uint64_t>(
                                         m - row_begin) *
                                         acc_bytes,
                         reinterpret_cast<std::uint8_t *>(acc),
                         acc_bytes);
            f.chargeDma(t, acc_bytes);
        }
    }
}

/**
 * Fast body of the negacyclic convolution kernel (plain and
 * row-sharded), mirroring makeNegacyclicConvKernel. Signs and
 * magnitudes are the interpreter's own (hostCentreMagnitude, once per
 * coefficient per DPU run rather than once per term); only the
 * accumulation is regrouped, which is exact in Z / 2^(32 * accLimbs).
 */
inline void
runFastConv(pim::FastCtx &f, const ConvKernelParams &p,
            std::uint64_t inner_cost)
{
    switch (p.limbs) {
    case 1: return runFastConvWidth<1>(f, p, inner_cost);
    case 2: return runFastConvWidth<2>(f, p, inner_cost);
    case 3: return runFastConvWidth<3>(f, p, inner_cost);
    case 4: return runFastConvWidth<4>(f, p, inner_cost);
    default: panic("unsupported convolution width: ", p.limbs, " limbs");
    }
}

// ---------------------------------------------------------------------
// NTT product kernel.
// ---------------------------------------------------------------------

/** Mirror of dpuModMul30 (Barrett multiply, two cond subs). */
inline std::uint32_t
hostModMul30(std::uint32_t a, std::uint32_t b, std::uint32_t p,
             std::uint32_t mu)
{
    const std::uint64_t x = static_cast<std::uint64_t>(a) * b;
    const std::uint32_t xhi = static_cast<std::uint32_t>(x >> 29);
    const std::uint64_t est = static_cast<std::uint64_t>(xhi) * mu;
    const std::uint32_t qest = static_cast<std::uint32_t>(est >> 31);
    const std::uint64_t qp = static_cast<std::uint64_t>(qest) * p;
    std::uint32_t r = static_cast<std::uint32_t>(x - qp);
    for (int round = 0; round < 2; ++round) {
        const std::uint32_t d = r - p;
        r = r < p ? r : d;
    }
    return r;
}

inline std::uint32_t
hostModAdd30(std::uint32_t a, std::uint32_t b, std::uint32_t p)
{
    const std::uint32_t s = a + b;
    const std::uint32_t d = s - p;
    return s < p ? s : d;
}

inline std::uint32_t
hostModSub30(std::uint32_t a, std::uint32_t b, std::uint32_t p)
{
    const std::uint32_t d = a - b;
    const std::uint32_t dp = d + p;
    return a < b ? dp : d;
}

/** Mirror of nttForwardInPlace on a host array. */
inline void
hostNttForward(const NttKernelParams &kp, const std::uint32_t *psi,
               std::uint32_t *poly)
{
    std::uint32_t t = kp.n;
    for (std::uint32_t m = 1; m < kp.n; m <<= 1) {
        t >>= 1;
        for (std::uint32_t i = 0; i < m; ++i) {
            const std::uint32_t j1 = 2 * i * t;
            const std::uint32_t s = psi[m + i];
            for (std::uint32_t j = j1; j < j1 + t; ++j) {
                const std::uint32_t u = poly[j];
                const std::uint32_t v =
                    hostModMul30(poly[j + t], s, kp.p, kp.mu);
                poly[j] = hostModAdd30(u, v, kp.p);
                poly[j + t] = hostModSub30(u, v, kp.p);
            }
        }
    }
}

/** Mirror of nttInverseInPlace on a host array. */
inline void
hostNttInverse(const NttKernelParams &kp,
               const std::uint32_t *psi_inv, std::uint32_t *poly)
{
    std::uint32_t t = 1;
    for (std::uint32_t m = kp.n; m > 1; m >>= 1) {
        std::uint32_t j1 = 0;
        const std::uint32_t h = m >> 1;
        for (std::uint32_t i = 0; i < h; ++i) {
            const std::uint32_t s = psi_inv[h + i];
            for (std::uint32_t j = j1; j < j1 + t; ++j) {
                const std::uint32_t u = poly[j];
                const std::uint32_t v = poly[j + t];
                poly[j] = hostModAdd30(u, v, kp.p);
                poly[j + t] = hostModMul30(
                    hostModSub30(u, v, kp.p), s, kp.p, kp.mu);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (std::uint32_t i = 0; i < kp.n; ++i)
        poly[i] = hostModMul30(poly[i], kp.nInv, kp.p, kp.mu);
}

/** Probed unit costs of the NTT kernel: whole forward and inverse
 *  transforms (their loop structure depends only on n) plus one
 *  pointwise-product iteration. */
struct NttProbed
{
    std::once_flag once;
    std::uint64_t forward = 0;
    std::uint64_t inverse = 0;
    std::uint64_t pointwise = 0;
};

inline void
probeNtt(const pim::DpuConfig &cfg, const NttKernelParams &kp,
         NttProbed &out)
{
    const std::size_t poly_bytes =
        static_cast<std::size_t>(kp.n) * 4;
    out.forward = probeInstructions(
        cfg,
        [&](pim::TaskletCtx &ctx) {
            nttForwardInPlace(
                ctx, kp, 0, static_cast<std::uint32_t>(poly_bytes));
        },
        2 * poly_bytes);
    out.inverse = probeInstructions(
        cfg,
        [&](pim::TaskletCtx &ctx) {
            nttInverseInPlace(
                ctx, kp, 0, static_cast<std::uint32_t>(poly_bytes));
        },
        2 * poly_bytes);
    out.pointwise = probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        const std::uint32_t prod =
            dpuModMul30(ctx, ctx.wramLoad32(0), ctx.wramLoad32(4),
                        kp.p, kp.mu);
        ctx.wramStore32(0, prod);
        ctx.charge(3);
    });
}

/** Fast body of the NTT product kernel, mirroring makeNttMulKernel. */
inline void
runFastNtt(pim::FastCtx &f, const NttKernelParams &kp,
           const NttProbed &cost)
{
    const std::uint32_t n = kp.n;
    const std::uint32_t poly_bytes = n * 4;
    PIMHE_ASSERT(2 * poly_bytes + f.numTasklets * 2 * poly_bytes <=
                     f.cfg.wramBytes,
                 "NTT working set exceeds WRAM; lower n");

    // Tasklet 0 stages the twiddle tables.
    for (std::uint32_t off = 0; off < poly_bytes; off += 2048) {
        const std::uint32_t bytes =
            std::min<std::uint32_t>(2048, poly_bytes - off);
        f.chargeDma(0, bytes);
        f.chargeDma(0, bytes);
    }

    std::vector<std::uint32_t> psi(n);
    std::vector<std::uint32_t> psi_inv(n);
    std::vector<std::uint32_t> a(n);
    std::vector<std::uint32_t> b(n);
    f.mram.read(kp.mramPsi,
                reinterpret_cast<std::uint8_t *>(psi.data()),
                poly_bytes);
    f.mram.read(kp.mramPsiInv,
                reinterpret_cast<std::uint8_t *>(psi_inv.data()),
                poly_bytes);

    for (unsigned t = 0; t < f.numTasklets; ++t) {
        pim::TaskletStats &ts = f.stats.tasklets[t];
        ts.instructions += 1; // barrier
        const auto [begin, end] =
            taskletRange(kp.count, t, f.numTasklets);
        for (std::uint32_t pair = begin; pair < end; ++pair) {
            const std::uint64_t off =
                static_cast<std::uint64_t>(pair) * poly_bytes;
            for (std::uint32_t o = 0; o < poly_bytes; o += 2048) {
                const std::uint32_t bytes =
                    std::min<std::uint32_t>(2048, poly_bytes - o);
                f.chargeDma(t, bytes);
                f.chargeDma(t, bytes);
            }
            f.mram.read(kp.mramA + off,
                        reinterpret_cast<std::uint8_t *>(a.data()),
                        poly_bytes);
            f.mram.read(kp.mramB + off,
                        reinterpret_cast<std::uint8_t *>(b.data()),
                        poly_bytes);

            hostNttForward(kp, psi.data(), a.data());
            hostNttForward(kp, psi.data(), b.data());
            for (std::uint32_t i = 0; i < n; ++i)
                a[i] = hostModMul30(a[i], b[i], kp.p, kp.mu);
            hostNttInverse(kp, psi_inv.data(), a.data());
            ts.instructions +=
                2 * cost.forward +
                static_cast<std::uint64_t>(n) * cost.pointwise +
                cost.inverse + 6;

            for (std::uint32_t o = 0; o < poly_bytes; o += 2048) {
                const std::uint32_t bytes =
                    std::min<std::uint32_t>(2048, poly_bytes - o);
                f.chargeDma(t, bytes);
            }
            f.mram.write(kp.mramOut + off,
                         reinterpret_cast<std::uint8_t *>(a.data()),
                         poly_bytes);
        }
    }
}

} // namespace fastpath

// ---------------------------------------------------------------------
// Compiled factories: interpreter body + fast body + semantic output
// regions, one per registered kernel family. Deliberately NOT named
// make*Kernel — the registry coverage scan treats that prefix as "new
// kernel family needing a registry row".
// ---------------------------------------------------------------------

namespace detail {

inline pim::CompiledKernel
compiledVecKernel(const VecKernelParams &p, bool multiply,
                  const char *name)
{
    pim::CompiledKernel ck;
    ck.name = name;
    ck.interpret =
        multiply ? makeVecMulModQKernel(p) : makeVecAddModQKernel(p);
    ck.outputs = {{p.mramOut,
                   p.mramOut + static_cast<std::uint64_t>(p.elems) *
                                   p.elemBytes(),
                   "result"}};
    auto cost = std::make_shared<fastpath::ProbedCost>();
    ck.fast = [p, multiply, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            cost->perElement =
                fastpath::probeVecPerElement(f.cfg, p, multiply);
        });
        fastpath::runFastElementwise(f, p, 0, /*fused=*/false,
                                     multiply, cost->perElement);
    };
    return ck;
}

} // namespace detail

/** Compiled elementwise modular add (also the in-place reduce round:
 *  pass p.mramOut == p.mramA). */
inline pim::CompiledKernel
compiledVecAddModQ(const VecKernelParams &p)
{
    return detail::compiledVecKernel(
        p, false,
        p.mramOut == p.mramA ? "vec-add-modq-inplace" : "vec-add-modq");
}

/** Compiled elementwise modular multiply. */
inline pim::CompiledKernel
compiledVecMulModQ(const VecKernelParams &p)
{
    return detail::compiledVecKernel(p, true, "vec-mul-modq");
}

/** Compiled fused elementwise (a + b) * c kernel. */
inline pim::CompiledKernel
compiledVecAddMulModQ(const FusedKernelParams &p)
{
    pim::CompiledKernel ck;
    ck.name = "vec-add-mul-fused";
    ck.interpret = makeVecAddMulModQKernel(p);
    ck.outputs = {{p.vec.mramOut,
                   p.vec.mramOut +
                       static_cast<std::uint64_t>(p.vec.elems) *
                           p.vec.elemBytes(),
                   "result"}};
    auto cost = std::make_shared<fastpath::ProbedCost>();
    ck.fast = [p, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            cost->perElement =
                fastpath::probeFusedPerElement(f.cfg, p);
        });
        fastpath::runFastElementwise(f, p.vec, p.mramC, /*fused=*/true,
                                     /*multiply=*/false,
                                     cost->perElement);
    };
    return ck;
}

/** Compiled negacyclic convolution (plain or row-sharded). */
inline pim::CompiledKernel
compiledNegacyclicConv(const ConvKernelParams &p)
{
    const bool sharded = p.mramMeta != ConvKernelParams::kNoRowMeta;
    // Widest-shard row count, like convKernelFootprint: per-DPU shards
    // may be narrower, which only over-approximates the compare range
    // (untouched bytes are identical across the shadow pair).
    const std::uint32_t rows =
        sharded ? (p.rowEnd == 0 ? p.n : p.rowEnd) - p.rowBegin : p.n;
    pim::CompiledKernel ck;
    ck.name = sharded ? "negacyclic-conv-sharded" : "negacyclic-conv";
    ck.interpret = makeNegacyclicConvKernel(p);
    ck.outputs = {{p.mramOut,
                   p.mramOut + static_cast<std::uint64_t>(rows) *
                                   p.accLimbs() * 4,
                   "accumulators"}};
    auto cost = std::make_shared<fastpath::ProbedCost>();
    ck.fast = [p, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            cost->perElement = fastpath::probeConvInner(f.cfg, p);
        });
        fastpath::runFastConv(f, p, cost->perElement);
    };
    return ck;
}

/** Compiled NTT polynomial product. */
inline pim::CompiledKernel
compiledNttMul(const NttKernelParams &kp)
{
    pim::CompiledKernel ck;
    ck.name = "ntt-mul";
    ck.interpret = makeNttMulKernel(kp);
    ck.outputs = {{kp.mramOut,
                   kp.mramOut + static_cast<std::uint64_t>(kp.count) *
                                    kp.n * 4,
                   "result"}};
    auto cost = std::make_shared<fastpath::NttProbed>();
    ck.fast = [kp, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            fastpath::probeNtt(f.cfg, kp, *cost);
        });
        fastpath::runFastNtt(f, kp, *cost);
    };
    return ck;
}

} // namespace pimhe_kernels
} // namespace pimhe

#endif // PIMHE_PIMHE_FAST_KERNELS_H
