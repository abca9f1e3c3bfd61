/**
 * @file
 * Wide-integer arithmetic building blocks for DPU kernels.
 *
 * These helpers operate on little-endian arrays of 32-bit limbs held
 * in registers/WRAM and express every operation through TaskletCtx
 * intrinsics, so instruction counts emerge from execution exactly as
 * the paper describes building 64- and 128-bit operations out of the
 * DPU's native 32-bit add/addc and the Karatsuba algorithm over 32-bit
 * chunks.
 *
 * All helpers are branch-free with respect to data (conditions are
 * folded into mask-and-select sequences), so a kernel's instruction
 * count depends only on its shape parameters. The analytic cost model
 * in src/pimhe/cost_model.h relies on this determinism.
 */

#ifndef PIMHE_PIM_WIDE_OPS_H
#define PIMHE_PIM_WIDE_OPS_H

#include <cstdint>

#include "common/logging.h"
#include "pim/dpu.h"

namespace pimhe {
namespace pim {

/** Maximum limb count the kernels instantiate (128-bit products). */
constexpr std::size_t kMaxLimbs = 8;

/** out = a + b over `limbs` limbs; returns the carry-out (0/1). */
inline std::uint32_t
dpuWideAdd(TaskletCtx &ctx, const std::uint32_t *a,
           const std::uint32_t *b, std::uint32_t *out, std::size_t limbs)
{
    out[0] = ctx.add(a[0], b[0]);
    for (std::size_t i = 1; i < limbs; ++i)
        out[i] = ctx.addc(a[i], b[i]);
    return ctx.carryFlag();
}

/** out = a - b over `limbs` limbs; returns the borrow-out (0/1). */
inline std::uint32_t
dpuWideSub(TaskletCtx &ctx, const std::uint32_t *a,
           const std::uint32_t *b, std::uint32_t *out, std::size_t limbs)
{
    out[0] = ctx.sub(a[0], b[0]);
    for (std::size_t i = 1; i < limbs; ++i)
        out[i] = ctx.subb(a[i], b[i]);
    return ctx.borrowFlag();
}

/**
 * out = (a + b) mod q for reduced operands, branch-free:
 * s = a + b; d = s - q; out = (carry || !borrow) ? d : s.
 */
inline void
dpuWideAddModQ(TaskletCtx &ctx, const std::uint32_t *a,
               const std::uint32_t *b, const std::uint32_t *q,
               std::uint32_t *out, std::size_t limbs)
{
    std::uint32_t s[kMaxLimbs];
    std::uint32_t d[kMaxLimbs];
    PIMHE_ASSERT(limbs <= kMaxLimbs, "limb count too large");
    const std::uint32_t carry = dpuWideAdd(ctx, a, b, s, limbs);
    const std::uint32_t borrow = dpuWideSub(ctx, s, q, d, limbs);
    // take_d = carry | !borrow  (one logic op on flags)
    const std::uint32_t take_d = ctx.or_(carry, borrow ^ 1u) & 1u;
    for (std::size_t i = 0; i < limbs; ++i)
        out[i] = ctx.select(take_d != 0, d[i], s[i]);
}

/** out = (a - b) mod q, branch-free add-back variant. */
inline void
dpuWideSubModQ(TaskletCtx &ctx, const std::uint32_t *a,
               const std::uint32_t *b, const std::uint32_t *q,
               std::uint32_t *out, std::size_t limbs)
{
    std::uint32_t d[kMaxLimbs];
    std::uint32_t dq[kMaxLimbs];
    PIMHE_ASSERT(limbs <= kMaxLimbs, "limb count too large");
    const std::uint32_t borrow = dpuWideSub(ctx, a, b, d, limbs);
    dpuWideAdd(ctx, d, q, dq, limbs);
    for (std::size_t i = 0; i < limbs; ++i)
        out[i] = ctx.select(borrow != 0, dq[i], d[i]);
}

/**
 * out[2*limbs] = a * b via plain schoolbook over 32-bit chunks:
 * limbs^2 software multiplies plus carry chains. Kept as the baseline
 * the Karatsuba path is compared against in the abl_karatsuba
 * experiment (the paper chose Karatsuba because it "requires less
 * operations than the traditional multiplication algorithm").
 */
inline void
dpuWideMulSchoolbook(TaskletCtx &ctx, const std::uint32_t *a,
                     const std::uint32_t *b, std::uint32_t *out,
                     std::size_t limbs)
{
    PIMHE_ASSERT(limbs <= kMaxLimbs, "operand too wide");
    for (std::size_t i = 0; i < 2 * limbs; ++i)
        out[i] = 0;
    for (std::size_t i = 0; i < limbs; ++i) {
        std::uint32_t carry = 0;
        for (std::size_t j = 0; j < limbs; ++j) {
            const std::uint64_t p = ctx.mul32(a[i], b[j]);
            // out[i+j] += lo(p) + carry_in; carry = hi(p) + CF.
            ctx.setCarryFlag(0);
            const std::uint32_t lo =
                ctx.addc(static_cast<std::uint32_t>(p), carry);
            carry = ctx.addc(static_cast<std::uint32_t>(p >> 32), 0);
            ctx.setCarryFlag(0);
            out[i + j] = ctx.addc(out[i + j], lo);
            carry = ctx.addc(carry, 0);
        }
        out[i + limbs] = carry;
    }
}

/**
 * out[2*limbs] = a * b via recursive Karatsuba over 32-bit chunks
 * (base case: the gen1 DPU's software 32x32->64 multiply). Carry
 * corrections use mask-and-add so the instruction count is data-
 * independent.
 *
 * @param limbs 1 to 4 (operands up to 128 bits). Three limbs are
 *              zero-extended to four and pay the 4-limb cost.
 */
inline void
dpuWideMulKaratsuba(TaskletCtx &ctx, const std::uint32_t *a,
                    const std::uint32_t *b, std::uint32_t *out,
                    std::size_t limbs)
{
    PIMHE_ASSERT(limbs >= 1 && limbs <= 4,
                 "unsupported operand width: ", limbs, " limbs");
    if (limbs == 3) {
        const std::uint32_t a4[4] = {a[0], a[1], a[2], 0};
        const std::uint32_t b4[4] = {b[0], b[1], b[2], 0};
        std::uint32_t wide[8];
        dpuWideMulKaratsuba(ctx, a4, b4, wide, 4);
        for (std::size_t i = 0; i < 6; ++i)
            out[i] = wide[i];
        return;
    }
    if (limbs == 1) {
        const std::uint64_t p = ctx.mul32(a[0], b[0]);
        out[0] = static_cast<std::uint32_t>(p);
        out[1] = static_cast<std::uint32_t>(p >> 32);
        return;
    }

    const std::size_t h = limbs / 2;
    // z0 = a_lo * b_lo, z2 = a_hi * b_hi
    std::uint32_t z0[kMaxLimbs] = {};
    std::uint32_t z2[kMaxLimbs] = {};
    dpuWideMulKaratsuba(ctx, a, b, z0, h);
    dpuWideMulKaratsuba(ctx, a + h, b + h, z2, h);

    // sa = a_lo + a_hi (carry ca), sb = b_lo + b_hi (carry cb)
    std::uint32_t sa[kMaxLimbs / 2];
    std::uint32_t sb[kMaxLimbs / 2];
    const std::uint32_t ca = dpuWideAdd(ctx, a, a + h, sa, h);
    const std::uint32_t cb = dpuWideAdd(ctx, b, b + h, sb, h);

    // z1 = sa * sb (+ carry fix-ups), in 2h + 2 limbs.
    std::uint32_t z1[kMaxLimbs + 2] = {};
    dpuWideMulKaratsuba(ctx, sa, sb, z1, h);
    // mask_a = ca ? ~0 : 0; z1[h..2h] += sb & mask_a (likewise for cb)
    const std::uint32_t mask_a = ctx.sub(0, ca);
    ctx.setCarryFlag(0);
    z1[h] = ctx.addc(z1[h], ctx.and_(sb[0], mask_a));
    for (std::size_t i = 1; i < h; ++i)
        z1[h + i] = ctx.addc(z1[h + i], ctx.and_(sb[i], mask_a));
    z1[2 * h] = ctx.addc(z1[2 * h], 0);
    z1[2 * h + 1] = ctx.addc(z1[2 * h + 1], 0);

    const std::uint32_t mask_b = ctx.sub(0, cb);
    ctx.setCarryFlag(0);
    z1[h] = ctx.addc(z1[h], ctx.and_(sa[0], mask_b));
    for (std::size_t i = 1; i < h; ++i)
        z1[h + i] = ctx.addc(z1[h + i], ctx.and_(sa[i], mask_b));
    z1[2 * h] = ctx.addc(z1[2 * h], 0);
    z1[2 * h + 1] = ctx.addc(z1[2 * h + 1], 0);

    // z1[2h] += ca & cb
    ctx.setCarryFlag(0);
    z1[2 * h] = ctx.addc(z1[2 * h], ctx.and_(ca, cb));
    z1[2 * h + 1] = ctx.addc(z1[2 * h + 1], 0);

    // z1 -= z0; z1 -= z2   (over 2h + 2 limbs)
    {
        std::uint32_t zero = 0;
        ctx.setBorrowFlag(0);
        z1[0] = ctx.subb(z1[0], z0[0]);
        for (std::size_t i = 1; i < 2 * h; ++i)
            z1[i] = ctx.subb(z1[i], z0[i]);
        z1[2 * h] = ctx.subb(z1[2 * h], zero);
        z1[2 * h + 1] = ctx.subb(z1[2 * h + 1], zero);

        ctx.setBorrowFlag(0);
        z1[0] = ctx.subb(z1[0], z2[0]);
        for (std::size_t i = 1; i < 2 * h; ++i)
            z1[i] = ctx.subb(z1[i], z2[i]);
        z1[2 * h] = ctx.subb(z1[2 * h], zero);
        z1[2 * h + 1] = ctx.subb(z1[2 * h + 1], zero);
    }

    // out = z0 | z2 << (2h limbs), then out += z1 << (h limbs).
    for (std::size_t i = 0; i < 2 * h; ++i) {
        out[i] = z0[i];
        out[2 * h + i] = z2[i];
    }
    ctx.setCarryFlag(0);
    out[h] = ctx.addc(out[h], z1[0]);
    for (std::size_t i = 1; i < 2 * h + 2 && h + i < 2 * limbs; ++i)
        out[h + i] = ctx.addc(out[h + i], z1[i]);
    for (std::size_t i = 3 * h + 2; i < 2 * limbs; ++i)
        out[i] = ctx.addc(out[i], 0);
}

namespace detail {

/**
 * One pseudo-Mersenne fold: out = (in mod 2^k) + (in >> k) * c, over
 * `in_limbs` input limbs into `out_limbs` output limbs. The caller
 * guarantees the result fits. Returns nothing; charges shifts, one
 * mul32 per high limb and one add chain.
 */
inline void
dpuFoldOnce(TaskletCtx &ctx, const std::uint32_t *in,
            std::size_t in_limbs, std::size_t k, std::uint32_t c,
            std::uint32_t *out, std::size_t out_limbs)
{
    const std::size_t limb_shift = k / 32;
    const unsigned bit_shift = static_cast<unsigned>(k % 32);
    const std::size_t hi_limbs =
        in_limbs > limb_shift ? in_limbs - limb_shift : 0;

    // hi = in >> k.
    std::uint32_t hi[2 * kMaxLimbs] = {};
    for (std::size_t i = 0; i < hi_limbs; ++i) {
        std::uint32_t v = ctx.lsr(in[i + limb_shift], bit_shift);
        if (bit_shift != 0 && i + limb_shift + 1 < in_limbs)
            v = ctx.or_(v, ctx.lsl(in[i + limb_shift + 1],
                                   32 - bit_shift));
        hi[i] = v;
    }

    // prod = hi * c, single-limb schoolbook (mul32 + 2 addc per limb).
    std::uint32_t prod[2 * kMaxLimbs + 1] = {};
    std::uint32_t carry = 0;
    for (std::size_t i = 0; i < hi_limbs; ++i) {
        const std::uint64_t p = ctx.mul32(hi[i], c);
        ctx.setCarryFlag(0);
        prod[i] = ctx.addc(static_cast<std::uint32_t>(p), carry);
        // High half plus carry flag never overflows 32 bits.
        carry = ctx.addc(static_cast<std::uint32_t>(p >> 32), 0);
    }
    if (hi_limbs < 2 * kMaxLimbs + 1)
        prod[hi_limbs] = carry;

    // lo = in mod 2^k, zero-extended to out_limbs.
    std::uint32_t lo[2 * kMaxLimbs] = {};
    const std::size_t lo_limbs = std::min(in_limbs, limb_shift + 1);
    for (std::size_t i = 0; i < lo_limbs; ++i)
        lo[i] = in[i];
    if (bit_shift != 0 && limb_shift < in_limbs)
        lo[limb_shift] =
            ctx.and_(in[limb_shift], (1u << bit_shift) - 1u);
    else if (bit_shift == 0 && limb_shift < in_limbs)
        lo[limb_shift] = 0;

    // out = lo + prod.
    dpuWideAdd(ctx, lo, prod, out, out_limbs);
    PIMHE_ASSERT(ctx.carryFlag() == 0,
                 "fold overflowed its output width");
}

} // namespace detail

/**
 * Pseudo-Mersenne reduction: out = x mod q where q = 2^k - c with a
 * single-limb c (all the library's standard moduli have this shape;
 * the host precomputes k and c).
 *
 * Uses the identity 2^k == c (mod q): three folds of the high part
 * shrink x < 2^(2k) down to below 2q, then two branch-free conditional
 * subtractions finish the reduction. Instruction count depends only on
 * (limbs, k), never on data.
 *
 * @param x     2*limbs-limb input, x < 2^(2k).
 * @param limbs Limbs of the modulus (32*(limbs-1) < k <= 32*limbs).
 */
inline void
dpuPseudoMersenneReduce(TaskletCtx &ctx, const std::uint32_t *x,
                        std::size_t k, std::uint32_t c,
                        const std::uint32_t *q, std::uint32_t *out,
                        std::size_t limbs)
{
    PIMHE_ASSERT(limbs <= 4, "modulus too wide");
    PIMHE_ASSERT(k > 32 * (limbs - 1) && k <= 32 * limbs,
                 "k inconsistent with limb count");
    // Three folds converge to below 2q provided c <= 2^(k/2): after
    // fold 2 the value is < 3 * 2^k, after fold 3 below q + 3c < 2q.
    PIMHE_ASSERT(k / 2 >= 32 ||
                     c <= (1u << static_cast<unsigned>(k / 2)),
                 "fold constant too large for 3-fold reduction");

    // Fold 1: x < 2^(2k)            -> y < 2^k + 2^(k+32) (limbs+2).
    // Fold 2: y                     -> z < 2^k + 2^64      (limbs+2).
    // Fold 3: z                     -> w < 2^k + 2^51 < 2q (limbs+1).
    std::uint32_t y[2 * kMaxLimbs] = {};
    detail::dpuFoldOnce(ctx, x, 2 * limbs, k, c, y, limbs + 2);
    std::uint32_t z[2 * kMaxLimbs] = {};
    detail::dpuFoldOnce(ctx, y, limbs + 2, k, c, z, limbs + 2);
    std::uint32_t w[2 * kMaxLimbs] = {};
    detail::dpuFoldOnce(ctx, z, limbs + 2, k, c, w, limbs + 1);

    // Two branch-free conditional subtractions over limbs+1 limbs.
    std::uint32_t qext[kMaxLimbs + 1];
    for (std::size_t i = 0; i < limbs; ++i)
        qext[i] = q[i];
    qext[limbs] = 0;

    std::uint32_t d[kMaxLimbs + 1];
    for (int round = 0; round < 2; ++round) {
        const std::uint32_t borrow =
            dpuWideSub(ctx, w, qext, d, limbs + 1);
        for (std::size_t i = 0; i < limbs + 1; ++i)
            w[i] = ctx.select(borrow != 0, w[i], d[i]);
    }
    for (std::size_t i = 0; i < limbs; ++i)
        out[i] = w[i];
}

/**
 * Full modular multiply: out = (a * b) mod q with q = 2^k - c.
 * Karatsuba product followed by pseudo-Mersenne reduction.
 */
inline void
dpuWideMulModQ(TaskletCtx &ctx, const std::uint32_t *a,
               const std::uint32_t *b, const std::uint32_t *q,
               std::size_t k, std::uint32_t c, std::uint32_t *out,
               std::size_t limbs)
{
    std::uint32_t prod[2 * kMaxLimbs] = {};
    dpuWideMulKaratsuba(ctx, a, b, prod, limbs);
    dpuPseudoMersenneReduce(ctx, prod, k, c, q, out, limbs);
}

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_WIDE_OPS_H
