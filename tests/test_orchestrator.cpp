/**
 * @file
 * PimHeSystem / PimConvolver integration tests: homomorphic vector
 * operations through the simulated PIM system must be bit-exact with
 * the host evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;
using pimhe::testing::randomBelow;

pim::SystemConfig
tinySystem(std::size_t dpus)
{
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    // Tests run with the static pre-launch verifier armed: a layout
    // regression fails here before it can corrupt a simulated run.
    cfg.verifyBeforeLaunch = true;
    return cfg;
}

/** `count` ciphertexts of `comps` components, coefficients uniform
 *  below q: the staging codec moves words, so encryption adds nothing
 *  it could see, and random words catch a misplaced run. */
template <std::size_t N>
std::vector<Ciphertext<N>>
randomCiphertexts(BfvHarness<N> &h, std::size_t count, std::size_t comps)
{
    std::vector<Ciphertext<N>> cts(count);
    for (auto &ct : cts)
        for (std::size_t c = 0; c < comps; ++c) {
            Polynomial<N> p(h.params.n);
            for (std::size_t j = 0; j < h.params.n; ++j)
                p[j] = randomBelow<N>(h.rng, h.params.q);
            ct.comps.push_back(std::move(p));
        }
    return cts;
}

TEST(PseudoMersenne, DetectsStandardModuli)
{
    const auto pm1 = PseudoMersenne<1>::of(standardParams<1>().q);
    EXPECT_EQ(pm1.k, 27u);
    EXPECT_EQ(pm1.c, 2047u);
    const auto pm2 = PseudoMersenne<2>::of(standardParams<2>().q);
    EXPECT_EQ(pm2.k, 54u);
    EXPECT_EQ(pm2.c, 77823u);
    const auto pm4 = PseudoMersenne<4>::of(standardParams<4>().q);
    EXPECT_EQ(pm4.k, 109u);
    EXPECT_EQ(pm4.c, 229375u);
}

template <typename T>
class OrchestratorWidths : public ::testing::Test
{
};

using OWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(OrchestratorWidths, OWidths);

TYPED_TEST(OrchestratorWidths, VectorAddBitExactWithHost)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(4), 3, 12);

    std::vector<Ciphertext<N>> as, bs;
    for (int i = 0; i < 5; ++i) {
        as.push_back(h.encryptScalar(i));
        bs.push_back(h.encryptScalar(2 * i + 1));
    }
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    ASSERT_EQ(sums.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        const auto host = h.eval.add(as[i], bs[i]);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_TRUE(host[c] == sums[i][c])
                << "ct " << i << " comp " << c;
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  static_cast<std::uint64_t>(3 * i + 1) % h.params.t);
    }
}

TYPED_TEST(OrchestratorWidths, CoefficientwiseMulMatchesBarrett)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(2), 2, 11);

    std::vector<Ciphertext<N>> as = {h.encryptScalar(3)};
    std::vector<Ciphertext<N>> bs = {h.encryptScalar(4)};
    const auto prods = pimsys.mulCoefficientwise(as, bs);
    const auto &red = h.ctx.ring().reducer();
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t j = 0; j < h.params.n; ++j)
            EXPECT_EQ(prods[0][c][j],
                      red.mulMod(as[0][c][j], bs[0][c][j]));
}

TYPED_TEST(OrchestratorWidths, ReductionSumsAllCiphertexts)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(4), 4, 12);

    std::vector<Ciphertext<N>> cts;
    std::uint64_t expect = 0;
    // Odd count exercises the pass-through leftover path.
    for (int i = 0; i < 9; ++i) {
        cts.push_back(h.encryptScalar(i + 1));
        expect += i + 1;
    }
    const auto total = pimsys.reduceCiphertexts(cts);
    EXPECT_EQ(h.decryptScalar(total), expect % h.params.t);
}

TYPED_TEST(OrchestratorWidths, PimConvolverBitExactBfvMultiply)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    const auto a = h.encryptScalar(6);
    const auto b = h.encryptScalar(7);
    const auto host = h.eval.multiply(a, b);

    h.ctx.setConvolver(std::make_unique<PimConvolver<N>>(
        h.ctx.ring(), tinySystem(1), 12));
    const auto pim = h.eval.multiply(a, b);
    ASSERT_EQ(host.size(), pim.size());
    for (std::size_t c = 0; c < host.size(); ++c)
        EXPECT_TRUE(host[c] == pim[c]) << "component " << c;
    EXPECT_EQ(h.decryptScalar(pim), 42 % h.params.t);
}

/**
 * The coefficient codec at the shapes where a word-level copy can go
 * wrong: per-DPU ranges that cross component and ciphertext
 * boundaries, a ragged tail (2560 elements over 13 DPUs),
 * 3-component ciphertexts, and more DPUs than elements (whole DPUs of
 * padding). Every path that encodes or decodes coefficients must be
 * bit-exact with the host evaluator: staged sync and async add/mul,
 * resident upload and download, the resident tree reduction over a
 * packed multi-ciphertext region, and the PIM convolver.
 */
TYPED_TEST(OrchestratorWidths, CodecRoundTripsAcrossBoundaries)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    struct Shape
    {
        std::size_t n, dpus, cts, comps;
    };
    for (const Shape s : {Shape{256, 13, 5, 2}, Shape{256, 13, 5, 3},
                          Shape{16, 7, 3, 3}, Shape{16, 64, 1, 2}}) {
        SCOPED_TRACE("n=" + std::to_string(s.n) + " dpus=" +
                     std::to_string(s.dpus) + " cts=" +
                     std::to_string(s.cts) + " comps=" +
                     std::to_string(s.comps));
        BfvHarness<N> h(s.n);
        PimHeSystem<N> pimsys(h.ctx, tinySystem(s.dpus), s.dpus, 12);
        const auto as = randomCiphertexts(h, s.cts, s.comps);
        const auto bs = randomCiphertexts(h, s.cts, s.comps);
        const auto &red = h.ctx.ring().reducer();
        const auto expectEq = [&](const Ciphertext<N> &want,
                                  const Ciphertext<N> &got,
                                  const std::string &what) {
            ASSERT_EQ(want.size(), got.size()) << what;
            for (std::size_t c = 0; c < want.size(); ++c)
                EXPECT_TRUE(want[c] == got[c])
                    << what << " component " << c;
        };
        const auto expectSums = [&](const std::vector<Ciphertext<N>> &got,
                                    const std::string &what) {
            ASSERT_EQ(got.size(), s.cts) << what;
            for (std::size_t i = 0; i < s.cts; ++i)
                expectEq(h.eval.add(as[i], bs[i]), got[i],
                         what + " ct " + std::to_string(i));
        };
        const auto expectProducts =
            [&](const std::vector<Ciphertext<N>> &got,
                const std::string &what) {
                ASSERT_EQ(got.size(), s.cts) << what;
                for (std::size_t i = 0; i < s.cts; ++i) {
                    Ciphertext<N> want = as[i];
                    for (std::size_t c = 0; c < s.comps; ++c)
                        for (std::size_t j = 0; j < s.n; ++j)
                            want[c][j] = red.mulMod(as[i][c][j],
                                                    bs[i][c][j]);
                    expectEq(want, got[i],
                             what + " ct " + std::to_string(i));
                }
            };

        expectSums(pimsys.addCiphertextVectors(as, bs), "sync add");
        expectProducts(pimsys.mulCoefficientwise(as, bs), "sync mul");
        // Two async ops in flight, one per slot of the staging pair.
        auto add = pimsys.addAsync(as, bs);
        auto mul = pimsys.mulAsync(as, bs);
        expectSums(add.get(), "async add");
        expectProducts(mul.get(), "async mul");
        pimsys.finishAsync();

        // Resident: operands upload on first use, the dirty result
        // downloads on materialize.
        for (std::size_t i = 0; i < s.cts; ++i) {
            const auto ra = pimsys.makeResident(as[i]);
            const auto rb = pimsys.makeResident(bs[i]);
            const auto sum = pimsys.addResident(ra, rb);
            expectEq(h.eval.add(as[i], bs[i]), pimsys.materialize(sum),
                     "resident add ct " + std::to_string(i));
            pimsys.dropResident(sum);
            pimsys.dropResident(ra);
            pimsys.dropResident(rb);
        }
        Ciphertext<N> total = as[0];
        for (std::size_t i = 1; i < s.cts; ++i)
            total = h.eval.add(total, as[i]);
        expectEq(total, pimsys.reduceCiphertexts(as), "resident reduce");

        // The convolver encodes whole polynomials; interpreting an
        // n = 256 product is slow, so it runs at the small degree.
        if (s.n == 16) {
            const auto x = h.encryptScalar(6);
            const auto y = h.encryptScalar(7);
            const auto host = h.eval.multiply(x, y);
            h.ctx.setConvolver(std::make_unique<PimConvolver<N>>(
                h.ctx.ring(), tinySystem(3), 12, 3));
            expectEq(host, h.eval.multiply(x, y), "pim convolver");
        }
    }
}

/**
 * Staging buffers are reused across ops, so every byte the codec does
 * not encode must be zeroed explicitly. A large op runs first, leaving
 * its bytes in the host buffers and in MRAM; then a smaller ragged op
 * (197 elements per DPU, so at N = 1 each slice also has a 4-byte DMA
 * pad) stages into the same region. Its operand thirds, read back
 * from every DPU, must hold the operands and zeros after them.
 */
TYPED_TEST(OrchestratorWidths, ReusedStagingBuffersZeroThePadding)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    constexpr std::size_t n = 256, dpus = 13, count = 5, comps = 2;
    BfvHarness<N> h(n);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(dpus), dpus, 12);
    const auto big = randomCiphertexts(h, 16, comps);
    pimsys.addCiphertextVectors(big, big);

    const auto as = randomCiphertexts(h, count, comps);
    const auto bs = randomCiphertexts(h, count, comps);
    pimsys.addCiphertextVectors(as, bs);

    const std::size_t total = count * comps * n;
    const std::size_t per_dpu = (total + dpus - 1) / dpus;
    const std::size_t arr = (per_dpu * N * 4 + 7) / 8 * 8;
    if (N == 1) {
        ASSERT_NE(per_dpu * 4 % 8, 0u) << "shape must give N = 1 a DMA pad";
    }
    // A sync op stages into the arena's first free region, address 0
    // once the large op's region is freed; the operand check below
    // fails loudly if it were anywhere else.
    for (std::size_t third = 0; third < 2; ++third) {
        const auto &cts = third == 0 ? as : bs;
        for (std::size_t d = 0; d < dpus; ++d) {
            std::vector<std::uint8_t> bytes(arr);
            pimsys.dpuSet().copyFromMram(d, third * arr, bytes);
            const std::size_t begin = d * per_dpu;
            const std::size_t valid =
                begin < total ? std::min(per_dpu, total - begin) : 0;
            for (std::size_t e = 0; e < valid; ++e) {
                const std::size_t f = begin + e;
                const auto &coeff =
                    cts[f / (comps * n)][(f / n) % comps][f % n];
                for (std::size_t l = 0; l < N; ++l) {
                    std::uint32_t limb = 0;
                    std::memcpy(&limb, bytes.data() + (e * N + l) * 4, 4);
                    ASSERT_EQ(limb, coeff.limb(l))
                        << "third " << third << " dpu " << d << " elem "
                        << e << " limb " << l;
                }
            }
            for (std::size_t i = valid * N * 4; i < arr; ++i)
                ASSERT_EQ(bytes[i], 0u)
                    << "stale padding byte " << i << " of third "
                    << third << " on dpu " << d << " (valid elements: "
                    << valid << ")";
        }
    }
}

TEST(Orchestrator, SingleCiphertextAndSingleDpu)
{
    BfvHarness<4> h(16);
    PimHeSystem<4> pimsys(h.ctx, tinySystem(1), 1, 1);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(9)};
    std::vector<Ciphertext<4>> bs = {h.encryptScalar(8)};
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    EXPECT_EQ(h.decryptScalar(sums[0]), 17u);
}

TEST(Orchestrator, UnevenPartitionAcrossManyDpus)
{
    // 3 cts x 2 comps x 16 coeffs = 96 elements over 7 DPUs: padding
    // and remainder handling must not corrupt results.
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, tinySystem(7), 7, 12);
    std::vector<Ciphertext<2>> as, bs;
    for (int i = 0; i < 3; ++i) {
        as.push_back(h.encryptScalar(40 + i));
        bs.push_back(h.encryptScalar(100 + i));
    }
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  (140 + 2 * i) % h.params.t);
}

TEST(Orchestrator, MismatchedVectorsDie)
{
    BfvHarness<4> h(16);
    PimHeSystem<4> pimsys(h.ctx, tinySystem(2), 2, 12);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(1)};
    std::vector<Ciphertext<4>> bs;
    EXPECT_DEATH(pimsys.addCiphertextVectors(as, bs), "equal-length");
}

TEST(Orchestrator, ModeledTimeAccumulates)
{
    BfvHarness<4> h(16);
    PimHeSystem<4> pimsys(h.ctx, tinySystem(2), 2, 12);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(1)};
    std::vector<Ciphertext<4>> bs = {h.encryptScalar(2)};
    EXPECT_DOUBLE_EQ(pimsys.totalModeledMs(), 0.0);
    pimsys.addCiphertextVectors(as, bs);
    const double after_one = pimsys.totalModeledMs();
    EXPECT_GT(after_one, 0.0);
    pimsys.addCiphertextVectors(as, bs);
    EXPECT_GT(pimsys.totalModeledMs(), after_one);
}

TEST(Orchestrator, MulModeledSlowerThanAdd)
{
    // Key Takeaway 2, end to end: the same ciphertext vector costs
    // far more modelled PIM time to multiply than to add.
    BfvHarness<4> h(32);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(3)};
    std::vector<Ciphertext<4>> bs = {h.encryptScalar(5)};

    PimHeSystem<4> addsys(h.ctx, tinySystem(1), 1, 12);
    addsys.addCiphertextVectors(as, bs);
    const double add_ms =
        addsys.dpuSet().lastLaunch().kernelMs;

    PimHeSystem<4> mulsys(h.ctx, tinySystem(1), 1, 12);
    mulsys.mulCoefficientwise(as, bs);
    const double mul_ms =
        mulsys.dpuSet().lastLaunch().kernelMs;
    EXPECT_GT(mul_ms, 8 * add_ms);
}

} // namespace
} // namespace pimhe
