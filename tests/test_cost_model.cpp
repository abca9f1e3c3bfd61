/**
 * @file
 * Validation of the analytic PIM cost model against exact simulation
 * (DESIGN.md tier-2 vs tier-1 requirement: within 2%).
 */

#include <gtest/gtest.h>

#include "pimhe/cost_model.h"
#include "test_util.h"

namespace pimhe {
namespace {

using perf::OpKind;

// gtest prints a parameter type without a printer as a byte dump,
// and ctest registers that dump as part of each case's name. OpKind is
// 4 bytes, which would leave 4 uninitialised padding bytes before
// `limbs`; an 8-byte op field leaves none.
enum class FitOp : std::uint64_t
{
    VecAdd,
    VecMul,
};

struct FitCase
{
    FitOp op;
    std::size_t limbs;
    std::size_t elems;
};
static_assert(sizeof(FitCase) == 3 * sizeof(std::uint64_t));

class CostModelFit : public ::testing::TestWithParam<FitCase>
{
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, CostModelFit,
    ::testing::Values(FitCase{FitOp::VecAdd, 1, 5000},
                      FitCase{FitOp::VecAdd, 2, 7777},
                      FitCase{FitOp::VecAdd, 4, 3001},
                      FitCase{FitOp::VecAdd, 4, 20011},
                      FitCase{FitOp::VecMul, 1, 4099},
                      FitCase{FitOp::VecMul, 2, 2048},
                      FitCase{FitOp::VecMul, 4, 1500},
                      FitCase{FitOp::VecMul, 4, 9973}),
    [](const auto &tpi) {
        return std::string(tpi.param.op == FitOp::VecAdd ? "add"
                                                         : "mul") +
               "L" + std::to_string(tpi.param.limbs) + "e" +
               std::to_string(tpi.param.elems);
    });

TEST_P(CostModelFit, MatchesExactSimulationWithin2Percent)
{
    const auto [fit_op, limbs, elems] = GetParam();
    const OpKind op =
        fit_op == FitOp::VecAdd ? OpKind::VecAdd : OpKind::VecMul;
    pim::SystemConfig one;
    one.numDpus = 1;
    PimCostModel model(one, 12);
    const double exact =
        model.simulateElementwiseCycles(op, limbs, elems);
    const double est =
        model.elementwiseMs(op, limbs, elems).computeMs *
        one.dpu.clockMhz * 1e3;
    EXPECT_NEAR(est / exact, 1.0, 0.02)
        << "exact=" << exact << " est=" << est;
}

TEST(CostModel, ConvolutionFitMatchesSimulation)
{
    pim::SystemConfig one;
    one.numDpus = 1;
    PimCostModel model(one, 12);
    for (const std::size_t limbs : {1ul, 2ul, 4ul}) {
        for (const std::size_t n : {48ul, 96ul, 144ul}) {
            const double exact =
                model.simulateConvolutionCycles(n, limbs);
            const double est =
                model.convolutionMs(n, limbs, 1).computeMs *
                one.dpu.clockMhz * 1e3;
            EXPECT_NEAR(est / exact, 1.0, 0.02)
                << "limbs=" << limbs << " n=" << n;
        }
    }
}

TEST(CostModel, ScalesLinearlyInElements)
{
    PimCostModel model;
    const double t1 =
        model.elementwiseMs(OpKind::VecAdd, 4, 1 << 22).computeMs;
    const double t2 =
        model.elementwiseMs(OpKind::VecAdd, 4, 1 << 23).computeMs;
    EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(CostModel, MulCostsMoreThanAdd)
{
    PimCostModel model;
    for (const std::size_t limbs : {1ul, 2ul, 4ul}) {
        const double add =
            model.elementwiseMs(OpKind::VecAdd, limbs, 1 << 20)
                .totalMs();
        const double mul =
            model.elementwiseMs(OpKind::VecMul, limbs, 1 << 20)
                .totalMs();
        EXPECT_GT(mul, 5 * add) << "limbs " << limbs;
    }
}

TEST(CostModel, WiderElementsCostMore)
{
    PimCostModel model;
    const auto ms = [&](std::size_t limbs) {
        return model.elementwiseMs(OpKind::VecMul, limbs, 1 << 20)
            .computeMs;
    };
    EXPECT_LT(ms(1), ms(2));
    EXPECT_LT(ms(2), ms(4));
}

TEST(CostModel, MemoryCapacityProportionalScaling)
{
    // Key Takeaway 3: with work spread across all DPUs, doubling the
    // data on a full-size system doubles time; but doubling both data
    // and DPUs keeps time constant.
    pim::SystemConfig half = pim::paperSystem();
    half.numDpus = 1262;
    pim::SystemConfig full = pim::paperSystem();
    PimCostModel small(half, 12);
    PimCostModel big(full, 12);
    const std::size_t elems = 1262 * 4096;
    const double t_small =
        small.elementwiseMs(OpKind::VecMul, 4, elems).computeMs;
    const double t_big =
        big.elementwiseMs(OpKind::VecMul, 4, 2 * elems).computeMs;
    EXPECT_NEAR(t_big / t_small, 1.0, 0.02);
}

TEST(CostModel, ConstantTimeAcrossUserCounts)
{
    // The paper's Figure 2 observation: PIM time stays ~constant as
    // users grow, because utilisation grows with them.
    PimCostModel model;
    const double t640 =
        model.elementwiseMs(OpKind::VecAdd, 4, 640 * 2 * 4096, 640)
            .totalMs();
    const double t2560 =
        model.elementwiseMs(OpKind::VecAdd, 4, 2560 * 2 * 4096, 2560)
            .totalMs();
    EXPECT_LT(t2560 / t640, 2.1)
        << "per-DPU work should stay nearly flat below system size";
}

TEST(CostModel, TransfersAddVisibleTime)
{
    PimCostModel model;
    const std::size_t elems = 1 << 22;
    const double without =
        model.elementwiseMs(OpKind::VecAdd, 4, elems).totalMs();
    const double with =
        model.elementwiseWithTransfersMs(OpKind::VecAdd, 4, elems)
            .totalMs();
    EXPECT_GT(with, 2 * without)
        << "staging 128-bit operands dominates a cheap add kernel";
}

TEST(CostModel, TaskletSweepSaturatesAtEleven)
{
    // S1 experiment backing: per-DPU cycles stop improving at the
    // dispatch-interval tasklet count.
    pim::SystemConfig one;
    one.numDpus = 1;
    std::vector<double> cycles;
    for (const unsigned t : {2u, 4u, 8u, 11u, 16u}) {
        PimCostModel m(one, t);
        cycles.push_back(
            m.simulateElementwiseCycles(OpKind::VecMul, 4, 1056));
    }
    EXPECT_GT(cycles[0], 1.8 * cycles[1]);
    EXPECT_GT(cycles[1], 1.8 * cycles[2]);
    EXPECT_GT(cycles[2], 1.2 * cycles[3]);
    EXPECT_NEAR(cycles[4] / cycles[3], 1.0, 0.05);
}

TEST(CostModel, NativeMulAblationSpeedsUpMultiplication)
{
    pim::SystemConfig gen1 = pim::paperSystem();
    pim::SystemConfig gen2 = pim::paperSystem();
    gen2.dpu.nativeMul32 = true;
    PimCostModel m1(gen1, 12);
    PimCostModel m2(gen2, 12);
    const std::size_t elems = 1 << 22;
    const double t1 =
        m1.elementwiseMs(OpKind::VecMul, 4, elems).computeMs;
    const double t2 =
        m2.elementwiseMs(OpKind::VecMul, 4, elems).computeMs;
    EXPECT_GT(t1 / t2, 3.0)
        << "Key Takeaway 2: native multipliers change the story";
    // Addition is unaffected.
    const double a1 =
        m1.elementwiseMs(OpKind::VecAdd, 4, elems).computeMs;
    const double a2 =
        m2.elementwiseMs(OpKind::VecAdd, 4, elems).computeMs;
    EXPECT_NEAR(a1 / a2, 1.0, 0.01);
}

TEST(CostModel, DpusUsedClampsToSystem)
{
    PimCostModel model;
    EXPECT_EQ(model.dpusUsed(1), 1u);
    EXPECT_EQ(model.dpusUsed(100), 100u);
    EXPECT_EQ(model.dpusUsed(1 << 30), 2524u);
}

} // namespace
} // namespace pimhe
