/**
 * @file
 * Integration tests: full SoC runs under every power-management
 * strategy, checking the properties the paper's evaluation relies on.
 */

#include <gtest/gtest.h>

#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"

namespace {

using namespace blitz;
using soc::PmConfig;
using soc::PmKind;
using soc::Soc;
using soc::SocRunStats;

PmConfig
pmConfig(PmKind kind, double budget)
{
    PmConfig pm;
    pm.kind = kind;
    pm.budgetMw = budget;
    return pm;
}

SocRunStats
runAv(PmKind kind, double budget, bool dependent,
      std::uint64_t seed = 11)
{
    Soc s(soc::make3x3AvSoc(), pmConfig(kind, budget), seed);
    workload::Dag dag = dependent ? soc::avDependent(s.config(), 2)
                                  : soc::avParallel(s.config());
    return s.run(dag);
}

/** Every strategy must complete the workload and respect the cap. */
class AllStrategies : public ::testing::TestWithParam<PmKind>
{};

TEST_P(AllStrategies, CompletesAndRespectsCap)
{
    SocRunStats st = runAv(GetParam(), 120.0, /*dependent=*/false);
    EXPECT_TRUE(st.completed);
    EXPECT_GT(st.execTime, 0u);
    // Budget respected: average under cap, transients bounded.
    EXPECT_LE(st.trace->averageTotalMw(), 120.0 * 1.02);
    EXPECT_LT(st.trace->capViolationFraction(0.10), 0.05);
}

TEST_P(AllStrategies, CompletesDependentWorkload)
{
    SocRunStats st = runAv(GetParam(), 60.0, /*dependent=*/true);
    EXPECT_TRUE(st.completed);
    EXPECT_LE(st.trace->averageTotalMw(), 60.0 * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllStrategies,
                         ::testing::Values(PmKind::BlitzCoin,
                                           PmKind::BlitzCoinCentral,
                                           PmKind::CentralRoundRobin,
                                           PmKind::StaticAlloc));

TEST(SocIntegration, BlitzCoinRespondsFasterThanCentral)
{
    auto bc = runAv(PmKind::BlitzCoin, 60.0, true);
    auto bcc = runAv(PmKind::BlitzCoinCentral, 60.0, true);
    auto crr = runAv(PmKind::CentralRoundRobin, 60.0, true);
    ASSERT_GT(bc.responseTicks.count(), 0u);
    ASSERT_GT(bcc.responseTicks.count(), 0u);
    ASSERT_GT(crr.responseTicks.count(), 0u);
    // Paper: 10.1x and 12.1x; require at least 3x in this short run.
    EXPECT_LT(bc.responseTicks.mean() * 3.0, bcc.responseTicks.mean());
    EXPECT_LT(bc.responseTicks.mean() * 3.0, crr.responseTicks.mean());
}

TEST(SocIntegration, ThroughputOrderingMatchesPaper)
{
    auto bc = runAv(PmKind::BlitzCoin, 60.0, true);
    auto bcc = runAv(PmKind::BlitzCoinCentral, 60.0, true);
    auto crr = runAv(PmKind::CentralRoundRobin, 60.0, true);
    // BC <= BC-C < C-RR execution time (Fig. 17 ordering).
    EXPECT_LE(bc.execTime, bcc.execTime);
    EXPECT_LT(bcc.execTime, crr.execTime);
    // And the gap to C-RR is substantial (paper: 25-34%).
    EXPECT_GT(static_cast<double>(crr.execTime) /
                  static_cast<double>(bc.execTime),
              1.10);
}

TEST(SocIntegration, RpBeatsApThroughput)
{
    // Section VI-A: RP gives 3.0-4.1% over AP on the 3x3 SoC.
    auto run = [](coin::AllocPolicy alloc) {
        PmConfig pm = pmConfig(PmKind::BlitzCoin, 120.0);
        pm.alloc = alloc;
        Soc s(soc::make3x3AvSoc(), pm, 13);
        auto dag = soc::avParallel(s.config());
        return s.run(dag).execTime;
    };
    auto rp = run(coin::AllocPolicy::RelativeProportional);
    auto ap = run(coin::AllocPolicy::AbsoluteProportional);
    EXPECT_LT(rp, ap);
}

TEST(SocIntegration, BlitzCoinBeatsStaticAllocation)
{
    // The silicon experiment (Fig. 19): ~27% over static allocation.
    auto bc = runAv(PmKind::BlitzCoin, 60.0, true);
    auto st = runAv(PmKind::StaticAlloc, 60.0, true);
    EXPECT_LT(bc.execTime, st.execTime);
}

TEST(SocIntegration, CoinsConservedThroughRun)
{
    PmConfig pm = pmConfig(PmKind::BlitzCoin, 120.0);
    Soc s(soc::make3x3AvSoc(), pm, 17);
    auto dag = soc::avDependent(s.config(), 2);
    s.run(dag);
    // After the run the distributed coin counts must still sum to the
    // pool: no transition created or destroyed coins.
    auto &bc = dynamic_cast<soc::BlitzCoinPm &>(s.pm());
    EXPECT_EQ(bc.clusterCoins(), bc.scale().poolCoins);
}

TEST(SocIntegration, Runs4x4VisionSoc)
{
    Soc s(soc::make4x4VisionSoc(),
          pmConfig(PmKind::BlitzCoin, soc::budgets::vision33Percent),
          19);
    auto dag = soc::visionDependent(s.config(), 1);
    auto st = s.run(dag);
    EXPECT_TRUE(st.completed);
    EXPECT_LE(st.trace->averageTotalMw(),
              soc::budgets::vision33Percent * 1.02);
}

TEST(SocIntegration, RunsSilicon6x6Workload)
{
    Soc s(soc::make6x6SiliconSoc(),
          pmConfig(PmKind::BlitzCoin, soc::budgets::silicon), 23);
    auto dag = soc::siliconWorkload(s.config(), 7);
    auto st = s.run(dag);
    EXPECT_TRUE(st.completed);
    // Fig. 19: high utilization under the cap.
    EXPECT_LE(st.trace->averageTotalMw(), soc::budgets::silicon);
    EXPECT_GT(st.trace->budgetUtilization(), 0.5);
}

TEST(SocIntegration, DeterministicForSeed)
{
    auto a = runAv(PmKind::BlitzCoin, 120.0, false, 42);
    auto b = runAv(PmKind::BlitzCoin, 120.0, false, 42);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.nocPackets, b.nocPackets);
}

TEST(SocIntegration, TraceCoversWholeRun)
{
    auto st = runAv(PmKind::BlitzCoin, 120.0, false);
    ASSERT_GT(st.trace->sampleCount(), 10u);
    EXPECT_GE(st.trace->samples().back().tick, st.execTime);
}

TEST(SocIntegration, PowerDropsAfterCompletion)
{
    auto st = runAv(PmKind::BlitzCoin, 120.0, false);
    ASSERT_TRUE(st.completed);
    // The trailing samples capture the post-workload decay toward the
    // idle floor.
    double final_power = st.trace->samples().back().totalMw;
    EXPECT_LT(final_power, st.trace->peakTotalMw() * 0.5);
}

TEST(SocIntegration, HigherBudgetRunsFaster)
{
    auto low = runAv(PmKind::BlitzCoin, 60.0, false);
    auto high = runAv(PmKind::BlitzCoin, 120.0, false);
    EXPECT_LT(high.execTime, low.execTime);
}

TEST(SocIntegration, TileAccessorValidatesNode)
{
    Soc s(soc::make3x3AvSoc(), pmConfig(PmKind::BlitzCoin, 120.0), 1);
    EXPECT_NO_THROW(s.tile(s.config().findTile("NVDLA")));
    EXPECT_THROW(s.tile(s.config().cpuTile), sim::PanicError);
}

TEST(SocIntegration, PanicMidRunLeavesNoStopRequest)
{
    // run() asks its drain to stop after the first event past maxTime.
    // When an event throws, the request must not outlive the unwind: a
    // later drain of the same queue runs to its own horizon.
    Soc s(soc::make3x3AvSoc(), pmConfig(PmKind::BlitzCoin, 120.0), 1);
    sim::EventQueue &eq = s.eventQueue();
    eq.schedule(100, [] { throw sim::PanicError("injected fault"); });
    soc::SocRunOptions opts;
    opts.maxTime = 200;
    const workload::Dag dag = soc::avParallel(s.config());
    EXPECT_THROW(s.run(dag, opts), sim::PanicError);
    ASSERT_EQ(eq.now(), 100u);
    int late = 0;
    eq.schedule(300, [&late] { ++late; });
    eq.schedule(350, [&late] { ++late; });
    eq.runUntil(400);
    EXPECT_EQ(late, 2);
    EXPECT_EQ(eq.now(), 400u);
}

TEST(SocIntegration, ZeroBudgetIsRejected)
{
    EXPECT_THROW(Soc(soc::make3x3AvSoc(),
                     pmConfig(PmKind::BlitzCoin, 0.0), 1),
                 sim::FatalError);
}

} // namespace
