/**
 * @file
 * Tests for the accelerator tile: UVFR-clocked execution and power.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "soc/tile.hpp"

namespace {

using namespace blitz;
using soc::AcceleratorTile;

struct TileFixture : ::testing::Test
{
    sim::EventQueue eq;
    AcceleratorTile tile{eq, 0, "FFT", power::catalog::fft()};

    /** Run until the UVFR loop has clearly settled. */
    void
    settle()
    {
        eq.runUntil(eq.now() + 4000);
    }
};

TEST_F(TileFixture, ReachesFrequencyTarget)
{
    tile.setFreqTargetMhz(600.0);
    settle();
    EXPECT_NEAR(tile.freqMhz(), 600.0, 30.0);
}

TEST_F(TileFixture, TaskDurationMatchesFrequency)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    // 80000 tile cycles at 800 MHz = 100 us = 80000 NoC ticks.
    sim::Tick done_at = 0;
    sim::Tick start = eq.now();
    tile.beginTask(80000.0, [&] { done_at = eq.now(); });
    eq.runUntil(start + 200000);
    ASSERT_GT(done_at, 0u);
    // Allow a little slack for residual regulator quantization.
    EXPECT_NEAR(static_cast<double>(done_at - start), 80000.0,
                8000.0);
}

TEST_F(TileFixture, HalfFrequencyDoublesDuration)
{
    tile.setFreqTargetMhz(400.0);
    settle();
    bool done = false;
    sim::Tick start = eq.now();
    tile.beginTask(80000.0, [&] { done = true; });
    while (!done && eq.now() < start + 400000)
        eq.runOne();
    EXPECT_TRUE(done);
    double duration = static_cast<double>(eq.now() - start);
    EXPECT_NEAR(duration, 160000.0, 16000.0);
}

TEST_F(TileFixture, SpeedChangeMidTaskStretchesCorrectly)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    bool done = false;
    sim::Tick start = eq.now();
    tile.beginTask(80000.0, [&] { done = true; });
    // Halfway through, drop to half speed.
    eq.runUntil(start + 40000);
    tile.setFreqTargetMhz(400.0);
    while (!done && eq.now() < start + 400000)
        eq.runOne();
    EXPECT_TRUE(done);
    // 50% at full speed (40k ticks) + 50% at half speed (~80k ticks).
    EXPECT_NEAR(static_cast<double>(eq.now() - start), 120000.0,
                15000.0);
}

// Every frequency step re-aims the completion event; the superseded
// one is cancelled rather than left to fire as a no-op, so a task
// under constant DVFS churn keeps a handful of events pending instead
// of one per step. Cancelling changes no outcome: the completion tick
// is pinned to the value recorded when superseded events still fired.
TEST_F(TileFixture, FrequencyChurnKeepsPendingBoundedAndTimingExact)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    bool done = false;
    sim::Tick doneAt = 0;
    const sim::Tick start = eq.now();
    tile.beginTask(400000.0, [&] {
        done = true;
        doneAt = eq.now();
    });
    std::size_t maxPending = 0;
    for (int step = 0; step < 150 && !done; ++step) {
        tile.setFreqTargetMhz(step % 2 ? 800.0 : 300.0);
        eq.runUntil(eq.now() + 1500);
        maxPending = std::max(maxPending, eq.pending());
    }
    eq.runUntil(start + 2'000'000);
    ASSERT_TRUE(done);
    EXPECT_LE(maxPending, 4u);
    EXPECT_EQ(doneAt - start, 474234u);
}

TEST_F(TileFixture, ZeroFrequencyStallsTask)
{
    tile.setFreqTargetMhz(0.0);
    settle();
    bool done = false;
    tile.beginTask(1000.0, [&] { done = true; });
    eq.runUntil(eq.now() + 100000);
    EXPECT_FALSE(done);
    EXPECT_TRUE(tile.busy());
    // Granting frequency resumes execution.
    tile.setFreqTargetMhz(800.0);
    eq.runUntil(eq.now() + 50000);
    EXPECT_TRUE(done);
}

TEST_F(TileFixture, BusyWhileExecuting)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    EXPECT_FALSE(tile.busy());
    bool done = false;
    tile.beginTask(10000.0, [&] { done = true; });
    EXPECT_TRUE(tile.busy());
    eq.runUntil(eq.now() + 100000);
    EXPECT_TRUE(done);
    EXPECT_FALSE(tile.busy());
}

TEST_F(TileFixture, DoubleBeginPanics)
{
    tile.setFreqTargetMhz(800.0);
    tile.beginTask(1000.0, [] {});
    EXPECT_THROW(tile.beginTask(1000.0, [] {}), sim::PanicError);
}

TEST_F(TileFixture, IdlePowerIsNearFloor)
{
    tile.setFreqTargetMhz(0.0);
    settle();
    EXPECT_FALSE(tile.busy());
    EXPECT_LE(tile.powerMw(), power::catalog::fft().pIdle() + 0.5);
}

TEST_F(TileFixture, ActivePowerMatchesCurve)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    bool done = false;
    tile.beginTask(1e9, [&] { done = true; });
    EXPECT_NEAR(tile.powerMw(),
                power::catalog::fft().powerAt(tile.freqMhz()), 1e-9);
    EXPECT_FALSE(done);
}

TEST_F(TileFixture, IdleTileBurnsLessThanActive)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    double idle = tile.powerMw();
    tile.beginTask(1e9, [] {});
    double active = tile.powerMw();
    EXPECT_LT(idle, active * 0.5);
}

TEST_F(TileFixture, CyclesExecutedAccumulate)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    bool done = false;
    tile.beginTask(50000.0, [&] { done = true; });
    eq.runUntil(eq.now() + 200000);
    ASSERT_TRUE(done);
    EXPECT_NEAR(tile.totalCyclesExecuted(), 50000.0, 50.0);
}

TEST_F(TileFixture, VoltageFollowsFrequency)
{
    tile.setFreqTargetMhz(800.0);
    settle();
    double v_high = tile.voltage();
    tile.setFreqTargetMhz(250.0);
    settle();
    EXPECT_LT(tile.voltage(), v_high);
}

} // namespace
