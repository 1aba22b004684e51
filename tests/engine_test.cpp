/**
 * @file
 * Tests for the behavioral coin-exchange engine: convergence,
 * conservation, the Section III-D optimizations, and the deadlock
 * scenarios of Fig. 5.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "coin/engine.hpp"

namespace {

using namespace blitz;
using coin::EngineConfig;
using coin::ExchangeMode;
using coin::MeshSim;

// Every partner selector holds a pointer into its engine's own RNG, so
// a copied or moved engine would draw from the source's stream.
static_assert(!std::is_copy_constructible_v<MeshSim> &&
                  !std::is_copy_assignable_v<MeshSim> &&
                  !std::is_move_constructible_v<MeshSim> &&
                  !std::is_move_assignable_v<MeshSim>,
              "MeshSim must be neither copyable nor movable");

EngineConfig
baseConfig()
{
    EngineConfig cfg;
    cfg.wrap = true;
    cfg.backoff.enabled = true;
    cfg.pairing.randomPairing = true;
    return cfg;
}

/** Heterogeneous targets + half-demand pool; returns the pool size. */
coin::Coins
seedMesh(MeshSim &sim, int accTypes = 4)
{
    coin::Coins total_max = 0;
    const coin::Coins levels[8] = {8, 16, 32, 63, 10, 24, 40, 50};
    for (std::size_t i = 0; i < sim.ledger().size(); ++i) {
        coin::Coins m =
            levels[i % static_cast<std::size_t>(accTypes)];
        sim.setMax(i, m);
        total_max += m;
    }
    coin::Coins pool = total_max / 2;
    sim.randomizeHas(pool);
    return pool;
}

TEST(Engine, ConvergesOnSmallMesh)
{
    MeshSim sim(noc::Topology::square(4), baseConfig(), 1);
    coin::Coins pool = seedMesh(sim);
    auto r = sim.runUntilConverged(1.0, sim::msToTicks(5.0));
    EXPECT_TRUE(r.converged);
    EXPECT_LT(sim.globalError(), 1.0);
    EXPECT_EQ(sim.ledger().totalHas(), pool);
    EXPECT_GT(r.packets, 0u);
}

/** Parameterized convergence across sizes and modes. */
class ConvergenceSweep
    : public ::testing::TestWithParam<std::tuple<int, ExchangeMode>>
{};

TEST_P(ConvergenceSweep, ConvergesAndConserves)
{
    auto [d, mode] = GetParam();
    EngineConfig cfg = baseConfig();
    cfg.mode = mode;
    MeshSim sim(noc::Topology::square(d), cfg, 17);
    coin::Coins pool = seedMesh(sim);
    auto r = sim.runUntilConverged(1.5, sim::msToTicks(20.0));
    EXPECT_TRUE(r.converged) << "d=" << d;
    EXPECT_EQ(sim.ledger().totalHas(), pool) << "coins leaked";
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndModes, ConvergenceSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8, 10, 14),
                       ::testing::Values(ExchangeMode::OneWay,
                                         ExchangeMode::FourWay)));

TEST(Engine, DeterministicForSameSeed)
{
    auto run = [](std::uint64_t seed) {
        MeshSim sim(noc::Topology::square(6), baseConfig(), seed);
        seedMesh(sim);
        return sim.runUntilConverged(1.0, sim::msToTicks(5.0));
    };
    auto a = run(33);
    auto b = run(33);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.exchanges, b.exchanges);
}

TEST(Engine, DifferentSeedsVary)
{
    auto run = [](std::uint64_t seed) {
        MeshSim sim(noc::Topology::square(6), baseConfig(), seed);
        seedMesh(sim);
        return sim.runUntilConverged(1.0, sim::msToTicks(5.0)).time;
    };
    EXPECT_NE(run(1), run(2));
}

TEST(Engine, ConvergedStateIsIdempotent)
{
    MeshSim sim(noc::Topology::square(4), baseConfig(), 3);
    seedMesh(sim);
    ASSERT_TRUE(sim.runUntilConverged(1.0, sim::msToTicks(5.0))
                    .converged);
    double err = sim.globalError();
    // Keep running: steady state must not drift away.
    sim.runFor(sim::usToTicks(50.0));
    EXPECT_LE(sim.globalError(), err + 1.0);
}

TEST(Engine, ActivityChangeReconverges)
{
    MeshSim sim(noc::Topology::square(4), baseConfig(), 5);
    coin::Coins pool = seedMesh(sim);
    ASSERT_TRUE(sim.runUntilConverged(1.0, sim::msToTicks(5.0))
                    .converged);
    // A tile finishes (max -> 0) and another doubles its demand.
    sim.setMax(0, 0);
    sim.setMax(5, 63);
    auto r = sim.runUntilConverged(1.0, sim::msToTicks(5.0));
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(sim.ledger().totalHas(), pool);
    // The finished tile must have relinquished (close to) everything.
    EXPECT_LE(sim.ledger().has(0), 1);
}

TEST(Engine, FourWayUsesMorePacketsPerExchange)
{
    EngineConfig one = baseConfig();
    one.backoff.enabled = false;
    EngineConfig four = one;
    four.mode = ExchangeMode::FourWay;

    MeshSim s1(noc::Topology::square(6), one, 7);
    MeshSim s4(noc::Topology::square(6), four, 7);
    seedMesh(s1);
    seedMesh(s4);
    auto r1 = s1.runUntilConverged(1.5, sim::msToTicks(10.0));
    auto r4 = s4.runUntilConverged(1.5, sim::msToTicks(10.0));
    ASSERT_TRUE(r1.converged);
    ASSERT_TRUE(r4.converged);
    // 1-way: 2 messages/exchange; 4-way: 12 (Section III-B).
    EXPECT_NEAR(static_cast<double>(r1.packets) /
                    static_cast<double>(r1.exchanges),
                2.0, 0.01);
    EXPECT_GT(static_cast<double>(r4.packets) /
                  static_cast<double>(r4.exchanges),
              10.0);
    // ...but needs fewer exchanges to converge (more info per op).
    EXPECT_LT(r4.exchanges, r1.exchanges);
}

TEST(Engine, CheckerboardDeadlockWithoutRandomPairing)
{
    // Fig. 5 right: an active tile surrounded by inactive tiles, with
    // the coins parked on the far side. Without random pairing the
    // neighbor exchanges all involve max=0 partners holding 0 coins.
    EngineConfig cfg = baseConfig();
    cfg.pairing.randomPairing = false;
    cfg.wrap = false;
    MeshSim sim(noc::Topology::square(3), cfg, 9);
    // Tile 4 (center) is active and penniless; coins sit on corner 0,
    // which is inactive and NOT a neighbor of 4.
    sim.setMax(4, 16);
    sim.setHas(0, 16);
    auto r = sim.runUntilConverged(1.0, sim::usToTicks(200.0));
    EXPECT_FALSE(r.converged) << "deadlock unexpectedly resolved";
    EXPECT_EQ(sim.ledger().has(4), 0);
}

TEST(Engine, RandomPairingBreaksCheckerboardDeadlock)
{
    EngineConfig cfg = baseConfig();
    cfg.pairing.randomPairing = true;
    cfg.pairing.period = 16;
    cfg.wrap = false;
    MeshSim sim(noc::Topology::square(3), cfg, 9);
    sim.setMax(4, 16);
    sim.setHas(0, 16);
    auto r = sim.runUntilConverged(1.0, sim::msToTicks(2.0));
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(sim.ledger().has(4), 16);
}

TEST(Engine, WrapAroundHelpsEdgeTiles)
{
    // Corner-to-corner coin motion is shorter on the torus; both must
    // converge, wrap at least as fast (usually faster).
    EngineConfig mesh = baseConfig();
    mesh.wrap = false;
    EngineConfig torus = baseConfig();
    torus.wrap = true;

    sim::Tick t_mesh = 0, t_torus = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        MeshSim sm(noc::Topology::square(8), mesh, seed);
        MeshSim st(noc::Topology::square(8), torus, seed);
        seedMesh(sm);
        seedMesh(st);
        auto rm = sm.runUntilConverged(1.5, sim::msToTicks(10.0));
        auto rt = st.runUntilConverged(1.5, sim::msToTicks(10.0));
        ASSERT_TRUE(rm.converged);
        ASSERT_TRUE(rt.converged);
        t_mesh += rm.time;
        t_torus += rt.time;
    }
    EXPECT_LE(t_torus, t_mesh * 2);
}

TEST(Engine, DynamicTimingReducesSteadyStateTraffic)
{
    EngineConfig fixed = baseConfig();
    fixed.backoff.enabled = false;
    EngineConfig dynamic = baseConfig();
    dynamic.backoff.enabled = true;

    MeshSim sf(noc::Topology::square(6), fixed, 11);
    MeshSim sd(noc::Topology::square(6), dynamic, 11);
    seedMesh(sf);
    seedMesh(sd);
    ASSERT_TRUE(sf.runUntilConverged(1.0, sim::msToTicks(5.0))
                    .converged);
    ASSERT_TRUE(sd.runUntilConverged(1.0, sim::msToTicks(5.0))
                    .converged);
    // Measure steady-state packet rate after convergence (Fig. 6's
    // motivation: quiet networks once balanced).
    auto pf = sf.runFor(sim::usToTicks(100.0)).packets;
    auto pd = sd.runFor(sim::usToTicks(100.0)).packets;
    EXPECT_LT(pd, pf / 2);
}

TEST(Engine, ThermalCapIsRespectedAtConvergence)
{
    EngineConfig cfg = baseConfig();
    cfg.thermalCaps.assign(16, coin::uncapped);
    cfg.thermalCaps[5] = 4; // hotspot tile
    MeshSim sim(noc::Topology::square(4), cfg, 13);
    for (std::size_t i = 0; i < 16; ++i)
        sim.setMax(i, 32);
    // Caps gate *acceptance*: seed the hotspot tile below its cap and
    // verify the exchange never pushes it over.
    for (std::size_t i = 0; i < 16; ++i)
        sim.setHas(i, i == 5 ? 0 : 13);
    ASSERT_EQ(sim.ledger().totalHas(), 195);
    auto r = sim.runUntilConverged(3.0, sim::msToTicks(10.0));
    EXPECT_TRUE(r.converged);
    EXPECT_LE(sim.ledger().has(5), 4);
    EXPECT_EQ(sim.ledger().totalHas(), 195);
}

TEST(Engine, SqrtScalingTrend)
{
    // The headline claim (Fig. 3): convergence time grows like
    // d = sqrt(N), not like N. Check that growing d 3x grows time by
    // far less than the 9x a linear-in-N scheme would show.
    auto converge = [](int d) {
        double total = 0;
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            EngineConfig cfg;
            cfg.wrap = true;
            cfg.backoff.enabled = false;
            MeshSim sim(noc::Topology::square(d), cfg, seed);
            for (std::size_t i = 0; i < sim.ledger().size(); ++i)
                sim.setMax(i, 16);
            sim.randomizeHas(8 * static_cast<coin::Coins>(d) * d);
            auto r = sim.runUntilConverged(1.5, sim::msToTicks(50.0));
            EXPECT_TRUE(r.converged) << "d=" << d;
            total += static_cast<double>(r.time);
        }
        return total / 5.0;
    };
    double t6 = converge(6);
    double t18 = converge(18);
    // N grows 9x; sqrt scaling predicts ~3x. Allow up to 5x.
    EXPECT_LT(t18, 5.0 * t6);
}

TEST(Engine, RunForCountsWork)
{
    MeshSim sim(noc::Topology::square(4), baseConfig(), 15);
    seedMesh(sim);
    auto r = sim.runFor(sim::usToTicks(10.0));
    EXPECT_FALSE(r.converged); // runFor never claims convergence
    EXPECT_EQ(r.time, sim.now());
    EXPECT_GT(r.exchanges, 0u);
}

TEST(Engine, NeighborhoodCapLimitsHotTileAccumulation)
{
    // Section III-B's sub-group form: a tile never *accepts* coins
    // that would push its 5-tile cross beyond the density cap. (Like
    // the paper's local rule, this gates acceptance only — a cross
    // can still be raised by coins a neighbor accepted for itself.)
    // A center tile with a huge demand would normally accumulate far
    // beyond the cap; verify the cap holds it down.
    auto run = [](coin::Coins nb_cap) {
        EngineConfig cfg = baseConfig();
        cfg.neighborhoodCap = nb_cap;
        MeshSim sim(noc::Topology::square(5), cfg, 31);
        const std::size_t center = 12;
        for (std::size_t i = 0; i < 25; ++i)
            sim.setMax(i, i == center ? 63 : 2);
        // Coins start away from the center region.
        for (std::size_t i : {0u, 4u, 20u, 24u})
            sim.setHas(i, 25);
        sim.runUntilConverged(1.5, sim::msToTicks(10.0));
        EXPECT_EQ(sim.ledger().totalHas(), 100);
        return sim.ledger().has(center);
    };
    coin::Coins uncapped_holding = run(coin::uncapped);
    EXPECT_GT(uncapped_holding, 30); // demand dominates uncapped
    coin::Coins capped_holding = run(20);
    EXPECT_LE(capped_holding, 20); // acceptance gate enforced
}

TEST(Engine, NeighborhoodCapStillConvergesWhenLoose)
{
    EngineConfig cfg = baseConfig();
    cfg.neighborhoodCap = 1000; // never binds
    MeshSim sim(noc::Topology::square(4), cfg, 33);
    coin::Coins pool = seedMesh(sim);
    auto r = sim.runUntilConverged(1.0, sim::msToTicks(5.0));
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(sim.ledger().totalHas(), pool);
}

TEST(Engine, ClusterHasConservesAndConcentrates)
{
    MeshSim sim(noc::Topology::square(8), baseConfig(), 21);
    sim.clusterHas(320);
    EXPECT_EQ(sim.ledger().totalHas(), 320);
    // Coins land on roughly a quarter of the tiles.
    int holders = 0;
    for (std::size_t i = 0; i < 64; ++i)
        holders += sim.ledger().has(i) > 0 ? 1 : 0;
    EXPECT_LT(holders, 32);
    EXPECT_GT(holders, 4);
}

TEST(Engine, ClusteredStartConvergesSlowerThanUniform)
{
    // The long-range-transport effect behind Fig. 3's growth with d.
    auto time_for = [](bool clustered) {
        double total = 0.0;
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            EngineConfig cfg;
            cfg.wrap = true;
            MeshSim sim(noc::Topology::square(12), cfg, seed);
            for (std::size_t i = 0; i < sim.ledger().size(); ++i)
                sim.setMax(i, 16);
            if (clustered) {
                sim.clusterHas(1152);
            } else {
                sim.randomizeHas(1152);
            }
            auto r = sim.runUntilConverged(1.0, sim::msToTicks(20.0));
            EXPECT_TRUE(r.converged);
            total += static_cast<double>(r.time);
        }
        return total;
    };
    EXPECT_GT(time_for(true), 1.5 * time_for(false));
}

TEST(Engine, IsolatedStageMigrationIsFast)
{
    // The 4x4-vision pathology: active tiles whose mesh neighbors are
    // all idle must still rebalance among themselves quickly via the
    // isolation detector + forced far pairing.
    EngineConfig cfg = baseConfig();
    cfg.wrap = false;
    MeshSim sim(noc::Topology::square(4), cfg, 23);
    // Active tiles on a sparse diagonal-ish pattern (no two adjacent,
    // even with wrap): 1, 4, 11, 14.
    for (std::size_t i : {1u, 4u, 11u, 14u})
        sim.setMax(i, 32);
    // All coins start on one of them, grossly unbalanced.
    sim.setHas(1, 64);
    auto r = sim.runUntilConverged(1.0, sim::usToTicks(20.0));
    EXPECT_TRUE(r.converged) << "migration across idle tiles stalled";
    for (std::size_t i : {1u, 4u, 11u, 14u})
        EXPECT_NEAR(static_cast<double>(sim.ledger().has(i)), 16.0,
                    2.0);
}

TEST(Engine, ModeNames)
{
    EXPECT_STREQ(coin::exchangeModeName(ExchangeMode::OneWay), "1-way");
    EXPECT_STREQ(coin::exchangeModeName(ExchangeMode::FourWay),
                 "4-way");
}

} // namespace
