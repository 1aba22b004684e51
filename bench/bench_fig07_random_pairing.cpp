/**
 * @file
 * Fig. 7: histogram of the worst-case absolute error across all tiles
 * after convergence, with and without random pairing, for N = 100 and
 * N = 400 (1000 runs each).
 *
 * Paper result: without random pairing some tiles never reach their
 * target and the residual grows with SoC size; with it, every tile
 * converges to within the 1-coin quantization.
 */

#include <vector>

#include "bench_common.hpp"
#include "sim/stats.hpp"
#include "sweep/sweep.hpp"

using namespace blitz;

namespace {

/** One Fig. 7 configuration: mesh side and random pairing on/off. */
struct Config
{
    int d;
    bool randomPairing;
};

/** Worst-tile residual of trial @p t of one configuration. */
double
residual(const Config &c, int t)
{
    coin::EngineConfig cfg;
    cfg.wrap = true;
    cfg.backoff.enabled = true;
    cfg.pairing.randomPairing = c.randomPairing;

    coin::MeshSim sim(noc::Topology::square(c.d), cfg,
                      7'000 + static_cast<std::uint64_t>(t));
    coin::Coins demand = 0;
    // A quarter of the tiles idle: the idle islands are what random
    // pairing exists to cross.
    for (std::size_t i = 0; i < sim.ledger().size(); ++i) {
        coin::Coins m =
            (i % 4 == 3) ? 0 : bench::typeLevel(static_cast<int>(i) % 4);
        sim.setMax(i, m);
        demand += m;
    }
    sim.randomizeHas(demand / 2);
    // Run for a fixed long horizon, then record the worst tile.
    sim.runUntilConverged(0.0, sim::usToTicks(200.0));
    return sim.maxError();
}

} // namespace

int
main()
{
    bench::banner("Fig. 7",
                  "worst-case residual error histogram, 1000 runs");
    const int runs = 1000;
    std::vector<Config> configs;
    for (int d : {10, 20}) {
        for (bool rp : {false, true})
            configs.push_back(Config{d, rp});
    }
    // Every (configuration, trial) pair fans out over the sweep pool;
    // trials keep their fixed seeds and each histogram folds its
    // trials in trial order, so output is identical at any thread
    // count.
    const auto residuals = sweep::runSweep(
        configs.size() * runs, /*rootSeed=*/0,
        [&](std::size_t i, std::uint64_t) {
            return residual(configs[i / runs], static_cast<int>(i % runs));
        });
    for (std::size_t k = 0; k < configs.size(); ++k) {
        sim::Histogram hist(0.0, 8.0, 16);
        for (int t = 0; t < runs; ++t)
            hist.add(residuals[k * runs + t]);
        std::printf("\nN = %d, random pairing %s:\n",
                    configs[k].d * configs[k].d,
                    configs[k].randomPairing ? "ON" : "OFF");
        std::printf("%s", hist.format(44).c_str());
    }
    std::printf("\nShape check: OFF histograms have heavy tails that "
                "grow with N; ON histograms collapse below ~2 coins "
                "(1-coin quantization + alpha rounding).\n");
    return 0;
}
