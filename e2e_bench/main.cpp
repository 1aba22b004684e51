/**
 * @file
 * End-to-end benchmark of the simulator: the runs people make to
 * reproduce the paper, timed on the host, with every job's outputs
 * checked.
 *
 *   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (README.md in this directory says why each was chosen):
 *   mc_trials      step-level Monte-Carlo trials, 20x20 torus, on the
 *                  sweep pool (coin::MeshSim, sweep)
 *   mesh_response  64x64 packet-level ChaosCluster, one event queue,
 *                  demand-change episodes (sim, noc, blitzcoin, fault)
 *   mesh_sharded   the same inputs on a 4-shard sim::ShardGroup
 *   soc_observed   3x3 AV SoC runs with the physics plane enforcing and
 *                  every observer attached (soc, power, workload,
 *                  trace, record)
 *
 * A run repeats one *rep* until --seconds have passed. A rep sets the
 * workload up (timed as setup_s), runs its fixed, seed-generated list
 * of jobs, and closes it; jobs plus closing are wall_s. Every rep runs
 * the same inputs, so every rep must produce the same outcome digest.
 * The last line of stdout is one JSON object with the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1). A traced
 * run alternates untraced and traced reps: spans are taken only in
 * the traced ones, and the difference of the two wall_s medians is
 * the tracing overhead.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "record/recorder.hpp"
#include "sim/arena.hpp"
#include "sim/digest.hpp"
#include "sim/rng.hpp"
#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "soc/throttler.hpp"
#include "spans.hpp"
#include "sweep/sweep.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/prof.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace blitz;
using Clock = std::chrono::steady_clock;
using e2e::kNoJob;
using e2e::Span;
using e2e::SpanLog;

/**
 * Restrict the calling thread to @p width of the CPUs the process may
 * run on, the group @p slot in round-robin order. On a shared host the
 * CPUs' speeds differ and drift for seconds at a time, and a thread the
 * scheduler leaves on one CPU would time that CPU rather than the code.
 * The serial workloads move before every job (width 1); mc_trials moves
 * its sweep, whose pool threads inherit the mask, before every rep.
 * A failure to move is harmless and ignored.
 */
void
spreadOverCpus(std::size_t slot, std::size_t width = 1)
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &allowed))
                    out.push_back(c);
        return out;
    }();
    if (cpus.size() <= width)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < width; ++i)
        CPU_SET(cpus[(slot * width + i) % cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Jobs per rep; 0 = the workload's default. */
    std::size_t jobs = 0;
    /** Sweep threads for mc_trials. */
    std::size_t threads = 2;
    /** Shard count for mesh_sharded. */
    std::uint32_t shards = 4;
    /** Mesh side for mesh_*. */
    int mesh = 64;
    /** Where a traced run writes its spans; empty = nowhere. */
    std::string spansPath;
};

/** Outcome of one timed job. */
struct JobResult
{
    double hostS = 0.0;
    double simTicks = 0.0;   ///< simulated NoC cycles the job advanced
    double responseUs = 0.0; ///< simulated response time
    double execUs = 0.0;     ///< simulated span of the job's work
    bool ok = false;
};

/** One rep: set-up, every job once, closing. */
struct RepResult
{
    double setupS = 0.0;
    double wallS = 0.0; ///< jobs plus closing
    std::vector<JobResult> jobs;
    std::uint64_t digest = 0;
    bool closeOk = true;
    /** Per-layer counts and host-time gauges read from the libraries. */
    std::map<std::string, double> layer;
};

using RepFn = std::function<RepResult(SpanLog *)>;

/** Max-coin levels of the paper's four accelerator types. */
constexpr coin::Coins kLevels[4] = {16, 32, 8, 63};

// ---------------------------------------------------------------- //
// mc_trials

constexpr int kMcDim = 20;
constexpr double kMcErr = 1.5;
constexpr std::size_t kMcJobs = 128;
const sim::Tick kMcConvergeBy = sim::usToTicks(100.0);
/** Fixed run-on after convergence, for the worst-tile residual. */
const sim::Tick kMcRunOn = sim::usToTicks(20.0);

struct McTrial
{
    std::uint64_t engineSeed = 0;
    std::vector<coin::Coins> max;
};

struct McOut
{
    JobResult job;
    std::uint64_t exchanges = 0;
    std::uint64_t packets = 0;
    std::uint64_t digest = 0;
};

std::vector<McTrial>
makeMcTrials(std::uint64_t seed, std::size_t count)
{
    sim::Rng rng(sweep::streamSeed(seed, 1));
    const std::size_t n = kMcDim * kMcDim;
    std::vector<McTrial> trials(count);
    for (McTrial &t : trials) {
        t.engineSeed = rng();
        t.max.resize(n);
        for (coin::Coins &m : t.max)
            m = kLevels[rng.below(4)];
        // Exactly a quarter of the tiles idle, at seeded positions.
        std::vector<std::size_t> idx(n);
        for (std::size_t i = 0; i < n; ++i)
            idx[i] = i;
        for (std::size_t i = 0; i < n / 4; ++i) {
            std::swap(idx[i], idx[i + rng.below(n - i)]);
            t.max[idx[i]] = 0;
        }
    }
    return trials;
}

McOut
runMcTrial(const McTrial &t, SpanLog *log, std::int64_t job,
           std::int64_t parent)
{
    McOut o;
    const Clock::time_point t0 = Clock::now();
    {
        Span js(log, "bench.job", job, parent);
        coin::EngineConfig cfg;
        cfg.wrap = true;
        cfg.backoff.enabled = true;
        cfg.pairing.randomPairing = true;
        std::optional<coin::MeshSim> sim;
        {
            Span s(log, "coin.construct", job);
            sim.emplace(noc::Topology::square(kMcDim), cfg, t.engineSeed);
        }
        coin::Coins demand = 0;
        {
            Span s(log, "coin.init", job);
            for (std::size_t i = 0; i < t.max.size(); ++i) {
                sim->setMax(i, t.max[i]);
                demand += t.max[i];
            }
            sim->clusterHas(demand / 2);
        }
        coin::RunResult conv;
        {
            Span s(log, "coin.run", job);
            conv = sim->runUntilConverged(kMcErr, kMcConvergeBy);
            sim->runFor(kMcRunOn);
        }
        const coin::Coins total = sim->ledger().totalHas();
        o.job.ok = conv.converged && total == demand / 2;
        o.job.simTicks = static_cast<double>(sim->now());
        o.job.responseUs = sim::ticksToUs(conv.time);
        o.job.execUs = sim::ticksToUs(sim->now());
        o.exchanges = sim->totalExchanges();
        o.packets = sim->totalPackets();
        sim::Fnv1a dg;
        dg.u64(conv.converged).u64(conv.time).u64(sim->now());
        dg.u64(o.exchanges).u64(o.packets).i64(total);
        dg.f64(sim->maxError());
        o.digest = dg.value();
    }
    o.job.hostS = secondsSince(t0);
    return o;
}

RepFn
mcTrials(const Options &opt)
{
    auto trials = std::make_shared<std::vector<McTrial>>(
        makeMcTrials(opt.seed, opt.jobs ? opt.jobs : kMcJobs));
    const std::size_t threads = opt.threads;
    std::size_t rep = 0;
    return [trials, threads, rep](SpanLog *log) mutable {
        spreadOverCpus(rep++, threads);
        RepResult r;
        const Clock::time_point t0 = Clock::now();
        {
            // Warm-up: one untimed trial fills caches and the allocator.
            Span s(log, "bench.setup", kNoJob);
            runMcTrial(trials->front(), log, kNoJob, s.id());
        }
        r.setupS = secondsSince(t0);

        sweep::PoolStats pool;
        sweep::SweepOptions so;
        so.threads = threads;
        so.stats = &pool;
        const Clock::time_point t1 = Clock::now();
        std::vector<McOut> outs;
        {
            Span s(log, "sweep.run", kNoJob);
            const std::int64_t parent = s.id();
            outs = sweep::runSweep(
                trials->size(), 0,
                [&](std::size_t i, std::uint64_t) {
                    return runMcTrial((*trials)[i], log,
                                      static_cast<std::int64_t>(i),
                                      parent);
                },
                so);
        }
        r.wallS = secondsSince(t1);

        sim::Fnv1a dg;
        double exchanges = 0.0, packets = 0.0;
        for (const McOut &o : outs) {
            r.jobs.push_back(o.job);
            dg.u64(o.digest);
            exchanges += static_cast<double>(o.exchanges);
            packets += static_cast<double>(o.packets);
        }
        r.digest = dg.value();
        r.layer["coin.exchanges"] = exchanges;
        r.layer["coin.packets"] = packets;
        r.layer["sweep.busy_s"] = pool.busySeconds();
        r.layer["sweep.idle_s"] =
            static_cast<double>(pool.threads) * pool.wallSeconds -
            pool.busySeconds();
        r.layer["sweep.wall_s"] = pool.wallSeconds;
        r.layer["sweep.threads"] = static_cast<double>(pool.threads);
        return r;
    };
}

// ---------------------------------------------------------------- //
// mesh_response / mesh_sharded

/** One full cycle of the 16 blocks, so every block changes once per rep. */
constexpr std::size_t kMeshJobs = 16;
/** Error checks while waiting for convergence (10 ns at 800 MHz). */
constexpr sim::Tick kMeshCheckEvery = 8;
/**
 * An episode has responded once the mean coin error has recovered
 * 75% of the step the demand change caused, measured from the floor
 * the settled cluster sits at (the 1-coin quantization keeps it above
 * zero). A threshold relative to the step, not an absolute one, keeps
 * the response a property of coin transport rather than of how close
 * a fixed tolerance lies to the quantization floor.
 */
constexpr double kMeshSettleFrac = 0.25;
const sim::Tick kMeshWarm = sim::usToTicks(2.0);
const sim::Tick kMeshDeadline = sim::usToTicks(400.0);
constexpr sim::Tick kMeshDrain = 4096;

struct MeshInputs
{
    int dim = 64;
    std::uint32_t shards = 0;
    std::uint64_t unitSeedBase = 0;
    std::vector<coin::Coins> initialMax;
    /** Per episode: the (tile, new max) writes of its demand change. */
    std::vector<std::vector<std::pair<std::uint32_t, coin::Coins>>>
        episodes;
};

/**
 * The mesh is cut into a 4x4 grid of blocks. Episode k idles block
 * perm[k] and re-activates the block idled by episode k-1 with fresh
 * random levels: a hot spot hopping across the die. The seeded
 * permutation visits every block once per 16 episodes, so every seed
 * exercises the same mix of near-edge and central changes.
 */
MeshInputs
makeMeshInputs(std::uint64_t seed, std::size_t count, int dim,
               std::uint32_t shards)
{
    sim::Rng rng(sweep::streamSeed(seed, 2));
    MeshInputs in;
    in.dim = dim;
    in.shards = shards;
    in.unitSeedBase = rng();
    const std::size_t n = static_cast<std::size_t>(dim) * dim;
    in.initialMax.resize(n);
    for (coin::Coins &m : in.initialMax)
        m = kLevels[rng.below(4)];

    constexpr int kGrid = 4;
    const int side = dim / kGrid;
    std::vector<int> perm(kGrid * kGrid);
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<int>(i);
    auto blockTiles = [&](int b) {
        std::vector<std::uint32_t> tiles;
        const int x0 = (b % kGrid) * side;
        const int y0 = (b / kGrid) * side;
        for (int y = y0; y < y0 + side; ++y)
            for (int x = x0; x < x0 + side; ++x)
                tiles.push_back(static_cast<std::uint32_t>(y * dim + x));
        return tiles;
    };
    int prev = -1;
    for (std::size_t k = 0; k < count; ++k) {
        if (k % perm.size() == 0)
            for (std::size_t i = perm.size() - 1; i > 0; --i)
                std::swap(perm[i], perm[rng.below(i + 1)]);
        const int b = perm[k % perm.size()];
        std::vector<std::pair<std::uint32_t, coin::Coins>> writes;
        for (std::uint32_t t : blockTiles(b))
            writes.emplace_back(t, 0);
        if (prev >= 0 && prev != b)
            for (std::uint32_t t : blockTiles(prev))
                writes.emplace_back(t, kLevels[rng.below(4)]);
        in.episodes.push_back(std::move(writes));
        prev = b;
    }
    return in;
}

RepResult
meshRep(const MeshInputs &in, SpanLog *log)
{
    RepResult r;
    const Clock::time_point t0 = Clock::now();
    fault::ChaosConfig cc;
    cc.width = in.dim;
    cc.height = in.dim;
    cc.seedBase = in.unitSeedBase;
    cc.shards = in.shards;
    // Declared before the cluster, which must die first.
    sim::Arena arena;
    cc.arena = &arena;
    std::optional<fault::ChaosCluster> cl;
    // Declared after the cluster: it detaches before the group dies.
    trace::SuperstepProfiler prof;
    std::uint64_t events = 0, packets = 0;
    auto runSim = [&](std::int64_t job, auto &&advance) {
        Span s(log, "sim.run", job);
        const std::uint64_t e0 = cl->eq().totalExecuted();
        const std::uint64_t p0 = cl->net().packetsDelivered();
        auto res = advance();
        events += cl->eq().totalExecuted() - e0;
        packets += cl->net().packetsDelivered() - p0;
        return res;
    };

    coin::Coins provisioned = 0;
    double floorErr = 0.0;
    {
        Span setup(log, "bench.setup", kNoJob);
        {
            Span s(log, "fault.construct", kNoJob);
            cl.emplace(cc);
        }
        if (log && cl->shardGroup())
            prof.attach(*cl->shardGroup());
        {
            Span s(log, "blitzcoin.provision", kNoJob);
            for (std::size_t i = 0; i < cl->size(); ++i) {
                cl->setMax(i, in.initialMax[i]);
                cl->setHas(i, in.initialMax[i] / 2);
                provisioned += in.initialMax[i] / 2;
            }
            cl->sealProvision();
            cl->startAll();
        }
        runSim(kNoJob, [&] {
            cl->eq().runUntil(cl->eq().now() + kMeshWarm);
            return 0;
        });
        floorErr = cl->clusterError();
    }
    r.setupS = secondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    sim::Fnv1a dg;
    for (std::size_t k = 0; k < in.episodes.size(); ++k) {
        // The sharded kernel's workers need every CPU; only the serial
        // kernel moves between jobs.
        if (in.shards == 0)
            spreadOverCpus(k);
        JobResult job;
        const Clock::time_point tj = Clock::now();
        {
            const auto id = static_cast<std::int64_t>(k);
            Span js(log, "bench.job", id);
            {
                Span s(log, "blitzcoin.retarget", id);
                for (const auto &[tile, max] : in.episodes[k])
                    cl->setMax(tile, max);
            }
            const double stepErr = cl->clusterError();
            const double tol =
                floorErr +
                kMeshSettleFrac * std::max(stepErr - floorErr, 0.0);
            const sim::Tick start = cl->eq().now();
            const std::optional<sim::Tick> at = runSim(id, [&] {
                return cl->runUntilConverged(tol, kMeshCheckEvery,
                                             start + kMeshDeadline);
            });
            const sim::Tick resp = at ? *at - start : 0;
            job.ok = at.has_value();
            job.simTicks = static_cast<double>(resp);
            job.responseUs = sim::ticksToUs(resp);
            job.execUs = job.responseUs;
            dg.u64(job.ok).u64(resp).i64(cl->totalCoins());
            dg.u64(cl->net().packetsDelivered());
        }
        job.hostS = secondsSince(tj);
        r.jobs.push_back(job);
    }

    {
        Span s(log, "bench.close", kNoJob);
        try {
            blitzcoin::AuditReport rep;
            {
                // Stop initiating first, so the drain empties the
                // network and the audit finds no coin in flight: any
                // gap it has to close is a lost or duplicated coin.
                Span q(log, "blitzcoin.quiesce", kNoJob);
                for (std::size_t i = 0; i < cl->size(); ++i)
                    cl->unit(i).stop();
                rep = cl->quiesce(kMeshDrain);
            }
            r.closeOk = rep.gap == 0 && cl->totalCoins() == provisioned;
            r.layer["blitzcoin.audit_gap_coins"] =
                static_cast<double>(std::llabs(rep.gap));
            dg.i64(rep.gap).i64(cl->totalCoins());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "mesh close failed: %s\n", e.what());
            r.closeOk = false;
        }
        if (log) {
            trace::HealthReport h;
            cl->fillHealth(h);
            const double *depth = h.findDet("queue.depth_hwm");
            double arenaHwm = static_cast<double>(arena.bytesHighWater());
            if (sim::ShardGroup *g = cl->shardGroup()) {
                for (std::uint32_t i = 0; i <= g->shards(); ++i)
                    arenaHwm += static_cast<double>(
                        g->shardArena(i).bytesHighWater());
                const sim::ShardProbe &p = prof.probe();
                double exec = 0.0, barrier = 0.0;
                for (const auto &sh : p.shards) {
                    exec += static_cast<double>(sh.execute.ns) * 1e-9;
                    barrier += static_cast<double>(sh.barrier.ns) * 1e-9;
                }
                r.layer["sim.shard_execute_s"] = exec;
                r.layer["sim.shard_barrier_s"] = barrier;
                r.layer["sim.supersteps"] =
                    static_cast<double>(p.supersteps);
            }
            r.layer["sim.queue_depth_hwm"] = depth ? *depth : 0.0;
            r.layer["sim.arena_hwm_bytes"] = arenaHwm;
        }
        prof.detach();
        cl.reset();
    }
    r.wallS = secondsSince(t1);
    r.digest = dg.value();
    r.layer["sim.events"] = static_cast<double>(events);
    r.layer["noc.packets"] = static_cast<double>(packets);
    return r;
}

RepFn
meshWorkload(const Options &opt, std::uint32_t shards)
{
    auto in = std::make_shared<MeshInputs>(makeMeshInputs(
        opt.seed, opt.jobs ? opt.jobs : kMeshJobs, opt.mesh, shards));
    return [in](SpanLog *log) { return meshRep(*in, log); };
}

// ---------------------------------------------------------------- //
// soc_observed

constexpr std::size_t kSocJobs = 64;
constexpr int kSocFrames = 3;
/**
 * Metrics snapshot cadence: 10 us, ~175 rows over a run. The Soc's
 * default (its 0.5 us power-sampling cadence) would make the CSV
 * export most of a job.
 */
const sim::Tick kSocMetricsEvery = sim::usToTicks(10.0);

soc::PhysicsConfig
socPhysics()
{
    soc::PhysicsConfig phys;
    // Thermal trip on a fast (tau = 300 us) junction path...
    phys.thermal.node.cJPerC = 1e-6;
    phys.trip.tripC = 50.0;
    phys.trip.releaseC = 49.5;
    phys.trip.capFraction = 0.4;
    // ...and every accelerator on one marginal shared rail.
    soc::RailSpec rail;
    rail.rail.vNominal = 0.85;
    rail.rail.limitMa = 120.0;
    rail.rail.releaseFraction = 0.6;
    rail.capFraction = 0.4;
    rail.droopV = 0.05;
    phys.rails.push_back(rail);
    phys.enforce = true;
    return phys;
}

struct SocOut
{
    JobResult job;
    double runS = 0.0; ///< host seconds inside Soc::run
    std::uint64_t digest = 0;
    /** Observer-independent outcome, compared against a detached run. */
    std::uint64_t outcome = 0;
    double engages = 0.0;
    double nocPackets = 0.0;
    double traceEvents = 0.0;
    double records = 0.0;
};

SocOut
runSocJob(const soc::SocConfig &cfg, const workload::Dag &dag,
          std::uint64_t seed, bool observe, SpanLog *log,
          std::int64_t job)
{
    SocOut o;
    const Clock::time_point t0 = Clock::now();
    {
        Span js(log, "bench.job", job);
        soc::PmConfig pm;
        pm.kind = soc::PmKind::BlitzCoin;
        pm.budgetMw = soc::budgets::av30Percent;
        // Observers and the physics plane must outlive the Soc.
        soc::PhysicsPlane plane(socPhysics());
        trace::Registry reg;
        trace::Tracer tracer;
        record::FlightRecorder rec;
        std::optional<soc::Soc> s;
        {
            Span sp(log, "soc.construct", job);
            s.emplace(cfg, pm, seed);
        }
        {
            Span sp(log, "power.attach", job);
            s->attachPhysics(plane);
        }
        if (observe) {
            {
                Span sp(log, "trace.attach", job);
                s->attachMetrics(&reg, kSocMetricsEvery);
                s->attachTrace(&tracer);
            }
            Span sp(log, "record.attach", job);
            s->attachRecorder(&rec);
        }
        soc::SocRunStats st;
        {
            Span sp(log, "soc.run", job);
            const Clock::time_point r0 = Clock::now();
            st = s->run(dag);
            o.runS = secondsSince(r0);
        }
        sim::Fnv1a dg;
        if (observe) {
            {
                Span sp(log, "trace.export", job);
                std::ostringstream os;
                reg.writeCsv(os);
                tracer.writeJson(os);
                trace::HealthReport health;
                s->fillHealth(health);
                health.writeJson(os);
                dg.u64(static_cast<std::uint64_t>(os.tellp()));
            }
            Span sp(log, "record.export", job);
            std::vector<record::Record> buf;
            buf.reserve(rec.size());
            for (std::size_t i = 0; i < rec.size(); ++i)
                buf.push_back(rec.at(i));
            dg.u64(buf.size()).u64(rec.digest());
        }
        auto &bc = dynamic_cast<soc::BlitzCoinPm &>(s->pm());
        o.job.ok = st.completed && bc.clusterCoins() == bc.scale().poolCoins;
        o.job.simTicks = static_cast<double>(st.execTime);
        o.job.execUs = st.execTimeUs();
        o.job.responseUs = st.meanResponseUs();
        o.engages = static_cast<double>(plane.arbiter().engages());
        o.nocPackets = static_cast<double>(st.nocPackets);
        o.traceEvents = static_cast<double>(tracer.eventCount());
        o.records = static_cast<double>(rec.totalAppended());
        sim::Fnv1a out;
        out.u64(st.completed).u64(st.execTime).u64(st.nocPackets);
        out.u64(st.responseTicks.count()).f64(st.responseTicks.mean());
        out.i64(bc.clusterCoins()).u64(plane.arbiter().engages());
        o.outcome = out.value();
        dg.u64(o.outcome).u64(tracer.eventCount()).u64(rec.totalAppended());
        o.digest = dg.value();
    }
    o.job.hostS = secondsSince(t0);
    return o;
}

RepFn
socObserved(const Options &opt)
{
    sim::Rng rng(sweep::streamSeed(opt.seed, 3));
    auto seeds = std::make_shared<std::vector<std::uint64_t>>(
        opt.jobs ? opt.jobs : kSocJobs);
    for (std::uint64_t &s : *seeds)
        s = rng();
    return [seeds](SpanLog *log) {
        RepResult r;
        const Clock::time_point t0 = Clock::now();
        std::optional<soc::SocConfig> cfg;
        std::optional<workload::Dag> dag;
        {
            Span setup(log, "bench.setup", kNoJob);
            {
                Span s(log, "soc.config", kNoJob);
                cfg.emplace(soc::make3x3AvSoc());
            }
            {
                Span s(log, "workload.dag_build", kNoJob);
                dag.emplace(soc::avDependent(*cfg, kSocFrames));
            }
            runSocJob(*cfg, *dag, seeds->front(), true, log, kNoJob);
        }
        r.setupS = secondsSince(t0);

        const Clock::time_point t1 = Clock::now();
        sim::Fnv1a dg;
        std::vector<SocOut> outs;
        for (std::size_t j = 0; j < seeds->size(); ++j) {
            spreadOverCpus(j);
            outs.push_back(runSocJob(*cfg, *dag, (*seeds)[j], true, log,
                                     static_cast<std::int64_t>(j)));
            r.jobs.push_back(outs.back().job);
            dg.u64(outs.back().digest);
        }
        r.wallS = secondsSince(t1);
        r.digest = dg.value();

        double engages = 0, packets = 0, events = 0, records = 0;
        for (const SocOut &o : outs) {
            engages += o.engages;
            packets += o.nocPackets;
            events += o.traceEvents;
            records += o.records;
        }
        r.layer["power.throttle_engages"] = engages;
        r.layer["soc.noc_packets"] = packets;
        r.layer["trace.events"] = events;
        r.layer["record.records"] = records;
        if (log) {
            // Re-run every job detached, outside the timed section:
            // the observers' in-run cost, and a check that they are
            // pure observers (identical simulated outcome).
            double delta = 0.0;
            for (std::size_t j = 0; j < seeds->size(); ++j) {
                spreadOverCpus(j); // the CPU its observed twin ran on
                const SocOut bare = runSocJob(*cfg, *dag, (*seeds)[j],
                                              false, nullptr, kNoJob);
                delta += outs[j].runS - bare.runS;
                if (bare.outcome != outs[j].outcome || !bare.job.ok)
                    r.jobs[j].ok = false;
            }
            r.layer["trace.inrun_delta_s"] = delta;
        }
        return r;
    };
}

// ---------------------------------------------------------------- //
// Reporting

/** Linear-interpolated quantile of @p v at @p q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    const char *name;
    const char *unit;
    double value;
};

/** The end-to-end metrics of untraced reps. */
std::vector<Metric>
endToEnd(const std::vector<RepResult> &reps)
{
    std::vector<double> setup, wall, jobMs, mcps;
    for (const RepResult &r : reps) {
        setup.push_back(r.setupS);
        wall.push_back(r.wallS);
        double ticks = 0.0, busy = 0.0;
        for (const JobResult &j : r.jobs) {
            jobMs.push_back(j.hostS * 1e3);
            ticks += j.simTicks;
            busy += j.hostS;
        }
        mcps.push_back(ticks * 1e-6 / busy);
    }
    // Simulated outcomes repeat exactly across reps; take the first.
    std::vector<double> resp, exec;
    for (const JobResult &j : reps.front().jobs) {
        resp.push_back(j.responseUs);
        exec.push_back(j.execUs);
    }
    return {
        {"setup_s", "s", median(setup)},
        {"wall_s", "s", median(wall)},
        {"job_p50_ms", "ms", quantile(jobMs, 0.5)},
        {"job_p90_ms", "ms", quantile(jobMs, 0.9)},
        {"sim_mcycles_per_s", "Mcycles/s", median(mcps)},
        {"peak_rss_mb", "MiB", peakRssMb()},
        {"sim_response_us_p50", "us", median(resp)},
        {"sim_exec_us", "us", median(exec)},
    };
}

/** The per-layer metrics of a traced run (per-rep means). */
std::vector<Metric>
perLayer(const std::vector<RepResult> &plain,
         const std::vector<RepResult> &traced,
         const std::vector<e2e::SpanRecord> &spans)
{
    const double n = static_cast<double>(traced.size());
    std::map<std::string, double> sum;
    std::map<std::string, double> hwm;
    for (const RepResult &r : traced)
        for (const auto &[k, v] : r.layer) {
            sum[k] += v / n;
            hwm[k] = std::max(hwm[k], v);
        }
    const auto incl = e2e::inclusiveSeconds(spans);
    const auto self = e2e::selfSecondsByLayer(spans);
    auto get = [](const std::map<std::string, double> &m,
                  const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    auto span = [&](const char *name) { return get(incl, name) / n; };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    std::vector<double> plainWall, tracedWall;
    for (const RepResult &r : plain)
        plainWall.push_back(r.wallS);
    for (const RepResult &r : traced)
        tracedWall.push_back(r.wallS);

    const double coinRun = span("coin.run");
    const double simRun = span("sim.run");
    const double shardExec = get(sum, "sim.shard_execute_s");
    const double shardBarrier = get(sum, "sim.shard_barrier_s");
    const double sweepWall = get(sum, "sweep.wall_s");
    const double sweepBusy = get(sum, "sweep.busy_s");
    const double inrun = get(sum, "trace.inrun_delta_s");
    std::vector<Metric> m = {
        {"coin.construct_s", "s", span("coin.construct")},
        {"coin.init_s", "s", span("coin.init")},
        {"coin.run_s", "s", coinRun},
        {"coin.exchanges", "count", get(sum, "coin.exchanges")},
        {"coin.packets", "count", get(sum, "coin.packets")},
        {"coin.ns_per_exchange", "ns",
         ratio(coinRun * 1e9, get(sum, "coin.exchanges"))},
        {"sweep.busy_s", "s", sweepBusy},
        {"sweep.idle_s", "s", get(sum, "sweep.idle_s")},
        {"sweep.utilization", "ratio",
         ratio(sweepBusy, get(sum, "sweep.threads") * sweepWall)},
        {"fault.construct_s", "s", span("fault.construct")},
        {"blitzcoin.provision_s", "s", span("blitzcoin.provision")},
        {"blitzcoin.retarget_s", "s", span("blitzcoin.retarget")},
        {"blitzcoin.quiesce_s", "s", span("blitzcoin.quiesce")},
        {"blitzcoin.audit_gap_coins", "count",
         get(hwm, "blitzcoin.audit_gap_coins")},
        {"sim.run_s", "s", simRun},
        {"sim.events", "count", get(sum, "sim.events")},
        {"noc.packets", "count", get(sum, "noc.packets")},
        {"sim.ns_per_event", "ns",
         ratio(simRun * 1e9, get(sum, "sim.events"))},
        {"noc.packets_per_event", "ratio",
         ratio(get(sum, "noc.packets"), get(sum, "sim.events"))},
        {"sim.queue_depth_hwm", "count", get(hwm, "sim.queue_depth_hwm")},
        {"sim.arena_hwm_bytes", "B", get(hwm, "sim.arena_hwm_bytes")},
        {"sim.shard_execute_s", "s", shardExec},
        {"sim.shard_barrier_s", "s", shardBarrier},
        {"sim.supersteps", "count", get(sum, "sim.supersteps")},
        {"sim.barrier_share", "ratio",
         ratio(shardBarrier, shardExec + shardBarrier)},
        {"workload.dag_build_s", "s", span("workload.dag_build")},
        {"soc.construct_s", "s", span("soc.construct")},
        {"power.attach_s", "s", span("power.attach")},
        {"soc.run_s", "s", span("soc.run")},
        {"power.throttle_engages", "count",
         get(sum, "power.throttle_engages")},
        {"soc.noc_packets", "count", get(sum, "soc.noc_packets")},
        {"trace.attach_s", "s", span("trace.attach")},
        {"trace.export_s", "s", span("trace.export")},
        {"record.export_s", "s", span("record.export")},
        {"trace.events", "count", get(sum, "trace.events")},
        {"record.records", "count", get(sum, "record.records")},
        {"trace.inrun_delta_s", "s", inrun},
        {"trace.ns_per_record", "ns",
         ratio(inrun * 1e9,
               get(sum, "trace.events") + get(sum, "record.records"))},
    };
    static const char *const kLayerSelf[][2] = {
        {"bench", "bench.self_s"},         {"coin", "coin.self_s"},
        {"sweep", "sweep.self_s"},         {"sim", "sim.self_s"},
        {"blitzcoin", "blitzcoin.self_s"},
        {"fault", "fault.self_s"},         {"soc", "soc.self_s"},
        {"power", "power.self_s"},         {"workload", "workload.self_s"},
        {"trace", "trace.self_s"},         {"record", "record.self_s"},
    };
    for (const auto &[layer, name] : kLayerSelf)
        m.push_back({name, "s", get(self, layer) / n});
    const double pw = median(plainWall), tw = median(tracedWall);
    m.push_back({"bench.untraced_wall_s", "s", pw});
    m.push_back({"bench.traced_wall_s", "s", tw});
    m.push_back({"bench.trace_overhead_s", "s", tw - pw});
    return m;
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, v, metrics[i].unit);
    }
    std::printf("}}\n");
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2e_bench: %s\n"
                 "usage: e2e_bench --workload "
                 "mc_trials|mesh_response|mesh_sharded|soc_observed\n"
                 "                 --seed N --seconds S --trace 0|1\n"
                 "                 [--jobs N] [--threads N] [--shards N]\n"
                 "                 [--mesh D] [--spans PATH]\n",
                 msg);
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        std::uint64_t u = 0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--spans") {
            opt.spansPath = v;
        } else if (!parseUnsigned(v, u)) {
            return usage(("bad value for " + a).c_str());
        } else if (a == "--seed") {
            opt.seed = u;
        } else if (a == "--seconds") {
            if (u < 1 || u > 120)
                return usage("--seconds must be 1..120");
            opt.seconds = static_cast<double>(u);
        } else if (a == "--trace") {
            if (u > 1)
                return usage("--trace must be 0 or 1");
            opt.trace = u == 1;
        } else if (a == "--jobs") {
            opt.jobs = u;
        } else if (a == "--threads") {
            if (u < 1 || u > 64)
                return usage("--threads must be 1..64");
            opt.threads = u;
        } else if (a == "--shards") {
            if (u < 1 || u > 64)
                return usage("--shards must be 1..64");
            opt.shards = static_cast<std::uint32_t>(u);
        } else if (a == "--mesh") {
            if (u < 8 || u > 256 || u % 4)
                return usage("--mesh must be a multiple of 4 in 8..256");
            opt.mesh = static_cast<int>(u);
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }

    RepFn rep;
    if (opt.workload == "mc_trials")
        rep = mcTrials(opt);
    else if (opt.workload == "mesh_response")
        rep = meshWorkload(opt, 0);
    else if (opt.workload == "mesh_sharded")
        rep = meshWorkload(opt, opt.shards);
    else if (opt.workload == "soc_observed")
        rep = socObserved(opt);
    else
        return usage("unknown --workload");

    SpanLog log;
    std::vector<RepResult> plain, traced;
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::optional<std::uint64_t> digest;
    auto account = [&](const RepResult &r) {
        if (!digest)
            digest = r.digest;
        const bool same = *digest == r.digest;
        for (const JobResult &j : r.jobs) {
            ++attempted;
            if (!j.ok || !r.closeOk || !same)
                ++failed;
        }
        correct = correct && same && r.closeOk;
    };
    const Clock::time_point start = Clock::now();
    try {
        do {
            plain.push_back(rep(nullptr));
            account(plain.back());
            if (opt.trace) {
                traced.push_back(rep(&log));
                account(traced.back());
            }
        } while (secondsSince(start) < opt.seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
    correct = correct && failed == 0 && attempted > 0;

    std::printf("workload %s seed %llu: %zu reps, %llu jobs attempted, "
                "%llu failed (jobs_failed_ratio %.6g), digest %016llx\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                plain.size() + traced.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                static_cast<unsigned long long>(digest.value_or(0)));
    std::vector<Metric> metrics;
    if (opt.trace) {
        const auto spans = log.spans();
        metrics = perLayer(plain, traced, spans);
        if (!opt.spansPath.empty() &&
            !e2e::writeChromeJson(spans, opt.spansPath))
            std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                         opt.spansPath.c_str());
    } else {
        metrics = endToEnd(plain);
        std::size_t jobs = 0;
        for (const RepResult &r : plain)
            jobs += r.jobs.size();
        std::printf("job percentiles over %zu job samples, setup_s and "
                    "wall_s medians over %zu reps\n",
                    jobs, plain.size());
    }
    for (const Metric &m : metrics)
        std::printf("  %-26s %16.6f %s\n", m.name, m.value, m.unit);
    printJson(correct, attempted, failed, metrics);
    return 0;
}
