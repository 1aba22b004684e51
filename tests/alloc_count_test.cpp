/**
 * @file
 * Steady-state allocation audit for the event kernel, the NoC and the
 * BlitzCoin serve path.
 *
 * The fast-path rewrite's zero-allocation claim, made checkable: this
 * binary replaces the global allocation functions with counting
 * wrappers, warms a workload until every pool (event slab, heap
 * array, packet-event free list) has reached its high-water mark, and
 * then asserts that continuing the same workload performs *zero*
 * further heap allocations.
 *
 * The observability exports are held to the same bar: writing a
 * populated tracer, registry or health report into a stream allocates
 * nothing, so the writers add no malloc to the FlushGuard's
 * signal-time flush.
 *
 * Every replaceable variant is intercepted — including the
 * std::align_val_t forms, which the event slab uses for its node
 * chunks — so a regression cannot hide behind an aligned or nothrow
 * overload.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>
#include <vector>

#include <gtest/gtest.h>

#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "noc/network.hpp"
#include "power/rail.hpp"
#include "power/thermal.hpp"
#include "record/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard.hpp"
#include "soc/throttler.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/noc_trace.hpp"
#include "trace/prof.hpp"
#include "trace/tracer.hpp"

namespace {

std::atomic<std::uint64_t> gAllocCount{0};

void *
countedAlloc(std::size_t bytes)
{
    ++gAllocCount;
    void *p = std::malloc(bytes ? bytes : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t bytes, std::size_t align)
{
    ++gAllocCount;
    // C11 aligned_alloc wants the size rounded to the alignment.
    const std::size_t padded = (bytes + align - 1) / align * align;
    void *p = std::aligned_alloc(align, padded ? padded : align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++gAllocCount;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++gAllocCount;
    return std::malloc(n ? n : 1);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace blitz;

/** Self-rescheduling timer: the kernel's steady-state inner loop. */
struct Timer
{
    sim::EventQueue *eq;
    sim::Tick period;
    void operator()() const { eq->scheduleIn(period, *this); }
};

TEST(AllocCount, EventKernelSteadyStateIsAllocationFree)
{
    sim::EventQueue eq;
    for (int i = 0; i < 96; ++i)
        eq.schedule(1 + i % 5, Timer{&eq, 2 + i % 7});
    // Warmup: slab chunks, heap array, and free lists reach their
    // high-water marks.
    eq.runUntil(4096);

    const std::uint64_t before = gAllocCount.load();
    eq.runUntil(65536);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state event scheduling allocated";
}

/**
 * Re-aim churn, the way accelerator tiles move their completion event
 * on every frequency step: each firing cancels one tile's pending
 * completion and schedules its replacement — mostly far past the
 * wheel window (erased from the far-heap), sometimes inside it (a
 * tombstone the drain discards) — then re-arms itself.
 */
struct Reaimer
{
    sim::EventQueue *eq;
    sim::EventQueue::EventId *ids;
    std::uint32_t tiles;
    std::uint32_t state;

    void
    operator()()
    {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        sim::EventQueue::EventId &id = ids[state % tiles];
        eq->cancel(id);
        const sim::Tick delta =
            state % 8 ? 5000 + state % 400000 : 1 + state % 3000;
        id = eq->scheduleIn(delta, [] {});
        eq->scheduleIn(3, *this);
    }
};

TEST(AllocCount, ReaimChurnSteadyStateIsAllocationFree)
{
    constexpr std::uint32_t kTiles = 64;
    sim::EventQueue eq;
    std::vector<sim::EventQueue::EventId> ids(kTiles, 0);
    for (std::uint32_t i = 0; i < 4; ++i)
        eq.schedule(i, Reaimer{&eq, ids.data(), kTiles, 2463534242u + i});
    // Warmup: the slab, the bucket pool and the far-heap array reach
    // their high-water marks over more than one far-horizon span.
    eq.runUntil(500'000);

    const std::uint64_t before = gAllocCount.load();
    eq.runUntil(1'500'000);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state completion re-aiming allocated";
}

/** Self-rescheduling sender: sustained cross-mesh traffic. */
struct Sender
{
    noc::Network *net;
    sim::EventQueue *eq;
    std::uint32_t state;
    noc::NodeId src;

    void
    operator()()
    {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        noc::Packet p;
        p.src = src;
        p.dst = static_cast<noc::NodeId>(
            state % net->topology().size());
        p.type = noc::MsgType::Generic;
        net->send(p);
        eq->scheduleIn(32, *this);
    }
};

TEST(AllocCount, NocSteadyStateIsAllocationFree)
{
    sim::EventQueue eq;
    noc::Topology topo(6, 6, false);
    noc::Network net(eq, topo);
    std::uint64_t sunk = 0;
    for (noc::NodeId id = 0; id < topo.size(); ++id)
        net.setHandler(id,
                       [&sunk](const noc::Packet &) { ++sunk; });
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        Sender s{&net, &eq, 0x9e3779b9u + id, id};
        eq.schedule(1 + id % 29, s);
    }
    eq.runUntil(16384);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t deliveredBefore = net.packetsDelivered();
    eq.runUntil(131072);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state NoC traffic allocated";
    // The audit must cover real traffic, not an idle queue.
    EXPECT_GT(net.packetsDelivered() - deliveredBefore, 50'000u);
    EXPECT_GT(sunk, 0u);
}

TEST(AllocCount, MegaMeshNocSteadyStateIsAllocationFree)
{
    // 100x100 (10,000 node) mesh: the mega-mesh hot path — batched
    // same-tick delivery, the tick-wheel bucket sort, and the packet
    // pool — must hold the zero-allocation property at four orders of
    // magnitude more nodes than the 6x6 audit above, where any
    // per-node or per-hop hidden allocation would be amplified 10^4x.
    sim::EventQueue eq;
    noc::Topology topo(100, 100, false);
    noc::Network net(eq, topo);
    std::uint64_t sunk = 0;
    for (noc::NodeId id = 0; id < topo.size(); ++id)
        net.setHandler(id,
                       [&sunk](const noc::Packet &) { ++sunk; });
    // One sender per 16th node keeps runtime modest while still
    // keeping thousands of packets in flight across long routes.
    for (noc::NodeId id = 0; id < topo.size(); id += 16) {
        Sender s{&net, &eq, 0x9e3779b9u + id, id};
        eq.schedule(1 + id % 29, s);
    }
    eq.runUntil(8192);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t deliveredBefore = net.packetsDelivered();
    eq.runUntil(32768);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "mega-mesh steady-state NoC traffic allocated";
    EXPECT_GT(net.packetsDelivered() - deliveredBefore, 100'000u);
    EXPECT_GT(sunk, 0u);
}

TEST(AllocCount, ShardedNocSteadyStateIsAllocationFree)
{
    // The sharded kernel must keep the zero-allocation property: leaf
    // slabs/heaps, per-shard packet pools, and the cross-shard
    // mailboxes all reach a high-water mark during warmup, after
    // which supersteps, boundary handoffs, and barrier crossings
    // allocate nothing. Workers are real threads here, so this also
    // covers the condvar barrier path.
    sim::EventQueue eq;
    sim::ShardGroup group(eq, 4, sim::columnBands(6, 6, 4));
    noc::Topology topo(6, 6, false);
    noc::Network net(eq, topo);
    net.enableSharding(group);
    // Per-node sinks: deliveries execute at their destination's locus,
    // so each element has exactly one writing shard.
    std::vector<std::uint64_t> sunk(topo.size(), 0);
    std::uint64_t *sp = sunk.data();
    for (noc::NodeId id = 0; id < topo.size(); ++id)
        net.setHandler(id, [sp, id](const noc::Packet &) {
            ++sp[id];
        });
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        Sender s{&net, &eq, 0x9e3779b9u + id, id};
        // scheduleAtNode pins each sender to its own shard; its
        // self-rescheduling then stays there.
        eq.scheduleAtNode(id, 1 + id % 29, s);
    }
    eq.runUntil(16384);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t deliveredBefore = net.packetsDelivered();
    eq.runUntil(131072);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state sharded NoC traffic allocated";
    EXPECT_GT(net.packetsDelivered() - deliveredBefore, 50'000u);
    EXPECT_GT(group.crossEvents(), 0u) << "no boundary traffic";
    std::uint64_t total = 0;
    for (std::uint64_t s : sunk)
        total += s;
    EXPECT_GT(total, 0u);
}

TEST(AllocCount, ProfiledShardedNocSteadyStateIsAllocationFree)
{
    // The introspection plane must not cost the kernel its
    // zero-allocation property: with the superstep profiler attached
    // (per-phase clocks, mailbox matrix, *and* periodic sample rows —
    // whose buffer compacts in place when full) the same sharded
    // steady state performs zero further heap allocations. The probe's
    // slots are sized at attach(), before warmup.
    sim::EventQueue eq;
    sim::ShardGroup group(eq, 4, sim::columnBands(6, 6, 4));
    noc::Topology topo(6, 6, false);
    noc::Network net(eq, topo);
    net.enableSharding(group);
    std::vector<std::uint64_t> sunk(topo.size(), 0);
    std::uint64_t *sp = sunk.data();
    for (noc::NodeId id = 0; id < topo.size(); ++id)
        net.setHandler(id, [sp, id](const noc::Packet &) {
            ++sp[id];
        });
    trace::SuperstepProfiler::Options popts;
    popts.sampleStride = 4; // small stride: force in-place compaction
    popts.maxSamples = 64;
    trace::SuperstepProfiler prof(popts);
    prof.attach(group);
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        Sender s{&net, &eq, 0x9e3779b9u + id, id};
        eq.scheduleAtNode(id, 1 + id % 29, s);
    }
    eq.runUntil(16384);

    const std::uint64_t before = gAllocCount.load();
    eq.runUntil(131072);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "profiled steady-state sharded NoC traffic allocated";
    // Non-vacuity: the probe really measured barriers and compacted
    // its sample buffer inside the audited window.
    EXPECT_GT(prof.probe().supersteps, 0u);
    EXPECT_GT(prof.probe().barriers, 0u);
    EXPECT_GT(prof.probe().rows, 0u);
    EXPECT_GT(prof.probe().stride, 4u)
        << "sample compaction never ran inside the audit";
    EXPECT_GE(prof.imbalance(), 1.0);
}

TEST(AllocCount, PhysicsHotPathSteadyStateIsAllocationFree)
{
    // The physics plane runs inside the event kernel at the sampler
    // cadence, so its whole per-step path — RC integration with
    // couplings, rail current reconstruction with the hysteresis
    // latch, and arbiter engage/release churn — must be heap-free
    // after construction. The square-wave power drive cycles both the
    // thermal trip band and the rail latch so the audit covers the
    // mutation paths, not just the quiescent reads.
    constexpr std::size_t kTiles = 36;
    power::ThermalConfig tc;
    tc.node.cJPerC = 1e-6; // tau = 300 us: trips cycle inside the run
    power::ThermalModel thermal(kTiles, tc);
    for (std::uint32_t i = 0; i + 1 < kTiles; ++i)
        thermal.addCoupling(i, i + 1, 1e-3);
    power::RailSet rails(kTiles);
    power::RailConfig rc;
    rc.limitMa = 900.0; // between the low- and high-phase draw
    rails.addRail(rc);
    for (std::uint32_t t = 0; t < kTiles; ++t)
        rails.assignTile(0, t);
    soc::ThrottleArbiter arb(kTiles);

    double powerMw[kTiles];
    auto drive = [&](std::uint64_t steps, std::uint64_t phase0) {
        for (std::uint64_t s = 0; s < steps; ++s) {
            // 128 us half-period: long enough to heat through the
            // 48 C trip and cool back under 47.5 C each cycle.
            const bool hot = ((phase0 + s) / 256) % 2 == 0;
            for (std::size_t t = 0; t < kTiles; ++t)
                powerMw[t] = hot ? 40.0 : 5.0;
            thermal.step(500.0, powerMw);
            rails.update(powerMw);
            for (std::size_t t = 0; t < kTiles; ++t) {
                if (thermal.temperatureC(t) >= 48.0)
                    arb.set(t, soc::ThrottleSource::Thermal, 400.0);
                else if (thermal.temperatureC(t) <= 47.5)
                    arb.clear(t, soc::ThrottleSource::Thermal);
            }
            if (rails.edge(0) == power::RailEdge::Engaged) {
                for (std::size_t t = 0; t < kTiles; ++t)
                    arb.set(t, soc::ThrottleSource::Rail, 300.0);
            } else if (rails.edge(0) == power::RailEdge::Released) {
                for (std::size_t t = 0; t < kTiles; ++t)
                    arb.clear(t, soc::ThrottleSource::Rail);
            }
        }
    };
    drive(4096, 0);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t engagesBefore = arb.engages();
    drive(65536, 4096);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "physics hot path allocated in steady state";
    // The audit must have exercised real limiter churn, not idle math.
    EXPECT_GT(arb.engages() - engagesBefore, 0u);
    EXPECT_GT(rails.engageCount(0), 0u);
    EXPECT_GT(arb.releases(), 0u);
}

TEST(AllocCount, RingRecorderSteadyStateIsAllocationFree)
{
    // In ring mode the recorder recycles whole chunks once maxChunks
    // are live, so after one full lap around the ring the append path
    // must never touch the heap again — the property that makes
    // always-on black-box recording safe inside the event kernel.
    blitz::record::RecorderConfig cfg;
    cfg.chunkRecords = 64;
    cfg.maxChunks = 4;
    blitz::record::FlightRecorder rec(cfg);

    blitz::record::Record r{};
    r.kind = blitz::record::RecordKind::Transfer;
    // Warmup: allocate every chunk and enter recycling.
    for (std::uint64_t i = 0; i < cfg.chunkRecords * cfg.maxChunks + 1;
         ++i) {
        r.tick = i;
        rec.append(r);
    }
    ASSERT_GT(rec.droppedOldest(), 0u) << "ring never wrapped";

    const std::uint64_t before = gAllocCount.load();
    for (std::uint64_t i = 0; i < 100'000; ++i) {
        r.tick = i;
        rec.append(r);
    }
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "ring-mode recording allocated in steady state";
    // The window is between maxChunks-1 full chunks plus one record
    // and maxChunks full chunks, depending on ring position.
    EXPECT_LE(rec.size(), cfg.chunkRecords * cfg.maxChunks);
    EXPECT_GT(rec.size(), cfg.chunkRecords * (cfg.maxChunks - 1));
}

TEST(AllocCount, MeshSimRunLoopIsAllocationFree)
{
    // The behavioral engine's firing schedule is an indexed heap with
    // one entry per tile, sized at construction: re-keying a tile —
    // after an exchange or an activity change — never grows it, so
    // the 1-way run loop (heap, partner selection, pairwise exchange,
    // error bookkeeping) and re-targeting between runs must not touch
    // the heap allocator at all, from the very first firing.
    blitz::coin::EngineConfig cfg;
    blitz::coin::MeshSim sim(blitz::noc::Topology::square(12), cfg, 3);
    auto target = [](std::size_t i, std::size_t phase) {
        return ((i + phase) % 4 == 3)
                   ? blitz::coin::Coins{0}
                   : static_cast<blitz::coin::Coins>(8 + 4 * (i % 3));
    };
    blitz::coin::Coins demand = 0;
    for (std::size_t i = 0; i < sim.ledger().size(); ++i) {
        sim.setMax(i, target(i, 0));
        demand += target(i, 0);
    }
    sim.clusterHas(demand / 2);

    const std::uint64_t before = gAllocCount.load();
    for (std::size_t phase = 0; phase < 4; ++phase) {
        // A demand change re-targets every tile, then the mesh settles.
        for (std::size_t i = 0; phase > 0 && i < sim.ledger().size(); ++i)
            sim.setMax(i, target(i, phase));
        const auto conv =
            sim.runUntilConverged(0.5, sim.now() + 2'000'000);
        EXPECT_TRUE(conv.converged) << "phase " << phase;
        sim.runFor(20'000);
    }
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "MeshSim's run loop or re-targeting allocated";
    EXPECT_GT(sim.totalExchanges(), 1000u);
}

TEST(AllocCount, BlitzCoinServePathSteadyStateIsAllocationFree)
{
    // Partner side of the 1-way protocol: every served CoinStatus
    // scans the initiator's served-exchange log and logs its outcome.
    // Once every initiator has been served at least once (the LFSR far
    // rotation reaches every tile well inside the warmup), logging a
    // new outcome overwrites the oldest in place, so serving — like
    // initiating, the timeout timer and the NoC hops beneath them —
    // must never touch the heap.
    fault::ChaosConfig cc;
    cc.width = 6;
    cc.height = 6;
    fault::ChaosCluster c(cc);
    for (std::size_t i = 0; i < c.size(); ++i) {
        c.setMax(i, i % 4 == 3
                        ? 0
                        : static_cast<coin::Coins>(8 + 4 * (i % 3)));
        c.setHas(i, 6);
    }
    c.sealProvision();
    c.startAll();
    c.eq().runUntil(4'000'000);

    auto served = [&c] {
        // No faults: every initiated exchange is served exactly once.
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < c.size(); ++i)
            n += c.unit(i).exchangesInitiated();
        return n;
    };
    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t servedBefore = served();
    c.eq().runUntil(8'000'000);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state BlitzCoin serving allocated";
    // The audited window really serves: ~70k exchanges at this seed.
    EXPECT_GT(served() - servedBefore, 35'000u);
    EXPECT_EQ(c.totalCoins(), 36 * 6);
}

/** Stream buffer that counts and discards every byte. */
class DiscardBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        ++bytes;
        return traits_type::not_eof(c);
    }
};

TEST(AllocCount, TraceExportIntoDiscardingStreamIsAllocationFree)
{
    // Export writers format into a stack buffer and hand the stream
    // whole chunks; the registry exports its live series in place.
    trace::Tracer tracer;
    auto track = tracer.counterTrack("prof", "prof/shard0.exec_ms", 0);
    trace::Registry reg;
    trace::Counter hits = reg.counter("hits");
    reg.sampled("ratio", [&hits] {
        return static_cast<double>(hits.value()) / 3.0;
    });
    sim::Histogram *lat = reg.histogram("lat \"q\"", 0.0, 1.0, 16);
    trace::NocTrace probe(reg, /*linkCount=*/8, /*hopLatency=*/2);
    for (std::uint32_t i = 0; i < 2'000; ++i) {
        tracer.complete("coin", "exchange", i % 9, 800 * i, 800 * i + 77,
                        {{"xid", std::int64_t{i}}, {"outcome", "o\\k"}});
        tracer.instant("fault", "inject_drop", i % 9, 800 * i + 5);
        tracer.counter("pm", "power_mw", 0, 800 * i, 0.1 * i);
        tracer.counterSample(track, 800 * i, i / 7.0);
        hits.add(i);
        lat->add(0.0007 * i);
        probe.onHop(i % 8, 10 * i);
        if (i % 10 == 0)
            reg.sample(800 * i);
    }
    trace::HealthReport health;
    health.setRun("alloc \"audit\"");
    health.setDet("coin.gap", 0.0);
    health.bumpDet("fault.drops", 1234.0);
    health.maxDet("physics.peak_c", 51.234567890123);
    health.setWall("phase.run_ns", 1.5e9 / 7.0);

    DiscardBuf sink;
    std::ostream os(&sink);
    const std::uint64_t before = gAllocCount.load();
    tracer.writeJson(os);
    reg.writeCsv(os);
    reg.writeJson(os);
    health.writeJson(os);
    probe.writeLinkCsv(os, /*elapsed=*/1'600'000);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "an observability export allocated";
    EXPECT_TRUE(os.good());
    EXPECT_GT(sink.bytes, 500'000u) << "the exports wrote too little";
}

} // namespace
