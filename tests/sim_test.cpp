/**
 * @file
 * Unit tests for the simulation kernel: event queue, RNG, statistics,
 * logging, and time conversions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "sim/digest.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace {

using namespace blitz;

// -------------------------------------------------------------- digest

/** The textbook FNV-1a fold of @p v's eight bytes, low byte first. */
std::uint64_t
bytewiseFnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Fnv1a, MatchesBytewiseReference)
{
    // 0, all-ones, every count of high zero bytes (with and without a
    // zero byte below the top live one), negatives, and random words
    // of random width, each checked from a fresh and a running state.
    std::vector<std::uint64_t> words{0, ~std::uint64_t{0}};
    for (int live = 1; live <= 8; ++live) {
        const std::uint64_t top = std::uint64_t{0x80} << (8 * (live - 1));
        words.push_back(top);
        words.push_back(top | 1);
        words.push_back(top - 1 + top);
    }
    for (std::int64_t v : {-1LL, -2LL, -255LL, -256LL, -65536LL,
                           static_cast<long long>(INT64_MIN)})
        words.push_back(static_cast<std::uint64_t>(v));
    sim::Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const auto width = static_cast<unsigned>(rng.below(65));
        const std::uint64_t r = rng();
        words.push_back(width == 64 ? r
                                    : r & ((std::uint64_t{1} << width) - 1));
    }
    std::uint64_t ref = 0xcbf29ce484222325ull;
    sim::Fnv1a d;
    for (std::uint64_t w : words) {
        sim::Fnv1a fresh;
        ASSERT_EQ(fresh.u64(w).value(),
                  bytewiseFnv(0xcbf29ce484222325ull, w))
            << std::hex << w;
        ref = bytewiseFnv(ref, w);
        ASSERT_EQ(d.u64(w).value(), ref) << std::hex << w;
    }
    EXPECT_EQ(sim::Fnv1a{}.i64(-3).value(),
              bytewiseFnv(0xcbf29ce484222325ull,
                          static_cast<std::uint64_t>(std::int64_t{-3})));
}

// ---------------------------------------------------------------- time

TEST(Types, TickNanosecondRoundTrip)
{
    EXPECT_DOUBLE_EQ(sim::ticksToNs(1), 1.25);
    EXPECT_DOUBLE_EQ(sim::ticksToNs(800), 1000.0);
    EXPECT_EQ(sim::nsToTicks(1000.0), 800u);
    EXPECT_EQ(sim::usToTicks(1.0), 800u);
    EXPECT_EQ(sim::msToTicks(1.0), 800000u);
}

TEST(Types, NsToTicksRoundsUp)
{
    // 1 ns is less than a cycle; it must not round down to zero.
    EXPECT_EQ(sim::nsToTicks(1.0), 1u);
    EXPECT_EQ(sim::nsToTicks(1.25), 1u);
    EXPECT_EQ(sim::nsToTicks(1.26), 2u);
}

TEST(Types, TicksToUsScales)
{
    EXPECT_DOUBLE_EQ(sim::ticksToUs(800), 1.0);
    EXPECT_DOUBLE_EQ(sim::ticksToMs(800000), 1.0);
}

// --------------------------------------------------------------- events

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickPriorityOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); },
                sim::Priority::Controller);
    eq.schedule(5, [&] { order.push_back(1); },
                sim::Priority::NocTransfer);
    eq.schedule(5, [&] { order.push_back(3); }, sim::Priority::Stats);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickSamePriorityFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.runUntil();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent)
{
    sim::EventQueue eq;
    bool ran = false;
    auto id = eq.schedule(10, [&] { ran = true; });
    eq.cancel(id);
    eq.runUntil();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIdIsNoOp)
{
    sim::EventQueue eq;
    eq.cancel(12345);
    bool ran = false;
    eq.schedule(1, [&] { ran = true; });
    eq.runUntil();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilHonorsLimit)
{
    sim::EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilAdvancesNowToLimit)
{
    sim::EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    sim::EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    eq.runUntil();
    EXPECT_THROW(eq.schedule(50, [] {}), sim::PanicError);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    sim::EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

// Regression: a cancelled event at the front of the queue must not
// unlock execution of a later event beyond the runUntil horizon.
TEST(EventQueue, CancelledFrontDoesNotBreachHorizon)
{
    sim::EventQueue eq;
    bool late_ran = false;
    auto id = eq.schedule(10, [] {});
    eq.schedule(30, [&] { late_ran = true; });
    eq.cancel(id);
    EXPECT_EQ(eq.runUntil(20), 0u);
    EXPECT_FALSE(late_ran) << "event fired past the requested horizon";
    EXPECT_EQ(eq.now(), 20u);
    // The late event is still intact and fires on the next window.
    EXPECT_EQ(eq.runUntil(40), 1u);
    EXPECT_TRUE(late_ran);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, NoEventExecutesPastLimit)
{
    sim::EventQueue eq;
    std::vector<sim::Tick> fired;
    std::vector<sim::EventQueue::EventId> ids;
    for (sim::Tick t = 5; t <= 50; t += 5)
        ids.push_back(eq.schedule(t, [&fired, &eq] {
            fired.push_back(eq.now());
        }));
    // Cancel a scattering of them, including ones at the boundary.
    eq.cancel(ids[0]); // t=5
    eq.cancel(ids[3]); // t=20
    eq.cancel(ids[4]); // t=25
    eq.runUntil(25);
    for (sim::Tick t : fired)
        EXPECT_LE(t, 25u);
    EXPECT_EQ(fired, (std::vector<sim::Tick>{10, 15}));
}

// Regression: the executed count must track callbacks actually run,
// with cancelled entries neither counted nor miscounted.
TEST(EventQueue, RunUntilCountsOnlyExecutedCallbacks)
{
    sim::EventQueue eq;
    int ran = 0;
    auto a = eq.schedule(5, [&] { ++ran; });
    auto b = eq.schedule(5, [&] { ++ran; });
    eq.schedule(8, [&] { ++ran; });
    auto d = eq.schedule(9, [&] { ++ran; });
    eq.schedule(25, [&] { ++ran; });
    eq.cancel(a);
    eq.cancel(b);
    eq.cancel(d);
    EXPECT_EQ(eq.runUntil(10), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, RunUntilOnAllCancelledQueueExecutesNothing)
{
    sim::EventQueue eq;
    int ran = 0;
    auto a = eq.schedule(3, [&] { ++ran; });
    auto b = eq.schedule(7, [&] { ++ran; });
    eq.cancel(a);
    eq.cancel(b);
    EXPECT_EQ(eq.runUntil(10), 0u);
    EXPECT_EQ(ran, 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, RunOneHonorsHorizon)
{
    sim::EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&] { ran = true; });
    EXPECT_FALSE(eq.runOne(5));
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne(10));
    EXPECT_TRUE(ran);
}

// Cancellation tokens must not accumulate for ids that already
// executed (or never existed) — the token set stays bounded by the
// queue contents across arbitrarily long runs.
TEST(EventQueue, CancelTokensArePurged)
{
    sim::EventQueue eq;
    auto id = eq.schedule(1, [] {});
    eq.cancel(id);
    EXPECT_EQ(eq.cancelledTokens(), 1u);
    eq.cancel(id); // double-cancel folds into the same token
    EXPECT_EQ(eq.cancelledTokens(), 1u);
    eq.runUntil(5);
    EXPECT_EQ(eq.cancelledTokens(), 0u);

    auto id2 = eq.schedule(10, [] {});
    eq.runUntil(20);
    eq.cancel(id2); // already executed: must not leave a token
    eq.cancel(987654321); // unknown id: must not leave a token
    EXPECT_EQ(eq.cancelledTokens(), 0u);

    for (int round = 0; round < 100; ++round) {
        auto e = eq.scheduleIn(1, [] {});
        eq.runUntil(eq.now() + 2);
        eq.cancel(e); // always post-execution
    }
    EXPECT_EQ(eq.cancelledTokens(), 0u);
}

TEST(EventQueue, PendingCountsScheduled)
{
    sim::EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.runUntil();
    EXPECT_EQ(eq.pending(), 0u);
}

// FIFO ordering of same-tick, same-priority events is part of the
// determinism contract: every NoC delivery and controller tick relies
// on insertion order as the final tie-break, so any queue
// implementation (binary heap, d-ary heap, slab-indexed) must keep it.
TEST(EventQueue, SameTickFifoSurvivesCancellation)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); });
    auto b = eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.cancel(b);
    // Events scheduled after a same-tick cancellation must land after
    // the surviving earlier insertions.
    eq.schedule(10, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(4); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4}));
}

TEST(EventQueue, CancelThenRescheduleAtSameTickKeepsFifo)
{
    // Cancel-then-reschedule from inside a callback running at that
    // very tick: the replacement goes to the back of the tick's queue.
    sim::EventQueue eq;
    std::vector<int> order;
    sim::EventQueue::EventId victim = 0;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.cancel(victim);
        eq.schedule(5, [&] { order.push_back(3); });
    });
    victim = eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

TEST(EventQueue, InterleavedTicksKeepPerTickFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    const sim::Tick ticks[] = {30, 10, 20, 10, 30, 20, 10};
    int tag = 0;
    for (sim::Tick t : ticks) {
        eq.schedule(t, [&order, tag] { order.push_back(tag); });
        ++tag;
    }
    eq.runUntil();
    // Per tick, insertion order; ticks ascend: 10:{1,3,6} 20:{2,5}
    // 30:{0,4}.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 6, 2, 5, 0, 4}));
}

TEST(EventQueue, PriorityBreaksTiesBeforeFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); }, sim::Priority::Stats);
    eq.schedule(10, [&] { order.push_back(1); },
                sim::Priority::NocTransfer);
    eq.schedule(10, [&] { order.push_back(2); }, sim::Priority::Default);
    eq.schedule(10, [&] { order.push_back(3); },
                sim::Priority::NocTransfer);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0}));
}

// --------------------------------------------------------- drain order

constexpr sim::Priority kPrios[] = {
    sim::Priority::NocTransfer, sim::Priority::Default,
    sim::Priority::Controller, sim::Priority::Stats};

/** A random priority no earlier than @p floor (0..3). */
int
prioAtLeast(sim::Rng &rng, int floor)
{
    return floor + static_cast<int>(rng.below(4 - floor));
}

/**
 * Randomized plain-queue schedule: bursts of same-tick events in all
 * four priority classes (unsorted buckets the drain partitions by
 * class), far-future events that migrate into buckets already holding
 * later-scheduled entries (a class out of order in itself), same-tick
 * splices from running callbacks, cancellations of pending events
 * wherever they wait (far-heap, wheel bucket, live batch), re-aims
 * (cancel plus a replacement elsewhere), and stop requests the drain
 * must honor on the exact event. Every schedule() call is logged in
 * call order, so a stable sort of the live log by (when, prio) is the
 * (when, prio, seq) reference order. Same-tick splices use a priority
 * no earlier than the running event's, so execution never has to go
 * back in key order.
 */
struct PlainDrainModel
{
    struct Sched
    {
        sim::Tick when;
        int prio;
        sim::EventQueue::EventId id;
        bool ran = false;
        bool cancelled = false;
    };

    sim::EventQueue eq;
    sim::Rng rng{20240611};
    std::vector<Sched> sched;
    std::vector<std::size_t> ran;
    std::size_t budget = 6000;
    /// Cancels by where the event waited: far-heap, wheel, live batch.
    std::size_t farCancels = 0, wheelCancels = 0, batchCancels = 0;
    std::size_t reaims = 0;
    /// Outstanding stop request: its tick and ran.size() when made.
    sim::Tick stopTick = sim::maxTick;
    std::size_t stopFrom = 0;
    std::size_t stopsHonored = 0;

    /** A random tick for a new event scheduled at @p now. */
    sim::Tick
    pick(sim::Tick now)
    {
        switch (rng.below(4)) {
          case 0: // same tick: a splice into the live batch
            return now;
          case 1: // far-heap, migrates back later
            return now + 4096 + rng.below(8192);
          default: // a near bucket
            return now + 1 + rng.below(24);
        }
    }

    /** Cancel pending event @p v, classifying where it waited. */
    void
    cancel(Sched &v)
    {
        const std::size_t before = eq.pending();
        eq.cancel(v.id);
        v.cancelled = true;
        if (eq.pending() < before)
            ++farCancels; // erased from the far-heap on the spot
        else if (v.when == eq.now())
            ++batchCancels;
        else
            ++wheelCancels;
    }

    /**
     * After runUntil(@p limit) returned: an honored stop request must
     * have ended the drain on the first event at or past its tick,
     * with now() left there; otherwise the drain ran to the limit.
     * Returns true when a stop ended it.
     */
    bool
    checkReturn(sim::Tick limit)
    {
        const bool honored = stopTick != sim::maxTick &&
                             ran.size() > stopFrom &&
                             sched[ran.back()].when >= stopTick;
        if (!honored) {
            if (!eq.empty())
                EXPECT_EQ(eq.now(), limit);
            return false;
        }
        for (std::size_t i = stopFrom; i + 1 < ran.size(); ++i)
            EXPECT_LT(sched[ran[i]].when, stopTick) << "stop overshot";
        EXPECT_EQ(eq.now(), sched[ran.back()].when);
        stopTick = sim::maxTick;
        ++stopsHonored;
        return true;
    }

    void
    add(sim::Tick when, int prio)
    {
        const std::size_t idx = sched.size();
        const auto id = eq.schedule(
            when, [this, idx] { run(idx); }, kPrios[prio]);
        sched.push_back({when, prio, id});
    }

    void
    run(std::size_t idx)
    {
        sched[idx].ran = true;
        ran.push_back(idx);
        const sim::Tick now = eq.now();
        const int prio = sched[idx].prio;
        for (int k = static_cast<int>(rng.below(3)); k > 0 && budget;
             --k, --budget) {
            const sim::Tick when = pick(now);
            add(when, prioAtLeast(rng, when == now ? prio : 0));
        }
        if (rng.chance(0.1)) {
            // Cancel a random event that has not run yet (a no-op on
            // the queue if it already has, so the model skips those).
            Sched &v = sched[rng.below(sched.size())];
            if (!v.ran && !v.cancelled)
                cancel(v);
        }
        if (rng.chance(0.1) && budget) {
            // Re-aim a recent event, the way a tile moves its pending
            // completion: cancel it and schedule its replacement.
            const std::size_t back = std::min<std::size_t>(sched.size(), 64);
            Sched &v = sched[sched.size() - 1 - rng.below(back)];
            if (!v.ran && !v.cancelled) {
                cancel(v);
                const sim::Tick when = pick(now);
                add(when, when == now ? std::max(v.prio, prio) : v.prio);
                --budget;
                ++reaims;
            }
        }
        if (rng.chance(0.01) && budget) {
            // Ask the drain to return at this event or a later tick.
            stopTick = rng.chance(0.5) ? now : now + rng.below(200);
            stopFrom = ran.size() - 1;
            eq.stopAfter(stopTick);
        }
    }
};

TEST(DrainOrder, RandomizedPlainQueueMatchesStableSortReference)
{
    PlainDrainModel m;
    for (int i = 0; i < 3000; ++i) {
        // A narrow tick range packs many entries per bucket; some land
        // past the wheel window and reach the bucket by migration.
        const sim::Tick when = m.rng.chance(0.2)
                                   ? 4096 + m.rng.below(64)
                                   : m.rng.below(64);
        m.add(when, prioAtLeast(m.rng, 0));
    }
    // Step the horizon so refills also probe ticks past the limit and
    // re-file them. A step that jumps past the last executed tick
    // leaves far-heap entries unmigrated although the window now covers
    // them; scheduling from outside at one of their ticks files a
    // later-seq entry of the same class into the bucket first, so the
    // migration appends out of order within the class. Finish with
    // runOne() to cover that drain loop too.
    sim::Tick refilledAt = 0; // now() of the last migration pass
    std::size_t behind = 0;
    for (sim::Tick limit = 0; limit < 40000 && !m.eq.empty();
         limit += 1 + m.rng.below(1500)) {
        // A stop returns early: resume until the drain reaches the limit.
        do {
            m.eq.runUntil(limit);
        } while (m.checkReturn(limit));
        if (!m.ran.empty())
            refilledAt = std::max(refilledAt, m.sched[m.ran.back()].when);
        const std::size_t n = m.sched.size();
        for (std::size_t i = 0; i < n; ++i) {
            const auto v = m.sched[i];
            if (!v.ran && !v.cancelled && v.when >= refilledAt + 4096 &&
                v.when < limit + 4096) {
                m.add(v.when, v.prio);
                ++behind;
            }
        }
        refilledAt = limit;
    }
    m.eq.stopAfter(sim::maxTick); // runOne() ignores requests anyway
    while (m.eq.runOne()) {
    }

    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < m.sched.size(); ++i)
        if (!m.sched[i].cancelled)
            want.push_back(i);
    std::stable_sort(want.begin(), want.end(),
                     [&m](std::size_t a, std::size_t b) {
                         const auto &x = m.sched[a];
                         const auto &y = m.sched[b];
                         return std::tie(x.when, x.prio) <
                                std::tie(y.when, y.prio);
                     });
    EXPECT_GT(m.sched.size(), 8000u) << "schedule too small to mix";
    EXPECT_LT(want.size(), m.sched.size()) << "nothing was cancelled";
    EXPECT_GT(behind, 0u) << "no migration landed behind a later entry";
    EXPECT_GT(m.farCancels, 0u);
    EXPECT_GT(m.wheelCancels, 0u);
    EXPECT_GT(m.batchCancels, 0u);
    EXPECT_GT(m.reaims, 0u);
    EXPECT_GT(m.stopsHonored, 0u);
    EXPECT_EQ(m.ran, want);
    EXPECT_TRUE(m.eq.empty());
    EXPECT_EQ(m.eq.cancelledTokens(), 0u);
}

/**
 * The same mix on a sharded anchor, where same-tick keys are (prio,
 * origin locus, per-locus counter) and a class routinely arrives out
 * of order within a bucket. Every piece of model state is owned by one
 * mesh node and touched only at that node's locus — each node logs
 * what it scheduled and what ran there — so the run is race-free at
 * any shard count. A node's execution order must equal the stable
 * sort of the events aimed at it by (when, prio, origin), the origin
 * node's own log order standing in for its counter. A splice carries
 * the running node as its origin, so it may stay in the running
 * event's class only when that keeps it later in key order.
 */
struct ShardDrainModel
{
    struct Sched
    {
        sim::Tick when;
        int prio;
        std::uint32_t target;
    };
    struct Ev
    {
        ShardDrainModel *m;
        std::uint32_t node;
        std::uint32_t origin;
        std::uint32_t index; ///< position in sched[origin]
        int prio;
        void operator()() const { m->run(*this); }
    };

    static constexpr std::uint32_t kNodes = 16; ///< 8x2 mesh
    sim::EventQueue *eq;
    std::vector<std::vector<Sched>> sched{kNodes};
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        ran{kNodes};
    std::vector<sim::Rng> rng;
    std::vector<std::uint32_t> budget =
        std::vector<std::uint32_t>(kNodes, 400);

    explicit ShardDrainModel(sim::EventQueue &q) : eq(&q)
    {
        for (std::uint32_t n = 0; n < kNodes; ++n)
            rng.emplace_back(7919 + n);
    }

    /** Schedule from @p origin (the running locus, or the target at
     *  setup) and log it in the origin's order. */
    void
    add(std::uint32_t origin, std::uint32_t target, sim::Tick when,
        int prio)
    {
        const auto index =
            static_cast<std::uint32_t>(sched[origin].size());
        sched[origin].push_back({when, prio, target});
        eq->scheduleAtNode(target, when,
                           Ev{this, target, origin, index, prio},
                           kPrios[prio]);
    }

    void
    run(const Ev &ev)
    {
        const std::uint32_t self = ev.node;
        ran[self].emplace_back(ev.origin, ev.index);
        sim::Rng &r = rng[self];
        const sim::Tick now = eq->now();
        for (int k = static_cast<int>(r.below(3)); k > 0 && budget[self];
             --k, --budget[self]) {
            const auto other = static_cast<std::uint32_t>(r.below(kNodes));
            switch (r.below(4)) {
              case 0: {
                // Same-tick splice at this node. Its key carries this
                // node as origin, so staying at the running event's
                // class is only later in key order if this node does
                // not sort before the running event's origin.
                const int floor = ev.prio + (self < ev.origin ? 1 : 0);
                if (floor < 4)
                    add(self, self, now, prioAtLeast(r, floor));
                break;
              }
              case 1: // far-heap, migrates back later
                add(self, other, now + 4096 + r.below(8192),
                    prioAtLeast(r, 0));
                break;
              default: // next ticks, often across a shard boundary
                add(self, other, now + 1 + r.below(6), prioAtLeast(r, 0));
                break;
            }
        }
    }

    /** Per-node reference order: stable sort by (when, prio, origin). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>>
    reference(std::uint32_t node) const
    {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
        for (std::uint32_t o = 0; o < kNodes; ++o)
            for (std::uint32_t i = 0; i < sched[o].size(); ++i)
                if (sched[o][i].target == node)
                    want.emplace_back(o, i);
        std::stable_sort(want.begin(), want.end(),
                         [this](const auto &a, const auto &b) {
                             const Sched &x = sched[a.first][a.second];
                             const Sched &y = sched[b.first][b.second];
                             return std::tie(x.when, x.prio, a.first) <
                                    std::tie(y.when, y.prio, b.first);
                         });
        return want;
    }
};

TEST(DrainOrder, RandomizedShardLeavesMatchStableSortReference)
{
    for (std::uint32_t shards : {1u, 2u, 4u}) {
        sim::EventQueue eq;
        sim::ShardGroup group(eq, shards, sim::columnBands(8, 2, shards));
        ShardDrainModel m(eq);
        sim::Rng setup(31337);
        for (int i = 0; i < 800; ++i) {
            const auto node = static_cast<std::uint32_t>(
                setup.below(ShardDrainModel::kNodes));
            const sim::Tick when = setup.chance(0.2)
                                       ? 4096 + setup.below(32)
                                       : setup.below(32);
            m.add(node, node, when, prioAtLeast(setup, 0));
        }
        eq.runUntil();

        std::size_t total = 0;
        for (std::uint32_t n = 0; n < ShardDrainModel::kNodes; ++n) {
            EXPECT_EQ(m.ran[n], m.reference(n))
                << "node " << n << " at " << shards << " shards";
            total += m.ran[n].size();
        }
        EXPECT_GT(total, 5000u) << shards << " shards";
        EXPECT_TRUE(eq.empty());
    }
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    sim::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    sim::Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    sim::Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    sim::Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    sim::Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMean)
{
    sim::Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, NormalMoments)
{
    sim::Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements)
{
    sim::Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependentStream)
{
    sim::Rng a(29);
    sim::Rng child = a.fork();
    EXPECT_NE(a(), child());
}

TEST(Rng, ChanceExtremes)
{
    sim::Rng rng(31);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

// --------------------------------------------------------------- stats

TEST(Summary, BasicMoments)
{
    sim::Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyIsZero)
{
    sim::Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombined)
{
    sim::Summary a, b, all;
    for (int i = 0; i < 50; ++i) {
        double x = i * 0.7;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty)
{
    sim::Summary a, b;
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Histogram, BinsAndOverflow)
{
    sim::Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // underflow
    h.add(0.0);  // bin 0
    h.add(1.9);  // bin 0
    h.add(2.0);  // bin 1
    h.add(9.99); // bin 4
    h.add(10.0); // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHigh(1), 4.0);
}

TEST(Histogram, FormatMentionsCounts)
{
    sim::Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    std::string text = h.format();
    EXPECT_NE(text.find("1"), std::string::npos);
    EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(Histogram, InvalidConstructionFails)
{
    EXPECT_THROW(sim::Histogram(1.0, 1.0, 4), sim::PanicError);
    EXPECT_THROW(sim::Histogram(0.0, 1.0, 0), sim::PanicError);
}

TEST(Percentiles, ExactQuantiles)
{
    sim::Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.minimum(), 1.0);
    EXPECT_DOUBLE_EQ(p.maximum(), 100.0);
    EXPECT_NEAR(p.median(), 50.5, 1e-9);
    EXPECT_NEAR(p.p95(), 95.05, 1e-9);
    EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Percentiles, SingleSample)
{
    sim::Percentiles p;
    p.add(42.0);
    EXPECT_DOUBLE_EQ(p.median(), 42.0);
    EXPECT_DOUBLE_EQ(p.p99(), 42.0);
}

TEST(Percentiles, EmptyQuantilePanics)
{
    sim::Percentiles p;
    EXPECT_THROW(p.median(), sim::PanicError);
}

TEST(Percentiles, MergeOfSortedPartitionsMatchesSerial)
{
    // Sweep folds merge partitions that were often already queried
    // (hence sorted); the sorted-merge fast path must produce the same
    // quantiles and mean as feeding every sample serially.
    sim::Percentiles serial, a, b;
    const double xs[] = {9, 1, 4, 7, 2, 8, 0, 3, 6, 5};
    for (int i = 0; i < 10; ++i) {
        serial.add(xs[i]);
        (i < 5 ? a : b).add(xs[i]);
    }
    // Force both partitions sorted before merging.
    (void)a.median();
    (void)b.median();
    a.merge(b);
    EXPECT_EQ(a.count(), serial.count());
    EXPECT_DOUBLE_EQ(a.median(), serial.median());
    EXPECT_DOUBLE_EQ(a.p95(), serial.p95());
    EXPECT_DOUBLE_EQ(a.minimum(), serial.minimum());
    EXPECT_DOUBLE_EQ(a.maximum(), serial.maximum());
    EXPECT_DOUBLE_EQ(a.mean(), serial.mean());
}

TEST(Percentiles, AscendingAppendsStaySorted)
{
    // Appending in nondecreasing order (common for tick-ordered stat
    // sampling) must keep the accumulator consistent through repeated
    // quantile queries and further adds.
    sim::Percentiles p;
    p.reserve(6);
    for (double x : {1.0, 2.0, 2.0, 5.0})
        p.add(x);
    EXPECT_DOUBLE_EQ(p.median(), 2.0);
    p.add(9.0);
    p.add(11.0);
    EXPECT_DOUBLE_EQ(p.maximum(), 11.0);
    EXPECT_DOUBLE_EQ(p.median(), 3.5);
    EXPECT_DOUBLE_EQ(p.mean(), 30.0 / 6.0);
}

TEST(Percentiles, MergeIntoEmptyAndFromEmpty)
{
    sim::Percentiles empty, filled;
    filled.add(3.0);
    filled.add(1.0);
    filled.merge(empty); // no-op
    EXPECT_EQ(filled.count(), 2u);
    sim::Percentiles target;
    target.merge(filled);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.median(), 2.0);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

// -------------------------------------------------------------- logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(sim::fatal("bad config: ", 42), sim::FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(sim::panic("invariant ", "broken"), sim::PanicError);
}

TEST(Logging, MessagesCarryContent)
{
    try {
        sim::fatal("value was ", 7);
        FAIL() << "fatal did not throw";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(BLITZ_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(BLITZ_ASSERT(1 + 1 == 3, "broken"), sim::PanicError);
}

} // namespace
