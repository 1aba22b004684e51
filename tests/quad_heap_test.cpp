/**
 * @file
 * Tests for sim::QuadHeap, the repo's one heap: the un-indexed form
 * against a sort, and the indexed form differentially against the
 * stale-stamp std::priority_queue schedule MeshSim's firing schedule
 * replaced (re-key in place) and against a multiset (erase in place,
 * as EventQueue's far-heap cancel does).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <vector>

#include "sim/quad_heap.hpp"
#include "sim/rng.hpp"

namespace {

using namespace blitz;

TEST(QuadHeap, PopsInSortedOrder)
{
    sim::Rng rng(11);
    sim::QuadHeap<std::uint64_t> heap;
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 2000; ++i) {
        keys.push_back(rng.below(300)); // plenty of duplicates
        heap.push(keys.back());
    }
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t k : keys) {
        ASSERT_FALSE(heap.empty());
        EXPECT_EQ(heap.top(), k);
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
}

TEST(QuadHeap, InterleavedPushPopMatchesPriorityQueue)
{
    sim::Rng rng(12);
    sim::QuadHeap<std::uint64_t> heap;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        ref;
    for (int step = 0; step < 20000; ++step) {
        if (ref.empty() || rng.below(3) != 0) {
            const std::uint64_t k = rng.below(1000);
            heap.push(k);
            ref.push(k);
        } else {
            ASSERT_EQ(heap.top(), ref.top());
            heap.pop();
            ref.pop();
        }
        ASSERT_EQ(heap.size(), ref.size());
    }
}

// ----------------------------------------------------------- indexed

constexpr unsigned kTileBits = 20;

std::uint64_t
keyOf(std::uint64_t when, std::uint32_t tile)
{
    return (when << kTileBits) | tile;
}

struct TrackTile
{
    std::uint32_t *pos;

    void
    operator()(std::uint64_t key, std::size_t i) const
    {
        pos[key & ((1u << kTileBits) - 1)] = static_cast<std::uint32_t>(i);
    }
};

/** The schedule MeshSim ran before: push duplicates, skip stale stamps. */
class StaleStampSchedule
{
  public:
    explicit StaleStampSchedule(std::size_t tiles) : pending_(tiles, 0) {}

    void
    schedule(std::uint32_t tile, std::uint64_t when)
    {
        heap_.push(Firing{when, tile, ++pending_[tile]});
    }

    /** Pop the next live firing; returns its (when, tile) key. */
    std::uint64_t
    next()
    {
        for (;;) {
            const Firing f = heap_.top();
            heap_.pop();
            if (f.stamp == pending_[f.tile])
                return keyOf(f.when, f.tile);
        }
    }

  private:
    struct Firing
    {
        std::uint64_t when;
        std::uint32_t tile;
        std::uint64_t stamp;

        bool
        operator>(const Firing &o) const
        {
            return when != o.when ? when > o.when : tile > o.tile;
        }
    };

    std::vector<std::uint64_t> pending_;
    std::priority_queue<Firing, std::vector<Firing>,
                        std::greater<Firing>>
        heap_;
};

/**
 * Randomized schedule/reschedule traffic with heavy equal-tick ties:
 * the indexed heap must fire in exactly the stale-stamp model's order.
 */
void
checkAgainstStaleStamps(std::size_t tiles, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::uint32_t> pos(tiles);
    sim::QuadHeap<std::uint64_t, std::less<std::uint64_t>, TrackTile>
        heap(std::less<std::uint64_t>{}, TrackTile{pos.data()});
    StaleStampSchedule ref(tiles);

    for (std::uint32_t t = 0; t < tiles; ++t) {
        const std::uint64_t when = 1 + rng.below(4);
        heap.push(keyOf(when, t));
        ref.schedule(t, when);
    }
    auto reschedule = [&](std::uint32_t t, std::uint64_t when) {
        heap.update(pos[t], keyOf(when, t));
        ref.schedule(t, when);
    };

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t expect = ref.next();
        ASSERT_EQ(heap.top(), expect) << "step " << step;
        ASSERT_EQ(pos[expect & ((1u << kTileBits) - 1)], 0u);
        const std::uint64_t now = expect >> kTileBits;
        // Wake a few other tiles, earlier or later than their pending
        // firing (decrease- and increase-key), then re-key the fired
        // tile itself, which is still at the root.
        const auto wakes = rng.below(4);
        for (std::uint64_t w = 0; w < wakes; ++w) {
            reschedule(static_cast<std::uint32_t>(rng.below(tiles)),
                       now + 1 + rng.below(6));
        }
        reschedule(static_cast<std::uint32_t>(expect &
                                              ((1u << kTileBits) - 1)),
                   now + 1 + rng.below(6));
        ASSERT_EQ(heap.size(), tiles);
    }
}

TEST(QuadHeap, IndexedMatchesStaleStampModel)
{
    for (std::size_t tiles : {1u, 2u, 5u, 17u, 64u, 101u})
        checkAgainstStaleStamps(tiles, 1000 + tiles);
}

TEST(QuadHeap, IndexedUpdateKeepsPositionsExact)
{
    // Random re-keys, then re-key every tile to its own key through
    // the hook's positions: a stale position would overwrite another
    // tile's entry and the drained keys would differ from the model.
    sim::Rng rng(13);
    const std::size_t tiles = 50;
    std::vector<std::uint32_t> pos(tiles);
    std::vector<std::uint64_t> keys(tiles);
    sim::QuadHeap<std::uint64_t, std::less<std::uint64_t>, TrackTile>
        heap(std::less<std::uint64_t>{}, TrackTile{pos.data()});
    for (std::uint32_t t = 0; t < tiles; ++t) {
        keys[t] = keyOf(rng.below(100), t);
        heap.push(keys[t]);
    }
    for (int step = 0; step < 5000; ++step) {
        const auto t = static_cast<std::uint32_t>(rng.below(tiles));
        keys[t] = keyOf(rng.below(100), t);
        heap.update(pos[t], keys[t]);
    }
    for (std::uint32_t t = 0; t < tiles; ++t)
        heap.update(pos[t], keys[t]);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t k : keys) {
        ASSERT_EQ(heap.top(), k);
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
}

// Erasing by hooked position, as the event queue's cancel() does for
// a far-parked event: random pushes, pops and erases must leave the
// heap draining exactly the model's surviving keys, in order, with the
// hook's positions exact throughout.
TEST(QuadHeap, IndexedEraseMatchesMultiset)
{
    sim::Rng rng(29);
    const std::size_t tiles = 200;
    std::vector<std::uint32_t> pos(tiles);
    std::vector<bool> in(tiles, false);
    std::vector<std::uint64_t> keys(tiles);
    std::set<std::uint64_t> model;
    sim::QuadHeap<std::uint64_t, std::less<std::uint64_t>, TrackTile>
        heap(std::less<std::uint64_t>{}, TrackTile{pos.data()});
    for (int step = 0; step < 50000; ++step) {
        const auto t = static_cast<std::uint32_t>(rng.below(tiles));
        if (!in[t]) {
            keys[t] = keyOf(rng.below(1000), t);
            heap.push(keys[t]);
            model.insert(keys[t]);
            in[t] = true;
        } else if (rng.chance(0.7)) {
            ASSERT_EQ(heap.size(), model.size());
            heap.erase(pos[t]);
            model.erase(keys[t]);
            in[t] = false;
        } else {
            ASSERT_EQ(heap.top(), *model.begin());
            in[heap.top() & ((1u << kTileBits) - 1)] = false;
            heap.pop();
            model.erase(model.begin());
        }
    }
    for (std::uint64_t k : model) {
        ASSERT_EQ(heap.top(), k);
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
}

} // namespace
