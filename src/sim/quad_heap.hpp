/**
 * @file
 * The repo's one priority-queue implementation: a hole-sift 4-ary
 * min-heap (DESIGN.md §4d).
 *
 * A 4-ary layout halves the tree depth of a binary heap and keeps a
 * node's four children adjacent in memory. Sifts are hole-based:
 * the moving entry is held in a register while parents (or the best
 * child) slide into the hole, one store per level instead of a
 * three-store swap.
 *
 * Both instances are *indexed*: the OnMove hook is told every entry's
 * new position, so the owner can find an entry and re-key (update())
 * or remove (erase()) it in place instead of leaving a stale copy to
 * be discarded at pop:
 *   - sim::EventQueue's far-heap, where cancel() erases a parked
 *     event;
 *   - coin::MeshSim's firing schedule, where a tile's next firing is
 *     re-keyed in place.
 * The default NoHeapIndex hook compiles to nothing.
 *
 * Order among equal entries is unspecified, so callers that need a
 * deterministic drain use keys that form a strict total order.
 */

#ifndef BLITZ_SIM_QUAD_HEAP_HPP
#define BLITZ_SIM_QUAD_HEAP_HPP

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace blitz::sim {

/** Position hook of an un-indexed heap: nobody tracks positions. */
struct NoHeapIndex
{
    template <typename T>
    void
    operator()(const T &, std::size_t) const
    {}
};

/**
 * 4-ary min-heap over T ordered by @p Before (a strict weak order;
 * top() is an entry no other entry is Before). @p OnMove is invoked as
 * onMove(entry, index) whenever an entry lands at a new index.
 */
template <typename T, typename Before = std::less<T>,
          typename OnMove = NoHeapIndex>
class QuadHeap
{
  public:
    explicit QuadHeap(Before before = Before{}, OnMove onMove = OnMove{})
        : before_(std::move(before)), onMove_(std::move(onMove))
    {}

    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    void reserve(std::size_t n) { v_.reserve(n); }

    /** The minimum entry; the heap must be non-empty. */
    const T &top() const { return v_.front(); }

    void
    push(const T &e)
    {
        v_.push_back(e);
        siftUp(v_.size() - 1, e);
    }

    /** Remove the minimum entry (its hook position goes stale). */
    void
    pop()
    {
        const T last = v_.back();
        v_.pop_back();
        if (!v_.empty())
            siftDown(0, last);
    }

    /**
     * Replace the entry at index @p i with @p e and restore heap
     * order: it moves up if it now precedes its parent, else down.
     */
    void
    update(std::size_t i, const T &e)
    {
        if (i > 0 && before_(e, v_[(i - 1) / 4]))
            siftUp(i, e);
        else
            siftDown(i, e);
    }

    /**
     * Remove the entry at index @p i: the last entry fills the hole
     * and sifts whichever way restores heap order.
     */
    void
    erase(std::size_t i)
    {
        const T last = v_.back();
        v_.pop_back();
        if (i < v_.size())
            update(i, last);
    }

  private:
    /** Place @p e, logically at the hole @p i, moving it rootward. */
    void
    siftUp(std::size_t i, const T &e)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!before_(e, v_[parent]))
                break;
            place(i, v_[parent]);
            i = parent;
        }
        place(i, e);
    }

    /** Place @p e, logically at the hole @p i, moving it leafward. */
    void
    siftDown(std::size_t i, const T &e)
    {
        const std::size_t n = v_.size();
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before_(v_[c], v_[best]))
                    best = c;
            }
            if (!before_(v_[best], e))
                break;
            place(i, v_[best]);
            i = best;
        }
        place(i, e);
    }

    void
    place(std::size_t i, const T &e)
    {
        v_[i] = e;
        onMove_(e, i);
    }

    std::vector<T> v_;
    [[no_unique_address]] Before before_;
    [[no_unique_address]] OnMove onMove_;
};

} // namespace blitz::sim

#endif // BLITZ_SIM_QUAD_HEAP_HPP
