/**
 * @file
 * Partner selection: neighbor rotation and randomized pairing.
 *
 * A tile normally rotates round-robin through its mesh neighbors
 * (Algorithm 2). Every `period`-th exchange it instead pairs with a
 * *non*-neighbor (Section III-D optimization c), which is what rescues
 * the checkerboard deadlock of Fig. 5: a tile surrounded by inactive
 * tiles eventually talks past them. The hardware realizes the
 * non-neighbor sequence as a shift register that provably cycles through
 * every non-neighbor within a fixed time; the LFSR mode reproduces that
 * guarantee, while the Uniform mode draws partners from the seeded RNG.
 */

#ifndef BLITZ_COIN_PAIRING_HPP
#define BLITZ_COIN_PAIRING_HPP

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "ledger.hpp"
#include "noc/topology.hpp"
#include "sim/rng.hpp"

namespace blitz::coin {

/** How the random-pairing partner is chosen. */
enum class PairingMode : std::uint8_t
{
    Lfsr,    ///< deterministic shift-register walk (hardware behaviour)
    Uniform, ///< uniform random non-neighbor (emulator behaviour)
};

/** Random-pairing policy parameters. */
struct PairingConfig
{
    bool randomPairing = true;
    /** Every Nth exchange is a random pairing; the paper uses 16. */
    unsigned period = 16;
    PairingMode mode = PairingMode::Lfsr;
};

/**
 * Local detector for the Fig. 5 isolation scenario.
 *
 * Every exchange reveals the partner's (has, max) registers, so a tile
 * can notice — entirely locally — that its whole neighborhood is idle
 * and nothing is moving: a streak of zero-coin exchanges with
 * max = 0 partners. An isolated tile must reach past its neighbors at
 * its base cadence, otherwise exponential back-off collapses the
 * effective random-pairing rate and a reallocation across an idle
 * region stalls for tens of microseconds. A zero-move exchange with an
 * *active* partner clears the streak: an active peer that agrees no
 * coins should move is evidence the distribution is fine.
 */
class IsolationDetector
{
  public:
    /** @param threshold streak length declaring isolation; the mesh
     *  degree (4) means one full idle rotation. */
    explicit IsolationDetector(unsigned threshold = 4)
        : threshold_(threshold)
    {}

    /** Record the outcome of one exchange. */
    void
    onExchange(bool movedCoins, Coins partnerMax)
    {
        if (movedCoins || partnerMax > 0) {
            streak_ = 0;
        } else {
            ++streak_;
        }
    }

    /** True after a full rotation of idle, coin-less exchanges. */
    bool isolated() const { return streak_ >= threshold_; }

    void reset() { streak_ = 0; }

  private:
    unsigned threshold_;
    unsigned streak_ = 0;
};

/**
 * A tile's random-pairing candidates: one ascending member list,
 * shared by every tile of the system, minus a few skipped positions.
 *
 * An explicit per-tile list of non-neighbors would be O(N) per tile,
 * O(N^2) per mesh. Instead, the complement of a tile's neighborhood
 * is the shared list with the tile itself and its (at most four)
 * neighbors skipped, plus one skip per partner shun() removes later.
 * A null member list stands for the identity list [0, N), so a fully
 * managed mesh shares no list at all. operator[] walks the sorted
 * skip positions, so the k-th candidate is exactly the k-th entry of
 * the ascending explicit complement: LFSR walks and uniform draws
 * replay unchanged.
 */
class FarSet
{
  public:
    using Members = std::shared_ptr<const std::vector<noc::NodeId>>;

    /** The empty set. */
    FarSet() = default;

    /** The shared strictly ascending @p members, nothing skipped. */
    explicit FarSet(Members members);

    /** An explicit strictly ascending list, nothing skipped. */
    FarSet(std::initializer_list<noc::NodeId> ids);

    /** The identity list [0, @p n), nothing skipped. */
    static FarSet identity(std::size_t n);

    std::size_t size() const { return count_ - skips_.size(); }
    bool empty() const { return size() == 0; }

    /** The @p k-th candidate in ascending order; k < size(). */
    noc::NodeId
    operator[](std::size_t k) const
    {
        std::size_t pos = k;
        for (std::uint32_t s : skips_) {
            if (s > pos)
                break;
            ++pos;
        }
        return members_ ? (*members_)[pos]
                        : static_cast<noc::NodeId>(pos);
    }

    /** Drop @p id from the set (no-op when it is not a candidate). */
    void erase(noc::NodeId id);

    /** The candidates, materialized in order (O(N); not for hot use). */
    std::vector<noc::NodeId> toVector() const;

  private:
    Members members_;
    std::uint32_t count_ = 0;          ///< entries in the member list
    std::vector<std::uint32_t> skips_; ///< ascending skipped positions
};

/**
 * Per-tile partner selector.
 *
 * next() yields the partner for the tile's next exchange: one of its
 * neighbors in rotation, or — on every period-th call when random
 * pairing is enabled — a non-neighbor from the configured sequence.
 */
class PartnerSelector
{
  public:
    /**
     * @param topo mesh shape (referenced; must outlive the selector).
     * @param self this tile's node id.
     * @param cfg pairing policy.
     * @param rng per-tile random stream (used in Uniform mode and to
     *        stagger the LFSR starting offset).
     */
    PartnerSelector(const noc::Topology &topo, noc::NodeId self,
                    const PairingConfig &cfg, sim::Rng &rng);

    /**
     * Construct from explicit partner sets — used when only a subset
     * of tiles participates in power management (Section IV-C: memory,
     * IO and CPU tiles hold fixed coins and never exchange).
     * @param neighbors rotation partners (the logical mesh neighbors).
     * @param far random-pairing partners (managed non-neighbors).
     */
    PartnerSelector(std::vector<noc::NodeId> neighbors, FarSet far,
                    const PairingConfig &cfg, sim::Rng &rng);

    /**
     * Partner for the next exchange.
     * @param forceFar pick a non-neighbor regardless of the period —
     *        used by the isolation detector (Section III-E: the
     *        shift register guarantees every non-neighbor is paired
     *        within fixed time; an isolated tile invokes it directly).
     */
    noc::NodeId next(bool forceFar = false);

    /** True when the previous next() was a random (far) pairing. */
    bool lastWasRandom() const { return lastWasRandom_; }

    /** Neighbor list used for rotation (N,S,E,W order, deduplicated). */
    const std::vector<noc::NodeId> &neighbors() const { return neighbors_; }

    /** Non-neighbor (random-pairing) candidates. */
    const FarSet &far() const { return far_; }

  private:
    noc::NodeId nextFar();

    PairingConfig cfg_;
    sim::Rng *rng_;
    std::vector<noc::NodeId> neighbors_;
    FarSet far_; ///< all non-neighbors, ascending
    std::size_t rotate_ = 0;
    std::size_t farPos_ = 0;
    unsigned exchangeCount_ = 0;
    bool lastWasRandom_ = false;
};

} // namespace blitz::coin

#endif // BLITZ_COIN_PAIRING_HPP
