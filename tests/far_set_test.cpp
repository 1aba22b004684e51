/**
 * @file
 * Tests for coin::FarSet, the implicit random-pairing partner set.
 *
 * Each tile's non-neighbor set is a shared ascending member list minus
 * a few skipped positions. These tests check it against the explicit
 * per-tile complement lists it replaced: the candidates must match
 * entry for entry, and a PartnerSelector must draw exactly the partner
 * sequence the explicit-list selector drew, in LFSR and Uniform mode.
 * The cases are the mesh constructor, a partially managed
 * neighborhood, and a unit's selector after shun().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "blitzcoin/unit.hpp"
#include "coin/neighborhood.hpp"
#include "coin/pairing.hpp"

namespace {

using namespace blitz;
using coin::FarSet;
using coin::PairingConfig;
using coin::PairingMode;
using coin::PartnerSelector;

/** The explicit-list selector: the reference partner sequence. */
class ExplicitSelector
{
  public:
    ExplicitSelector(std::vector<noc::NodeId> neighbors,
                     std::vector<noc::NodeId> far,
                     const PairingConfig &cfg, sim::Rng &rng)
        : cfg_(cfg), rng_(&rng), neighbors_(std::move(neighbors)),
          far_(std::move(far))
    {
        if (!cfg_.randomPairing)
            far_.clear();
        if (!far_.empty())
            farPos_ = rng.below(far_.size());
        rotate_ = rng.below(neighbors_.size());
    }

    noc::NodeId
    next(bool forceFar)
    {
        ++count_;
        if (!far_.empty() &&
            (forceFar ||
             (cfg_.randomPairing && count_ % cfg_.period == 0))) {
            if (cfg_.mode == PairingMode::Uniform)
                return far_[rng_->below(far_.size())];
            const noc::NodeId p = far_[farPos_];
            farPos_ = (farPos_ + 1) % far_.size();
            return p;
        }
        const noc::NodeId p = neighbors_[rotate_];
        rotate_ = (rotate_ + 1) % neighbors_.size();
        return p;
    }

  private:
    PairingConfig cfg_;
    sim::Rng *rng_;
    std::vector<noc::NodeId> neighbors_;
    std::vector<noc::NodeId> far_;
    std::size_t rotate_ = 0;
    std::size_t farPos_ = 0;
    unsigned count_ = 0;
};

/** @p members minus @p self and @p neighbors, ascending. */
std::vector<noc::NodeId>
complement(const std::vector<noc::NodeId> &members, noc::NodeId self,
           const std::vector<noc::NodeId> &neighbors)
{
    std::vector<noc::NodeId> out;
    for (noc::NodeId m : members) {
        if (m != self && std::find(neighbors.begin(), neighbors.end(),
                                   m) == neighbors.end())
            out.push_back(m);
    }
    return out;
}

std::vector<noc::NodeId>
iota(std::size_t n)
{
    std::vector<noc::NodeId> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<noc::NodeId>(i);
    return v;
}

PairingConfig
pairing(PairingMode mode)
{
    PairingConfig cfg;
    cfg.period = 3; // frequent far pairings
    cfg.mode = mode;
    return cfg;
}

/** Draw 600 partners from both; every third call forces a far pick. */
template <typename MakeSelector>
void
expectSameSequence(MakeSelector make, const std::vector<noc::NodeId> &nbrs,
                   const std::vector<noc::NodeId> &far)
{
    for (PairingMode mode : {PairingMode::Lfsr, PairingMode::Uniform}) {
        const PairingConfig cfg = pairing(mode);
        sim::Rng rngA(77), rngB(77);
        PartnerSelector sel = make(cfg, rngA);
        ExplicitSelector ref(nbrs, far, cfg, rngB);
        for (int i = 0; i < 600; ++i) {
            const bool force = i % 7 == 3;
            ASSERT_EQ(sel.next(force), ref.next(force))
                << "call " << i << " mode "
                << (mode == PairingMode::Lfsr ? "lfsr" : "uniform");
        }
    }
}

TEST(FarSet, IdentityMinusSkips)
{
    FarSet s = FarSet::identity(10);
    s.erase(7);
    s.erase(0);
    s.erase(3);
    s.erase(3);  // already gone
    s.erase(42); // never a member
    EXPECT_EQ(s.size(), 7u);
    EXPECT_EQ(s.toVector(),
              (std::vector<noc::NodeId>{1, 2, 4, 5, 6, 8, 9}));
    EXPECT_EQ(s[0], 1u);
    EXPECT_EQ(s[6], 9u);
}

TEST(FarSet, SharedMemberListMinusSkips)
{
    FarSet s{2u, 5u, 11u, 12u, 30u};
    s.erase(11);
    s.erase(4); // not a member
    EXPECT_EQ(s.toVector(), (std::vector<noc::NodeId>{2, 5, 12, 30}));
    FarSet t = s; // copies share the list, not the skips
    t.erase(2);
    EXPECT_EQ(t.toVector(), (std::vector<noc::NodeId>{5, 12, 30}));
    EXPECT_EQ(s.size(), 4u);
    EXPECT_TRUE(FarSet().empty());
}

TEST(FarSet, UnsortedMemberListPanics)
{
    EXPECT_THROW((FarSet{3u, 1u}), sim::PanicError);
    EXPECT_THROW((FarSet{3u, 3u}), sim::PanicError);
}

TEST(FarSet, MeshConstructorMatchesExplicitComplement)
{
    for (bool wrap : {true, false}) {
        noc::Topology topo(7, 5, wrap);
        for (noc::NodeId self : {0u, 3u, 6u, 17u, 34u}) {
            const auto nbrs = topo.neighbors(self);
            const auto far = complement(iota(topo.size()), self, nbrs);
            sim::Rng rng(1);
            PartnerSelector probe(topo, self, pairing(PairingMode::Lfsr),
                                  rng);
            EXPECT_EQ(probe.far().toVector(), far) << "tile " << self;
            expectSameSequence(
                [&](const PairingConfig &cfg, sim::Rng &r) {
                    return PartnerSelector(topo, self, cfg, r);
                },
                nbrs, far);
        }
    }
}

TEST(FarSet, ManagedNeighborhoodMatchesExplicitComplement)
{
    noc::Topology topo(6, 6, false);
    std::vector<bool> managed(topo.size(), false);
    std::vector<noc::NodeId> members;
    sim::Rng pick(5);
    for (noc::NodeId i = 0; i < topo.size(); ++i) {
        if (pick.below(2) == 0) {
            managed[i] = true;
            members.push_back(i);
        }
    }
    ASSERT_GE(members.size(), 6u);
    const auto hoods = coin::managedNeighborhoods(topo, managed);
    for (noc::NodeId self : members) {
        const coin::Neighborhood &nb = hoods[self];
        const auto far = complement(members, self, nb.neighbors);
        EXPECT_EQ(nb.far.toVector(), far) << "tile " << self;
        expectSameSequence(
            [&](const PairingConfig &cfg, sim::Rng &r) {
                return PartnerSelector(nb.neighbors, nb.far, cfg, r);
            },
            nb.neighbors, far);
    }
}

/** A 4x4 fully managed cluster of units; unit 5 sits mid-mesh. */
struct UnitCluster
{
    sim::EventQueue eq;
    noc::Topology topo{4, 4, false};
    noc::Network net{eq, topo};
    std::vector<coin::Neighborhood> hoods =
        coin::managedNeighborhoods(topo,
                                   std::vector<bool>(topo.size(), true));

    std::unique_ptr<blitzcoin::BlitzCoinUnit>
    unit(noc::NodeId id)
    {
        return std::make_unique<blitzcoin::BlitzCoinUnit>(
            eq, net, id, blitzcoin::UnitConfig{}, hoods[id], 9);
    }
};

TEST(FarSet, ShunStripsTheSharedRepresentation)
{
    UnitCluster c;
    auto u = c.unit(5);
    std::vector<noc::NodeId> nbrs = c.hoods[5].neighbors;
    std::vector<noc::NodeId> far =
        complement(iota(c.topo.size()), 5, nbrs);
    // Shun a far member, then a neighbor: each leaves its own list.
    for (noc::NodeId bad : {far[4], nbrs[1]}) {
        u->shun(bad);
        std::erase(nbrs, bad);
        std::erase(far, bad);
    }
    const PartnerSelector &live = u->selector();
    EXPECT_EQ(live.neighbors(), nbrs);
    EXPECT_EQ(live.far().toVector(), far);
    expectSameSequence(
        [&](const PairingConfig &cfg, sim::Rng &r) {
            return PartnerSelector(live.neighbors(), live.far(), cfg, r);
        },
        nbrs, far);
}

TEST(FarSet, ShunningEveryNeighborPromotesTheFarSet)
{
    UnitCluster c;
    auto u = c.unit(0);
    const std::vector<noc::NodeId> nbrs = c.hoods[0].neighbors;
    std::vector<noc::NodeId> far =
        complement(iota(c.topo.size()), 0, nbrs);
    std::erase(far, noc::NodeId{10});
    u->shun(10);
    for (noc::NodeId n : nbrs)
        u->shun(n);
    EXPECT_EQ(u->selector().neighbors(), far);
    EXPECT_TRUE(u->selector().far().empty());
}

} // namespace
