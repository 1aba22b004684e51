#include "pairing.hpp"

#include <algorithm>
#include <functional>

namespace blitz::coin {

FarSet::FarSet(Members members)
    : members_(std::move(members))
{
    if (!members_)
        return;
    BLITZ_ASSERT(std::adjacent_find(members_->begin(), members_->end(),
                                    std::greater_equal<>()) ==
                     members_->end(),
                 "far member list must be strictly ascending");
    count_ = static_cast<std::uint32_t>(members_->size());
}

FarSet::FarSet(std::initializer_list<noc::NodeId> ids)
    : FarSet(std::make_shared<const std::vector<noc::NodeId>>(ids))
{
}

FarSet
FarSet::identity(std::size_t n)
{
    FarSet s;
    s.count_ = static_cast<std::uint32_t>(n);
    return s;
}

void
FarSet::erase(noc::NodeId id)
{
    std::uint32_t pos = id;
    if (members_) {
        const auto it =
            std::lower_bound(members_->begin(), members_->end(), id);
        if (it == members_->end() || *it != id)
            return;
        pos = static_cast<std::uint32_t>(it - members_->begin());
    } else if (id >= count_) {
        return;
    }
    if (skips_.empty())
        skips_.reserve(5); // the tile itself and up to four neighbors
    const auto at = std::lower_bound(skips_.begin(), skips_.end(), pos);
    if (at == skips_.end() || *at != pos)
        skips_.insert(at, pos);
}

std::vector<noc::NodeId>
FarSet::toVector() const
{
    std::vector<noc::NodeId> out;
    out.reserve(size());
    for (std::size_t k = 0; k < size(); ++k)
        out.push_back((*this)[k]);
    return out;
}

namespace {

/** Every node of @p topo except @p self and its neighbors. */
FarSet
meshFar(const noc::Topology &topo, noc::NodeId self)
{
    FarSet far = FarSet::identity(topo.size());
    far.erase(self);
    for (noc::NodeId n : topo.neighbors(self))
        far.erase(n);
    return far;
}

} // namespace

PartnerSelector::PartnerSelector(const noc::Topology &topo,
                                 noc::NodeId self,
                                 const PairingConfig &cfg, sim::Rng &rng)
    : PartnerSelector(topo.neighbors(self), meshFar(topo, self), cfg, rng)
{
}

PartnerSelector::PartnerSelector(std::vector<noc::NodeId> neighbors,
                                 FarSet far, const PairingConfig &cfg,
                                 sim::Rng &rng)
    : cfg_(cfg), rng_(&rng), neighbors_(std::move(neighbors)),
      far_(std::move(far))
{
    BLITZ_ASSERT(!neighbors_.empty(), "neighbor list is empty");
    BLITZ_ASSERT(cfg_.period >= 2 || !cfg_.randomPairing,
                 "random pairing period must be >= 2");
    if (!cfg_.randomPairing)
        far_ = FarSet();
    // Stagger per-tile walks so the whole mesh does not pair with the
    // same far region simultaneously; the hardware gets the same
    // effect from per-tile shift-register seeds.
    if (!far_.empty())
        farPos_ = rng.below(far_.size());
    // Start the neighbor rotation at a per-tile offset as well.
    rotate_ = rng.below(neighbors_.size());
}

noc::NodeId
PartnerSelector::nextFar()
{
    BLITZ_ASSERT(!far_.empty(), "no non-neighbors available");
    if (cfg_.mode == PairingMode::Uniform)
        return far_[rng_->below(far_.size())];
    noc::NodeId partner = far_[farPos_];
    farPos_ = (farPos_ + 1) % far_.size();
    return partner;
}

noc::NodeId
PartnerSelector::next(bool forceFar)
{
    ++exchangeCount_;
    if (!far_.empty() &&
        (forceFar || (cfg_.randomPairing &&
                      exchangeCount_ % cfg_.period == 0))) {
        lastWasRandom_ = true;
        return nextFar();
    }
    lastWasRandom_ = false;
    noc::NodeId partner = neighbors_[rotate_];
    rotate_ = (rotate_ + 1) % neighbors_.size();
    return partner;
}

} // namespace blitz::coin
