#include "noc_trace.hpp"

#include <algorithm>

#include "export_writer.hpp"

namespace blitz::trace {

NocTrace::NocTrace(Registry &reg, std::size_t linkCount,
                   sim::Tick hopLatency, double latencyHi)
    : linkHops_(linkCount, 0), hopLatency_(hopLatency),
      hops_(reg.counter("noc.hops")),
      delivered_(reg.counter("noc.delivered")),
      dropped_(reg.counter("noc.dropped")),
      latency_(reg.histogram("noc.latency_ticks", 0.0, latencyHi, 32))
{
}

double
NocTrace::linkUtilization(std::size_t link, sim::Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(linkHops_[link] * hopLatency_) /
           static_cast<double>(elapsed);
}

double
NocTrace::maxLinkUtilization(sim::Tick elapsed) const
{
    std::uint64_t peak = 0;
    for (std::uint64_t h : linkHops_)
        peak = std::max(peak, h);
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(peak * hopLatency_) /
           static_cast<double>(elapsed);
}

double
NocTrace::meanLinkUtilization(sim::Tick elapsed) const
{
    if (elapsed == 0 || linkHops_.empty())
        return 0.0;
    std::uint64_t sum = 0;
    for (std::uint64_t h : linkHops_)
        sum += h;
    return static_cast<double>(sum * hopLatency_) /
           (static_cast<double>(elapsed) *
            static_cast<double>(linkHops_.size()));
}

void
NocTrace::writeLinkCsv(std::ostream &os, sim::Tick elapsed) const
{
    ExportWriter w(os);
    w.put("link,hops,utilization\n");
    for (std::size_t i = 0; i < linkHops_.size(); ++i) {
        w.u64(i).put(',').u64(linkHops_[i]).put(',');
        w.general(linkUtilization(i, elapsed), 6).put('\n');
    }
}

} // namespace blitz::trace
