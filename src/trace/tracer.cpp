#include "tracer.hpp"

#include "export_writer.hpp"

namespace blitz::trace {

void
Tracer::push(Event e, std::initializer_list<TraceArg> args)
{
    // Sole writer entry point — complete/instant/counter all funnel
    // here, so this lock is the tracer's entire thread-safety story.
    std::lock_guard<std::mutex> lock(pushMu_);
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    e.args.assign(args.begin(), args.end());
    events_.push_back(std::move(e));
}

void
Tracer::complete(const char *cat, const char *name, std::uint32_t tid,
                 sim::Tick start, sim::Tick end,
                 std::initializer_list<TraceArg> args)
{
    if (!enabled_)
        return;
    Event e{};
    e.ph = 'X';
    e.cat = cat;
    e.name = name;
    e.pid = pid_;
    e.tid = tid;
    e.ts = start;
    e.dur = end >= start ? end - start : 0;
    push(std::move(e), args);
}

void
Tracer::instant(const char *cat, const char *name, std::uint32_t tid,
                sim::Tick at, std::initializer_list<TraceArg> args)
{
    if (!enabled_)
        return;
    Event e{};
    e.ph = 'i';
    e.cat = cat;
    e.name = name;
    e.pid = pid_;
    e.tid = tid;
    e.ts = at;
    push(std::move(e), args);
}

void
Tracer::counter(const char *cat, const char *name, std::uint32_t tid,
                sim::Tick at, double value)
{
    if (!enabled_)
        return;
    Event e{};
    e.ph = 'C';
    e.cat = cat;
    e.name = name;
    e.pid = pid_;
    e.tid = tid;
    e.ts = at;
    e.value = value;
    push(std::move(e), {});
}

Tracer::CounterTrack
Tracer::counterTrack(const std::string &cat, const std::string &name,
                     std::uint32_t tid)
{
    std::lock_guard<std::mutex> lock(pushMu_);
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        const TrackInfo &t = tracks_[i];
        if (t.tid == tid && t.name == name && t.cat == cat)
            return CounterTrack{static_cast<std::int32_t>(i)};
    }
    tracks_.push_back(TrackInfo{cat, name, tid});
    return CounterTrack{static_cast<std::int32_t>(tracks_.size() - 1)};
}

void
Tracer::counterSample(CounterTrack track, sim::Tick at, double value)
{
    if (!enabled_ || !track.valid())
        return;
    Event e{};
    e.ph = 'C';
    e.cat = nullptr;
    e.name = nullptr;
    e.pid = pid_;
    e.tid = 0; // resolved from the track table at write time
    e.ts = at;
    e.value = value;
    e.track = track.id;
    push(std::move(e), {});
}

void
Tracer::absorb(const Tracer &other, std::uint32_t pid)
{
    // Re-intern the source's counter tracks before copying events:
    // track-backed events carry only an index into the *source* table,
    // and the literal-pointer path must never be used for owned names
    // — the per-replication tracer (and its strings) dies right after
    // the fold. trackMap[i] is the destination id of source track i.
    std::vector<std::int32_t> trackMap(other.tracks_.size(), -1);
    for (std::size_t i = 0; i < other.tracks_.size(); ++i) {
        const TrackInfo &t = other.tracks_[i];
        trackMap[i] = counterTrack(t.cat, t.name, t.tid).id;
    }
    for (const Event &e : other.events_) {
        if (events_.size() >= maxEvents_) {
            ++dropped_;
            continue;
        }
        Event copy = e;
        copy.pid = pid;
        if (copy.track >= 0)
            copy.track = trackMap[static_cast<std::size_t>(copy.track)];
        events_.push_back(std::move(copy));
    }
    dropped_ += other.dropped_;
}

void
Tracer::clear()
{
    events_.clear();
    dropped_ = 0;
}

void
Tracer::writeJson(std::ostream &os) const
{
    // Timestamps are Chrome's microseconds at four decimals: one tick
    // is 1.25 ns = 0.00125 us, close enough for viewers while keeping
    // files compact.
    ExportWriter w(os);
    w.put("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        const TrackInfo *track =
            e.track >= 0 ? &tracks_[static_cast<std::size_t>(e.track)]
                         : nullptr;
        if (i)
            w.put(',');
        w.put("{\"ph\":\"").put(e.ph).put("\",\"cat\":");
        w.quoted(track ? std::string_view(track->cat) : e.cat);
        w.put(",\"name\":");
        w.quoted(track ? std::string_view(track->name) : e.name);
        w.put(",\"pid\":").u64(e.pid).put(",\"tid\":");
        w.u64(track ? track->tid : e.tid).put(",\"ts\":");
        w.fixed(sim::ticksToUs(e.ts), 4);
        if (e.ph == 'X')
            w.put(",\"dur\":").fixed(sim::ticksToUs(e.dur), 4);
        if (e.ph == 'i')
            w.put(",\"s\":\"t\"");
        if (e.ph == 'C') {
            w.put(",\"args\":{\"value\":").general(e.value, 6).put('}');
        } else if (!e.args.empty()) {
            w.put(",\"args\":{");
            for (std::size_t a = 0; a < e.args.size(); ++a) {
                if (a)
                    w.put(',');
                w.quoted(e.args[a].key).put(':');
                if (e.args[a].str)
                    w.quoted(e.args[a].str);
                else
                    w.i64(e.args[a].num);
            }
            w.put('}');
        }
        w.put('}');
    }
    w.put("]}");
}

} // namespace blitz::trace
