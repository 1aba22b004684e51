/**
 * @file
 * Observability CLI plumbing shared by the benches and examples.
 *
 * `--metrics[=path]` and `--trace[=path]` opt a binary into the
 * observability plane: metric snapshots land in a CSV (merged across
 * sweep replications in replication order, so the file is
 * bit-identical at any thread count) and the event timeline lands in a
 * Chrome/Perfetto trace.json with one process lane per replication.
 * `--health[=path]` additionally writes the run's HealthReport — the
 * deterministic outcome counters plus sweep-pool utilization — as one
 * JSON document blitz-top renders. Without the flags nothing is
 * attached and the runs stay on the null-hook fast path — the flags
 * must never change any printed number.
 */

#ifndef BLITZ_BENCH_OBS_HPP
#define BLITZ_BENCH_OBS_HPP

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sweep/sweep.hpp"
#include "trace/flush_guard.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace blitz::bench {

/** Parsed --metrics/--trace/--health options. */
struct ObsOptions
{
    bool metrics = false;
    bool trace = false;
    bool health = false;
    std::string metricsPath = "metrics.csv";
    std::string tracePath = "trace.json";
    std::string healthPath = "health.json";

    bool any() const { return metrics || trace || health; }
};

/** Scan argv for --metrics[=path] / --trace[=path] / --health[=path]. */
inline ObsOptions
parseObsFlags(int argc, char **argv)
{
    ObsOptions o;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--metrics", 9) == 0) {
            o.metrics = true;
            if (argv[i][9] == '=')
                o.metricsPath = argv[i] + 10;
        } else if (std::strncmp(argv[i], "--trace", 7) == 0) {
            o.trace = true;
            if (argv[i][7] == '=')
                o.tracePath = argv[i] + 8;
        } else if (std::strncmp(argv[i], "--health", 8) == 0) {
            o.health = true;
            if (argv[i][8] == '=')
                o.healthPath = argv[i] + 9;
        }
    }
    return o;
}

/** Insert @p tag before the path's extension: a.csv -> a-4x4.csv. */
inline std::string
tagPath(const std::string &path, const std::string &tag)
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
        return path + "-" + tag;
    return path.substr(0, dot) + "-" + tag + path.substr(dot);
}

inline void
writeMetricsCsv(const trace::MetricsSeries &series,
                const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    series.writeCsv(os);
    std::printf("wrote %s (%zu snapshots)\n", path.c_str(),
                series.snapshots().size());
}

inline void
writeTraceJson(const trace::Tracer &tracer, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    tracer.writeJson(os);
    std::printf("wrote %s (%zu events%s)\n", path.c_str(),
                tracer.eventCount(),
                tracer.droppedEvents() ? ", overflow dropped some"
                                       : "");
}

inline void
writeHealthJson(const trace::HealthReport &report,
                const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    report.writeJson(os);
    std::printf("wrote %s (%zu deterministic, %zu wallclock keys)\n",
                path.c_str(), report.deterministic().size(),
                report.wallclock().size());
}

/**
 * Sweep-pool utilization into @p report's *wallclock* section. All of
 * it — including the thread count — stays out of the deterministic
 * section on purpose: the deterministic section must be identical at
 * any --threads, and the pool shape is part of the wall-clock story.
 */
inline void
fillSweepHealth(trace::HealthReport &report,
                const sweep::PoolStats &stats)
{
    report.bumpWall("sweep.threads",
                    static_cast<double>(stats.threads));
    report.bumpWall("sweep.replications",
                    static_cast<double>(stats.replications));
    report.bumpWall("sweep.wall_s", stats.wallSeconds);
    report.bumpWall("sweep.busy_s", stats.busySeconds());
    report.setWall("sweep.utilization", stats.utilization());
}

/**
 * What one replication observed: its metrics series, its trace as a
 * (pid, tracer) lane, and its health counters. merge() folds captures
 * in call order, so a sweep folding them in replication order yields
 * the same CSV bytes and lanes at any thread count.
 */
struct ObsCapture
{
    trace::MetricsSeries metrics;
    std::vector<std::pair<std::uint32_t, std::shared_ptr<trace::Tracer>>>
        tracers;
    trace::HealthReport health;

    /** Keep @p reg's series and @p tracer (if any) as lane @p pid. */
    void
    keep(trace::Registry &reg, std::shared_ptr<trace::Tracer> tracer,
         std::uint32_t pid)
    {
        metrics = reg.takeSeries();
        if (tracer)
            tracers.emplace_back(pid, std::move(tracer));
    }

    void
    merge(ObsCapture &&o)
    {
        if (!o.metrics.empty())
            metrics.merge(o.metrics);
        for (auto &t : o.tracers)
            tracers.push_back(std::move(t));
        health.absorb(o.health);
    }
};

/**
 * One bench run's observability outputs: the master trace, the run's
 * HealthReport and sweep-pool totals, and the crash-flush guards that
 * keep both valid on disk if the run dies. Nothing is written until
 * finish(), which the bench calls where the files belong in its
 * stdout; without the flags the session prints nothing.
 */
class ObsSession
{
  public:
    /** Parse the flags; @p run names the health report. */
    ObsSession(int argc, char **argv, const char *run)
        : opts_(parseObsFlags(argc, argv))
    {
        if (opts_.any())
            trace::FlushGuard::installSignalHandlers();
        if (opts_.trace)
            traceFlush_ =
                trace::FlushGuard::guardTracer(master_, opts_.tracePath);
        if (opts_.health) {
            health_.setRun(run);
            healthFlush_ =
                trace::FlushGuard::guardHealth(health_, opts_.healthPath);
        }
    }

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    const ObsOptions &options() const { return opts_; }

    /**
     * Pool-stats sink for the next sweep (SweepOptions::stats), or
     * nullptr without --health. The next absorb() adds it to the run.
     */
    sweep::PoolStats *
    sweepStats()
    {
        if (!opts_.health)
            return nullptr;
        swept_ = true;
        return &lastSweep_;
    }

    /**
     * Fold a capture into the run. Its metrics go to a CSV at the
     * metrics path tagged @p tag, or, with no tag, into the one
     * untagged CSV finish() writes.
     */
    void
    absorb(ObsCapture &cap, const char *tag = nullptr)
    {
        if (opts_.metrics && !cap.metrics.empty()) {
            if (tag)
                writeMetricsCsv(cap.metrics,
                                tagPath(opts_.metricsPath, tag));
            else
                metrics_.merge(cap.metrics);
        }
        for (const auto &[pid, t] : cap.tracers)
            master_.absorb(*t, pid);
        health_.absorb(cap.health);
        pool_.merge(lastSweep_);
        lastSweep_ = sweep::PoolStats{};
    }

    /** Write the untagged metrics CSV, trace.json and health.json. */
    void
    finish()
    {
        if (!metrics_.empty())
            writeMetricsCsv(metrics_, opts_.metricsPath);
        if (opts_.trace) {
            traceFlush_.release();
            writeTraceJson(master_, opts_.tracePath);
        }
        if (opts_.health) {
            healthFlush_.release();
            if (swept_)
                fillSweepHealth(health_, pool_);
            writeHealthJson(health_, opts_.healthPath);
        }
    }

  private:
    ObsOptions opts_;
    trace::MetricsSeries metrics_;
    trace::Tracer master_;
    trace::HealthReport health_;
    sweep::PoolStats pool_;
    sweep::PoolStats lastSweep_;
    bool swept_ = false;
    // Declared last so they unregister before what they flush dies.
    trace::FlushGuard::Registration traceFlush_;
    trace::FlushGuard::Registration healthFlush_;
};

} // namespace blitz::bench

#endif // BLITZ_BENCH_OBS_HPP
