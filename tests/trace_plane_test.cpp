/**
 * @file
 * Unit tests of the observability plane itself: registry snapshotting,
 * series merging (the sweep-determinism contract), CSV/JSON export,
 * Chrome-trace emission, the NoC probe, bit-identical merged metrics
 * across sweep thread counts, and the export bytes themselves: the
 * ExportWriter against the printf formatters it replaced, and digests
 * of whole exports pinned from before that switch.
 */

#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coin/engine.hpp"
#include "sim/digest.hpp"
#include "sim/rng.hpp"
#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "soc/throttler.hpp"
#include "sweep/sweep.hpp"
#include "trace/attach.hpp"
#include "trace/export_writer.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/noc_trace.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace blitz;

// ------------------------------------------------ tiny JSON validator
// Recursive-descent checker: enough JSON to prove the exports parse
// (the repo deliberately has no third-party JSON dependency).

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_) {
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return false;
        }
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------------------ registry

TEST(Metrics, CountersGaugesSampledAndHistogramsSnapshotInOrder)
{
    trace::Registry reg;
    trace::Counter hits = reg.counter("hits");
    trace::Gauge level = reg.gauge("level");
    int calls = 0;
    reg.sampled("derived", [&calls] { return 10.0 * ++calls; });
    sim::Histogram *lat = reg.histogram("lat", 0.0, 64.0, 8);

    ASSERT_EQ(reg.metricCount(), 4u);
    EXPECT_EQ(reg.schema()[0].name, "hits");
    EXPECT_EQ(reg.schema()[0].kind, trace::MetricKind::Counter);
    EXPECT_EQ(reg.schema()[3].kind, trace::MetricKind::Histogram);

    hits.add();
    hits.add(2);
    level.set(0.5);
    lat->add(3.0);
    lat->add(99.0); // overflow bucket still counts toward the column
    reg.sample(100);

    hits.add();
    level.set(-1.25);
    reg.sample(200);

    const auto &rows = reg.snapshots();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].tick, 100u);
    EXPECT_EQ(rows[0].values, (std::vector<double>{3, 0.5, 10, 2}));
    EXPECT_EQ(rows[1].values, (std::vector<double>{4, -1.25, 20, 2}));
}

TEST(Metrics, OnSampleObserverSeesEachAppendedRow)
{
    trace::Registry reg;
    trace::Counter c = reg.counter("c");
    std::vector<sim::Tick> seen;
    reg.onSample = [&](const trace::Snapshot &s) {
        seen.push_back(s.tick);
        EXPECT_EQ(s.values.size(), 1u);
    };
    c.add();
    reg.sample(1);
    reg.sample(2);
    EXPECT_EQ(seen, (std::vector<sim::Tick>{1, 2}));
}

TEST(Metrics, MergeSumsAlignedRowsAndTracksCoverage)
{
    auto makeSeries = [](std::uint64_t bias, std::size_t rows) {
        trace::Registry reg;
        trace::Counter c = reg.counter("c");
        for (std::size_t i = 0; i < rows; ++i) {
            c.add(bias);
            reg.sample(static_cast<sim::Tick>((i + 1) * 10));
        }
        return reg.takeSeries();
    };

    trace::MetricsSeries acc = makeSeries(1, 2); // rows: 1, 2
    acc.merge(makeSeries(5, 3));                 // rows: 5, 10, 15
    ASSERT_EQ(acc.snapshots().size(), 3u);
    EXPECT_EQ(acc.snapshots()[0].values[0], 6.0);   // 1 + 5
    EXPECT_EQ(acc.snapshots()[1].values[0], 12.0);  // 2 + 10
    EXPECT_EQ(acc.snapshots()[2].values[0], 15.0);  // tail, one rep
    EXPECT_EQ(acc.coverage(),
              (std::vector<std::uint32_t>{2, 2, 1}));
}

TEST(Metrics, CsvAndJsonExportsAreWellFormed)
{
    trace::Registry reg;
    trace::Counter c = reg.counter("c");
    reg.sampled("g", [] { return 1.5; });
    sim::Histogram *h = reg.histogram("h", 0.0, 10.0, 5);
    c.add(7);
    h->add(4.0);
    reg.sample(42);

    std::ostringstream csv;
    reg.writeCsv(csv);
    EXPECT_EQ(csv.str(), "tick,cov,c,g,h\n42,1,7,1.5,1\n");

    std::ostringstream json;
    reg.writeJson(json);
    EXPECT_TRUE(JsonChecker(json.str()).valid()) << json.str();
    EXPECT_NE(json.str().find("\"schema\""), std::string::npos);
    EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
}

// ------------------------------------------------------------- tracer

TEST(Tracer, EmitsValidChromeTraceJson)
{
    trace::Tracer t;
    t.setPid(3);
    t.complete("coin", "exchange", 5, 800, 1600,
               {{"xid", std::int64_t{42}}, {"outcome", "ok"}});
    t.instant("fault", "inject_drop", 1, 900);
    t.counter("pm", "power_mw", 0, 1000, 123.5);
    ASSERT_EQ(t.eventCount(), 3u);

    std::ostringstream os;
    t.writeJson(os);
    const std::string doc = os.str();
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"outcome\":\"ok\""), std::string::npos);
    // 800 ticks at 800 MHz = 1 us.
    EXPECT_NE(doc.find("\"ts\":1.0000"), std::string::npos);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    trace::Tracer t;
    t.setEnabled(false);
    t.complete("c", "n", 0, 0, 10);
    t.instant("c", "n", 0, 5);
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.droppedEvents(), 0u);
}

TEST(Tracer, OverflowCountsDroppedEventsInsteadOfGrowing)
{
    trace::Tracer t(/*maxEvents=*/2);
    t.instant("c", "a", 0, 1);
    t.instant("c", "b", 0, 2);
    t.instant("c", "c", 0, 3);
    EXPECT_EQ(t.eventCount(), 2u);
    EXPECT_EQ(t.droppedEvents(), 1u);
}

TEST(Tracer, AbsorbRehomesReplicationLanes)
{
    trace::Tracer rep;
    rep.instant("c", "n", 7, 10);
    trace::Tracer merged;
    merged.absorb(rep, /*pid=*/4);
    std::ostringstream os;
    merged.writeJson(os);
    EXPECT_NE(os.str().find("\"pid\":4"), std::string::npos);
    EXPECT_EQ(os.str().find("\"pid\":0"), std::string::npos);
}

TEST(Tracer, InternedCounterTracksDedupeAndRecordSamples)
{
    trace::Tracer t;
    // The names are built at runtime — the raw counter() path would
    // dangle; the interned path copies them into tracer-owned storage.
    std::string name = "prof/shard";
    auto a = t.counterTrack("prof", name + "0.exec_ms", 0);
    auto b = t.counterTrack("prof", name + "1.exec_ms", 1);
    auto a2 = t.counterTrack("prof", "prof/shard0.exec_ms", 0);
    ASSERT_TRUE(a.valid());
    EXPECT_EQ(a.id, a2.id) << "identical triple re-interned";
    EXPECT_NE(a.id, b.id);
    EXPECT_EQ(t.trackCount(), 2u);

    t.counterSample(a, 100, 1.5);
    t.counterSample(b, 100, 2.5);
    t.counterSample(a, 200, 3.5);
    EXPECT_EQ(t.eventCount(), 3u);

    std::ostringstream os;
    t.writeJson(os);
    EXPECT_NE(os.str().find("\"prof/shard0.exec_ms\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"prof/shard1.exec_ms\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
}

TEST(Tracer, AbsorbPreservesCounterTracksAcrossMerges)
{
    // The sweep fold: each replication's tracer dies after absorb(),
    // so the merged tracer must re-intern the source's track table —
    // a raw-pointer carry-over would dangle, and dropping the track
    // identity would collapse every counter into one anonymous lane.
    trace::Tracer master;
    for (std::uint32_t rep = 0; rep < 2; ++rep) {
        trace::Tracer worker;
        auto exec =
            worker.counterTrack("prof", "prof/shard0.exec_ms", 0);
        auto inbox =
            worker.counterTrack("prof", "prof/shard0.inbox", 0);
        worker.counterSample(exec, 100, 1.0 + rep);
        worker.counterSample(inbox, 100, 10.0 + rep);
        master.absorb(worker, /*pid=*/rep);
    } // worker (and its owned names) destroyed here
    EXPECT_EQ(master.eventCount(), 4u);

    std::ostringstream os;
    master.writeJson(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"prof/shard0.exec_ms\""), std::string::npos);
    EXPECT_NE(doc.find("\"prof/shard0.inbox\""), std::string::npos);
    // Both replication lanes survive with their values.
    EXPECT_NE(doc.find("\"pid\":0"), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(doc.find("11"), std::string::npos);

    // Absorbing into a tracer that already interned the same triple
    // must reuse the existing track, not grow a duplicate.
    trace::Tracer twice;
    auto own = twice.counterTrack("prof", "prof/shard0.exec_ms", 0);
    twice.counterSample(own, 50, 0.5);
    twice.absorb(master, /*pid=*/9);
    EXPECT_EQ(twice.trackCount(), 2u)
        << "absorb duplicated an identical (cat, name, tid) track";
}

// ---------------------------------------------------------- NoC probe

TEST(NocTrace, AccumulatesHopsDeliveriesAndUtilization)
{
    trace::Registry reg;
    trace::NocTrace probe(reg, /*linkCount=*/4, /*hopLatency=*/2);
    probe.onHop(1, 100);
    probe.onHop(1, 102);
    probe.onHop(2, 104);
    probe.onDeliver(0, 0, /*inject=*/100, /*now=*/110);
    probe.onDrop(3, 0, 120);

    EXPECT_EQ(probe.linkHops()[1], 2u);
    EXPECT_DOUBLE_EQ(probe.linkUtilization(1, /*elapsed=*/100), 0.04);
    EXPECT_DOUBLE_EQ(probe.maxLinkUtilization(100), 0.04);
    reg.sample(200);
    const auto &row = reg.snapshots().back();
    // Columns registered by the probe: hops, delivered, dropped, latency.
    const auto &schema = reg.schema();
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].name == "noc.hops")
            EXPECT_EQ(row.values[i], 3.0);
        if (schema[i].name == "noc.delivered")
            EXPECT_EQ(row.values[i], 1.0);
        if (schema[i].name == "noc.dropped")
            EXPECT_EQ(row.values[i], 1.0);
    }

    std::ostringstream csv;
    probe.writeLinkCsv(csv, /*elapsed=*/100);
    EXPECT_NE(csv.str().find("link,hops,utilization"),
              std::string::npos);
}

// ------------------------------------------------------- Soc sampling

// Regression: the Soc metrics sampler's strong self-reference must
// outlive run()'s event loop. A block-scoped owner dies before the
// loop starts, the tick-0 fire fails its weak lock, and the series
// silently collapses to a single tick-0 row.
TEST(Metrics, SocSamplerKeepsFiringAcrossTheWholeRun)
{
    soc::PmConfig pm;
    pm.kind = soc::PmKind::BlitzCoin;
    pm.alloc = coin::AllocPolicy::RelativeProportional;
    pm.budgetMw = soc::budgets::av15Percent;
    trace::Registry reg;
    soc::Soc s(soc::make3x3AvSoc(), pm, /*seed=*/7);
    s.attachMetrics(&reg, /*interval=*/4'096);
    workload::Dag dag = soc::avDependent(s.config(), /*frames=*/1);
    soc::SocRunStats st = s.run(dag);
    ASSERT_TRUE(st.completed);

    const auto &rows = reg.snapshots();
    // One row per interval over the whole run, first at tick 0,
    // strictly increasing on the fixed cadence.
    ASSERT_GE(rows.size(), 4u);
    EXPECT_EQ(rows.front().tick, 0u);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].tick, rows[i - 1].tick + 4'096);
    EXPECT_GE(rows.back().tick + 4'096, st.execTime);
}

// ----------------------------------------- sweep-merge thread identity

std::string
mergedSweepCsv(std::size_t threads)
{
    sweep::SweepOptions opts;
    opts.threads = threads;
    auto acc = sweep::runSweepFold<trace::MetricsSeries>(
        /*replications=*/6, /*rootSeed=*/77,
        [](std::size_t, std::uint64_t seed) {
            coin::EngineConfig cfg;
            trace::Registry reg;
            coin::MeshSim sim(noc::Topology::square(4), cfg, seed);
            trace::attachMeshMetrics(sim, reg, /*interval=*/512);
            for (std::size_t i = 0; i < sim.ledger().size(); ++i)
                sim.setMax(i, 8 << (i % 3));
            sim.clusterHas(120);
            sim.runFor(40'000);
            return reg.takeSeries();
        },
        [](trace::MetricsSeries &acc, const trace::MetricsSeries &s,
           std::size_t) { acc.merge(s); },
        trace::MetricsSeries{}, opts);
    std::ostringstream os;
    acc.writeCsv(os);
    return os.str();
}

TEST(Metrics, MergedSweepSeriesBitIdenticalAcrossThreadCounts)
{
    const std::string one = mergedSweepCsv(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, mergedSweepCsv(2));
    EXPECT_EQ(one, mergedSweepCsv(4));
}

// ------------------------------------------------ export-bytes pins
// Every export writer's bytes, pinned: the CSV/JSON/trace/health text
// of a seeded observed SoC run and of a merged two-lane tracer hashes
// to a digest recorded before the writers moved off iostream
// formatting. Any change to a number format, escaper or separator
// shows up here as a different digest.

/** FNV-1a over the raw bytes of @p s. */
std::uint64_t
fnv1aBytes(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Thermal trip plus one marginal shared rail: the plane engages. */
soc::PhysicsConfig
exportPinPhysics()
{
    soc::PhysicsConfig phys;
    phys.thermal.node.cJPerC = 1e-6;
    phys.trip.tripC = 50.0;
    phys.trip.releaseC = 49.5;
    phys.trip.capFraction = 0.4;
    soc::RailSpec rail;
    rail.rail.vNominal = 0.85;
    rail.rail.limitMa = 120.0;
    rail.rail.releaseFraction = 0.6;
    rail.capFraction = 0.4;
    rail.droopV = 0.05;
    phys.rails.push_back(rail);
    phys.enforce = true;
    return phys;
}

/** The seeded observed AV SoC run both SoC export pins read. */
struct ObservedAvSoc
{
    static soc::PmConfig
    pmConfig()
    {
        soc::PmConfig pm;
        pm.kind = soc::PmKind::BlitzCoin;
        pm.budgetMw = soc::budgets::av30Percent;
        return pm;
    }

    soc::PhysicsPlane plane{exportPinPhysics()};
    trace::Registry reg;
    trace::Tracer tracer;
    soc::Soc s{soc::make3x3AvSoc(), pmConfig(), /*seed=*/11};
    soc::SocRunStats st;

    ObservedAvSoc()
    {
        s.attachPhysics(plane);
        s.attachMetrics(&reg, sim::usToTicks(10.0));
        s.attachTrace(&tracer);
        st = s.run(soc::avDependent(s.config(), 1));
    }

    /** The health report's deterministic section (wallclock varies). */
    trace::HealthReport
    deterministicHealth() const
    {
        trace::HealthReport health;
        s.fillHealth(health);
        trace::HealthReport det;
        det.setRun(health.run());
        for (const trace::HealthReport::Entry &e : health.deterministic())
            det.setDet(e.first, e.second);
        return det;
    }
};

TEST(ExportBytes, ObservedAvSocExportMatchesRecordedDigest)
{
    const ObservedAvSoc run;
    ASSERT_TRUE(run.st.completed);
    ASSERT_GT(run.tracer.eventCount(), 1000u);
    ASSERT_GT(run.reg.snapshots().size(), 10u);

    std::ostringstream os;
    run.reg.writeCsv(os);
    run.reg.writeJson(os);
    run.tracer.writeJson(os);
    run.deterministicHealth().writeJson(os);
    // Re-recorded when tiles began cancelling superseded completion
    // events: the bytes carry the executed-events gauge and the queue
    // health keys, which the outcome pin below masks.
    EXPECT_EQ(fnv1aBytes(os.str()), 0xc0a0d6f3cdef6b8cull)
        << std::hex << fnv1aBytes(os.str()) << std::dec
        << " over " << os.str().size() << " bytes";
}

// The same run's outcome with the event kernel's own bookkeeping
// masked out: the executed-events gauge and the queue's executed,
// depth and batch high-water health keys count queue work, not
// simulated behavior, so they move whenever the kernel stops
// executing (or starts discarding) a no-op event. Everything else —
// run stats, every other metric column, the trace, every other health
// key — is pinned.
TEST(ExportBytes, ObservedAvSocOutcomeMatchesRecordedDigest)
{
    const ObservedAvSoc run;
    ASSERT_TRUE(run.st.completed);
    sim::Fnv1a d;
    d.u64(run.st.execTime).u64(run.st.nocPackets);
    d.u64(run.st.responseTicks.count()).f64(run.st.responseTicks.mean());
    d.u64(run.st.trace->sampleCount()).f64(run.st.trace->energyNj());

    const auto &schema = run.reg.schema();
    std::size_t masked = schema.size();
    for (std::size_t c = 0; c < schema.size(); ++c) {
        if (schema[c].name == "sim.events_executed")
            masked = c;
        else
            d.u64(fnv1aBytes(schema[c].name));
    }
    ASSERT_LT(masked, schema.size());
    for (const trace::Snapshot &row : run.reg.snapshots()) {
        d.u64(row.tick);
        for (std::size_t c = 0; c < row.values.size(); ++c)
            if (c != masked)
                d.f64(row.values[c]);
    }

    std::ostringstream os;
    run.tracer.writeJson(os);
    d.u64(fnv1aBytes(os.str()));

    std::size_t skipped = 0;
    const trace::HealthReport health = run.deterministicHealth();
    for (const trace::HealthReport::Entry &e : health.deterministic()) {
        if (e.first == "queue.executed" || e.first == "queue.depth_hwm" ||
            e.first == "queue.batch_hwm") {
            ++skipped;
            continue;
        }
        d.u64(fnv1aBytes(e.first)).f64(e.second);
    }
    EXPECT_EQ(skipped, 3u);
    EXPECT_EQ(d.value(), 0xefe94d5b22dc5c4bull) << std::hex << d.value();
}

TEST(ExportBytes, AbsorbedTwoLaneTracerMatchesRecordedDigest)
{
    trace::Tracer master;
    for (std::uint32_t rep = 0; rep < 2; ++rep) {
        trace::Tracer worker;
        worker.setPid(rep);
        auto exec = worker.counterTrack("prof", "prof/shard0.exec_ms", 0);
        auto quoted =
            worker.counterTrack("prof\\x", "say \"hi\"", 3 + rep);
        for (std::uint32_t i = 0; i < 8; ++i) {
            const sim::Tick at = 1'000ull * i + 7 * rep + 1;
            worker.counterSample(exec, at, 0.1 * i + rep / 3.0);
            worker.counterSample(quoted, at, -1e-7 * (i + 1) * (rep + 1));
            worker.complete("coin", "exchange", i, at, at + 801 * i,
                            {{"xid", std::int64_t{-42} * i},
                             {"outcome", i % 2 ? "ok" : "a\\b\"c"}});
            worker.instant("fault", "inject_drop", i, at + 3);
            worker.counter("pm", "power_mw", 0, at, 123.456789 * i);
        }
        master.absorb(worker, /*pid=*/rep);
    }
    master.counter("pm", "edge", 1, ~sim::Tick{0}, 1e300);
    ASSERT_EQ(master.trackCount(), 3u);

    std::ostringstream os;
    master.writeJson(os);
    EXPECT_EQ(fnv1aBytes(os.str()), 0x12b8596850aea201ull)
        << std::hex << fnv1aBytes(os.str()) << std::dec
        << " over " << os.str().size() << " bytes";
}

TEST(ExportBytes, HistogramJsonAndNocLinkCsvMatchRecordedDigest)
{
    trace::Registry reg;
    trace::NocTrace probe(reg, /*linkCount=*/6, /*hopLatency=*/3,
                          /*latencyHi=*/1000.0 / 3.0);
    sim::Histogram *h = reg.histogram("odd \"bins\"", -0.1, 0.7, 7);
    for (std::size_t i = 0; i < 40; ++i) {
        probe.onHop(i % 5, 10 * i);
        probe.onDeliver(0, 0, 5 * i, 5 * i + 17 * (i % 9));
        h->add(-0.2 + 0.023 * static_cast<double>(i));
    }
    reg.sample(1234);
    reg.sample(98765);

    std::ostringstream os;
    reg.writeCsv(os);
    reg.writeJson(os);
    probe.writeLinkCsv(os, /*elapsed=*/977);
    EXPECT_EQ(fnv1aBytes(os.str()), 0x05c96ea6874281e2ull)
        << std::hex << fnv1aBytes(os.str()) << std::dec
        << " over " << os.str().size() << " bytes";
}

// ------------------------------------- differential number formatting
// The printf/sscanf formatters the export writers used before
// ExportWriter, kept here as the reference it must reproduce byte for
// byte on every value.

/** Metrics CSV/JSON values: shortest %.Pg, P in 6..17, that round-trips. */
std::string
refRoundTrip(double v)
{
    char buf[40];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    return buf;
}

/** Tracer ts/dur (the buffer fits "%.4f" of DBL_MAX). */
std::string
refFixed4(double v)
{
    char buf[400];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return buf;
}

/** Tracer counter values and NoC link utilization. */
std::string
refGeneral6(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
refGeneral17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** HealthReport values: integers as %lld, the rest as %.17g. */
std::string
refHealth(double v)
{
    char buf[40];
    if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15)
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        return refGeneral17(v);
    return buf;
}

std::string
refQuoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

void
writeHealthValue(trace::ExportWriter &w, double v)
{
    // Writing through HealthReport itself pins the production policy.
    trace::HealthReport r;
    r.setDet("k", v);
    std::ostringstream os;
    r.writeJson(os);
    const std::string doc = os.str();
    const std::size_t at = doc.find("\"k\":") + 4;
    w.put(std::string_view(doc).substr(at, doc.find('}', at) - at));
}

/** ±0, subnormals, the range ends, non-finites, 2^53±1, every 2^k... */
std::vector<double>
edgeDoubles()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> v = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN, -DBL_MIN,
        DBL_MAX, -DBL_MAX, inf, -inf, nan, -nan,
        9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
        -9007199254740991.0, -9007199254740992.0, 1e-4, 1e-5, 123456.0,
        1234567.0, 0.125, 2.5, 0.00125, 1.5, -1.25, 0.1, 1.0 / 3.0,
        99999.95, 999999.5, 1e15, 1e16, 1e17, 1e21, 1e22, 1e23,
    };
    // Powers of two: the shortest form sits on the wide side of the
    // asymmetric rounding interval, where %.<P>g can miss (2^-44).
    for (int e = -1074; e <= 1023; ++e) {
        v.push_back(std::ldexp(1.0, e));
        v.push_back(-std::ldexp(1.0, e));
    }
    return v;
}

/**
 * @p count doubles from sim::Rng: raw bit patterns (every class of
 * double, non-finites included), integers below 2^53, metric-like
 * ratios, and tick-derived microseconds.
 */
std::vector<double>
rngDoubles(std::uint64_t seed, std::size_t count)
{
    sim::Rng rng(seed);
    std::vector<double> v;
    v.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t r = rng();
        switch (i % 4) {
          case 0: {
            double d;
            std::memcpy(&d, &r, sizeof d);
            v.push_back(d);
            break;
          }
          case 1:
            v.push_back(static_cast<double>(r >> (11 + rng() % 53)));
            break;
          case 2:
            v.push_back(static_cast<double>(r >> (rng() % 64)) /
                        static_cast<double>(1 + (rng() >> (rng() % 64))));
            break;
          default:
            v.push_back(sim::ticksToUs(r >> (rng() % 64)));
            break;
        }
    }
    return v;
}

/**
 * Render @p values newline-separated through one ExportWriter (so the
 * buffer flushes at every offset) and through @p ref; count the values
 * whose text differs and report the first.
 */
template <class Write, class Ref>
std::size_t
formatMismatches(const std::vector<double> &values, Write write, Ref ref,
                 std::string *first)
{
    std::ostringstream os;
    std::string expect;
    {
        trace::ExportWriter w(os);
        for (double v : values) {
            write(w, v);
            w.put('\n');
            expect += ref(v);
            expect += '\n';
        }
    }
    const std::string got = os.str();
    if (got == expect)
        return 0;
    std::size_t bad = 0;
    std::istringstream gs(got), es(expect);
    std::string g, e;
    for (double v : values) {
        std::getline(gs, g);
        std::getline(es, e);
        if (g == e)
            continue;
        if (bad++ == 0) {
            char hex[40];
            std::snprintf(hex, sizeof hex, "%a", v);
            *first = std::string(hex) + ": got " + g + ", want " + e;
        }
    }
    return bad;
}

/** The edge list plus 1M sim::Rng doubles, built once per binary. */
const std::vector<double> &
differentialDoubles()
{
    static const std::vector<double> values = [] {
        std::vector<double> v = edgeDoubles();
        const std::vector<double> random = rngDoubles(2024, 1'000'000);
        v.insert(v.end(), random.begin(), random.end());
        return v;
    }();
    return values;
}

TEST(ExportWriter, RoundTripMatchesSnprintfSscanfSearch)
{
    std::string first;
    EXPECT_EQ(formatMismatches(
                  differentialDoubles(),
                  [](trace::ExportWriter &w, double v) { w.roundTrip(v); },
                  refRoundTrip, &first),
              0u)
        << "first: " << first;

    // The narrow-side power of two really needs the search past the
    // shortest form's 16 digits.
    std::ostringstream os;
    trace::ExportWriter(os).roundTrip(std::ldexp(1.0, -44));
    EXPECT_EQ(os.str(), "5.6843418860808015e-14");
}

TEST(ExportWriter, GeneralMatchesPrintfG6AndG17)
{
    std::string first;
    EXPECT_EQ(formatMismatches(
                  differentialDoubles(),
                  [](trace::ExportWriter &w, double v) { w.general(v, 6); },
                  refGeneral6, &first),
              0u)
        << "%.6g, first: " << first;
    EXPECT_EQ(formatMismatches(
                  differentialDoubles(),
                  [](trace::ExportWriter &w, double v) { w.general(v, 17); },
                  refGeneral17, &first),
              0u)
        << "%.17g, first: " << first;
}

TEST(ExportWriter, FixedMatchesPrintfF4)
{
    std::string first;
    EXPECT_EQ(formatMismatches(
                  differentialDoubles(),
                  [](trace::ExportWriter &w, double v) { w.fixed(v, 4); },
                  refFixed4, &first),
              0u)
        << "first: " << first;
}

TEST(ExportWriter, HealthValuesMatchLldOrG17)
{
    // The integer/%.17g split, through HealthReport itself: one report
    // per value, so on the edges and the first 50k random doubles.
    const std::vector<double> &all = differentialDoubles();
    const std::vector<double> values(
        all.begin(),
        all.begin() + static_cast<std::ptrdiff_t>(edgeDoubles().size() +
                                                  50'000));
    std::string first;
    EXPECT_EQ(formatMismatches(values, writeHealthValue, refHealth, &first),
              0u)
        << "first: " << first;
}

TEST(ExportWriter, TickTimestampsMatchPrintfReference)
{
    // Tracer ts/dur: %.4f of ticksToUs over every tick magnitude.
    sim::Rng rng(77);
    std::vector<double> us;
    for (sim::Tick t : {sim::Tick{0}, sim::Tick{1}, sim::Tick{800},
                        (sim::Tick{1} << 53) - 1, (sim::Tick{1} << 53) + 1,
                        ~sim::Tick{0}})
        us.push_back(sim::ticksToUs(t));
    for (std::size_t i = 0; i < 1'000'000; ++i)
        us.push_back(sim::ticksToUs(rng() >> (rng() % 64)));
    std::string first;
    EXPECT_EQ(formatMismatches(
                  us,
                  [](trace::ExportWriter &w, double v) { w.fixed(v, 4); },
                  refFixed4, &first),
              0u)
        << first;
}

TEST(ExportWriter, IntegersAndEscapedStringsMatchReference)
{
    sim::Rng rng(5);
    std::ostringstream os;
    std::string expect;
    {
        trace::ExportWriter w(os);
        const char alphabet[] = "ab\"\\ c\\\"";
        for (std::size_t i = 0; i < 20'000; ++i) {
            // Mostly short strings; a few longer than the buffer.
            const std::size_t len =
                i % 997 == 0 ? 4'000 + rng() % 9'000 : rng() % 64;
            std::string s;
            for (std::size_t k = 0; k < len; ++k)
                s += alphabet[rng() % (sizeof alphabet - 1)];
            w.quoted(s);
            expect += refQuoted(s);

            const std::uint64_t u = rng() >> (rng() % 64);
            const auto n = static_cast<std::int64_t>(rng());
            w.put(',').u64(u).put(',').i64(n).put('\n');
            char buf[64];
            std::snprintf(buf, sizeof buf, ",%llu,%lld\n",
                          static_cast<unsigned long long>(u),
                          static_cast<long long>(n));
            expect += buf;
        }
        w.i64(std::numeric_limits<std::int64_t>::min());
        w.u64(std::numeric_limits<std::uint64_t>::max());
        expect += "-922337203685477580818446744073709551615";
    }
    EXPECT_TRUE(os.str() == expect) << "escaped strings or integers differ";
}

} // namespace
