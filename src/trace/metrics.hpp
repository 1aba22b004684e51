/**
 * @file
 * Metrics registry: the time-series half of the observability plane.
 *
 * A Registry holds named metrics — monotonic counters, set gauges,
 * sampled gauges (a callback evaluated at snapshot time), and fixed-bin
 * histograms — and appends one Snapshot of every metric each time
 * sample() is called. Hook sites hold raw slot handles, so recording is
 * a single integer add with no lookup; components that already keep
 * their own counters are read through sampled gauges instead, which
 * costs the hot path nothing at all.
 *
 * Determinism contract (see DESIGN.md "Observability plane"): every
 * value in a snapshot derives from simulator state at an exact tick,
 * never from wall-clock or allocation addresses, so a (seed, config)
 * pair fully determines the series. Per-replication series from a
 * sweep merge in replication-index order (MetricsSeries::merge via
 * sweep::runSweepFold), making the merged series bit-identical at any
 * thread count.
 *
 * Snapshots flatten every metric to a double column: counters and
 * gauges report their value, histograms report their cumulative sample
 * count (full bin contents appear in the JSON export only — a
 * time-series of distributions does not fit a CSV column).
 */

#ifndef BLITZ_TRACE_METRICS_HPP
#define BLITZ_TRACE_METRICS_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace blitz::trace {

/** How a metric accumulates and what its snapshot column means. */
enum class MetricKind : std::uint8_t
{
    Counter,   ///< monotonic u64, bumped by hook sites
    Gauge,     ///< last-set double
    Sampled,   ///< callback evaluated at snapshot time
    Histogram, ///< fixed-bin distribution; column = cumulative count
};

const char *metricKindName(MetricKind k);

/** Hot-path handle to a counter slot (8-byte add, no lookup). */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n = 1)
    {
        *slot_ += n;
    }

    std::uint64_t value() const { return *slot_; }

  private:
    friend class Registry;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}
    std::uint64_t *slot_ = nullptr;
};

/** Hot-path handle to a gauge slot. */
class Gauge
{
  public:
    Gauge() = default;

    void set(double v) { *slot_ = v; }
    double value() const { return *slot_; }

  private:
    friend class Registry;
    explicit Gauge(double *slot) : slot_(slot) {}
    double *slot_ = nullptr;
};

/** One row of the series: every metric flattened at one tick. */
struct Snapshot
{
    sim::Tick tick = 0;
    std::vector<double> values; ///< schema order
};

/** Name + kind of one column, in registration order. */
struct MetricDesc
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
};

/**
 * Detached snapshot series: the schema plus the sampled rows, without
 * the live slots. This is what sweep trials return and what the fold
 * merges; Registry::series() exposes its own rows in the same shape.
 */
class MetricsSeries
{
  public:
    const std::vector<MetricDesc> &schema() const { return schema_; }
    const std::vector<Snapshot> &snapshots() const { return rows_; }

    /**
     * Number of replications folded into each row (1 for a plain
     * registry series). Rows beyond a short replication's end keep the
     * coverage of the replications that reached them.
     */
    const std::vector<std::uint32_t> &coverage() const { return cov_; }

    bool empty() const { return rows_.empty(); }

    /**
     * Fold another replication's series into this one.
     *
     * Schemas must match. Rows align by index: where both series have
     * a row the ticks must agree and the values are summed column-wise
     * (downstream divides by coverage() for per-replication means);
     * the longer series' tail is appended as-is. Folding in
     * replication-index order — what sweep::runSweepFold guarantees —
     * therefore yields a bit-identical result at any thread count.
     */
    void merge(const MetricsSeries &other);

    /** "tick,cov,<name>..." header plus one row per snapshot. */
    void writeCsv(std::ostream &os) const;

    /** Schema + rows as one JSON object. */
    void writeJson(std::ostream &os) const;

  private:
    friend class Registry;
    std::vector<MetricDesc> schema_;
    std::vector<Snapshot> rows_;
    std::vector<std::uint32_t> cov_;
};

/**
 * Named-metric registry with snapshot recording.
 *
 * Registration order defines the column order; register everything
 * before the first sample() — adding a metric afterwards panics, since
 * earlier rows would be missing the column.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register a counter; the handle stays valid for the Registry's life. */
    Counter counter(std::string name);

    /** Register a gauge. */
    Gauge gauge(std::string name);

    /** Register a gauge evaluated by callback at each sample(). */
    void sampled(std::string name, std::function<double()> fn);

    /** Register a histogram; add() samples through the returned pointer. */
    sim::Histogram *histogram(std::string name, double lo, double hi,
                              std::size_t bins);

    std::size_t metricCount() const { return schema_.size(); }
    const std::vector<MetricDesc> &schema() const { return schema_; }

    /** Append one snapshot of every metric at @p tick. */
    void sample(sim::Tick tick);

    /** Rows recorded so far. */
    const std::vector<Snapshot> &snapshots() const
    {
        return series_.rows_;
    }

    /**
     * Observer invoked after each sample() with the appended row —
     * the invariant tests hang their per-snapshot assertions here.
     */
    std::function<void(const Snapshot &)> onSample;

    /** Copy out the recorded series (schema + rows, coverage 1). */
    MetricsSeries series() const;

    /** Move out the recorded series, leaving the registry empty of rows. */
    MetricsSeries takeSeries();

    /** CSV of the recorded series (see MetricsSeries::writeCsv). */
    void writeCsv(std::ostream &os) const;

    /**
     * JSON of the recorded series plus, unlike the CSV, the full bin
     * contents of every histogram at their final state.
     */
    void writeJson(std::ostream &os) const;

  private:
    void addMetric(std::string name, MetricKind kind);
    /** The series' schema, or the registered one before any row. */
    const std::vector<MetricDesc> &exportSchema() const;

    std::vector<MetricDesc> schema_;
    /** Parallel to schema_: which slot index backs each column. */
    std::vector<std::size_t> slotOf_;
    // Deques keep slot addresses stable across registration.
    std::deque<std::uint64_t> counterSlots_;
    std::deque<double> gaugeSlots_;
    std::vector<std::function<double()>> sampledFns_;
    std::deque<sim::Histogram> histSlots_;
    MetricsSeries series_;
};

} // namespace blitz::trace

#endif // BLITZ_TRACE_METRICS_HPP
