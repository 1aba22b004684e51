#include "metrics.hpp"

#include "export_writer.hpp"
#include "sim/logging.hpp"

namespace blitz::trace {

namespace {

// The series writers take the parts rather than a MetricsSeries so the
// Registry can export its live series without copying it.

void
writeSeriesCsv(ExportWriter &w, const std::vector<MetricDesc> &schema,
               const std::vector<Snapshot> &rows,
               const std::vector<std::uint32_t> &cov)
{
    w.put("tick,cov");
    for (const MetricDesc &d : schema)
        w.put(',').put(d.name);
    w.put('\n');
    for (std::size_t r = 0; r < rows.size(); ++r) {
        w.u64(rows[r].tick).put(',').u64(cov[r]);
        for (double v : rows[r].values)
            w.put(',').roundTrip(v);
        w.put('\n');
    }
}

void
writeSeriesJson(ExportWriter &w, const std::vector<MetricDesc> &schema,
                const std::vector<Snapshot> &rows,
                const std::vector<std::uint32_t> &cov)
{
    w.put("{\"schema\":[");
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (i)
            w.put(',');
        w.put("{\"name\":").quoted(schema[i].name);
        w.put(",\"kind\":\"").put(metricKindName(schema[i].kind));
        w.put("\"}");
    }
    w.put("],\"snapshots\":[");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r)
            w.put(',');
        w.put("{\"tick\":").u64(rows[r].tick);
        w.put(",\"cov\":").u64(cov[r]).put(",\"values\":[");
        for (std::size_t c = 0; c < rows[r].values.size(); ++c) {
            if (c)
                w.put(',');
            w.roundTrip(rows[r].values[c]);
        }
        w.put("]}");
    }
    w.put("]}");
}

} // namespace

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter:   return "counter";
      case MetricKind::Gauge:     return "gauge";
      case MetricKind::Sampled:   return "sampled";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

void
Registry::addMetric(std::string name, MetricKind kind)
{
    BLITZ_ASSERT(series_.rows_.empty(),
                 "metric '", name,
                 "' registered after the first snapshot");
    for (const MetricDesc &d : schema_)
        BLITZ_ASSERT(d.name != name, "duplicate metric '", name, "'");
    schema_.push_back(MetricDesc{std::move(name), kind});
}

Counter
Registry::counter(std::string name)
{
    addMetric(std::move(name), MetricKind::Counter);
    counterSlots_.push_back(0);
    slotOf_.push_back(counterSlots_.size() - 1);
    return Counter{&counterSlots_.back()};
}

Gauge
Registry::gauge(std::string name)
{
    addMetric(std::move(name), MetricKind::Gauge);
    gaugeSlots_.push_back(0.0);
    slotOf_.push_back(gaugeSlots_.size() - 1);
    return Gauge{&gaugeSlots_.back()};
}

void
Registry::sampled(std::string name, std::function<double()> fn)
{
    BLITZ_ASSERT(fn, "sampled metric '", name, "' needs a callback");
    addMetric(std::move(name), MetricKind::Sampled);
    sampledFns_.push_back(std::move(fn));
    slotOf_.push_back(sampledFns_.size() - 1);
}

sim::Histogram *
Registry::histogram(std::string name, double lo, double hi,
                    std::size_t bins)
{
    addMetric(std::move(name), MetricKind::Histogram);
    histSlots_.emplace_back(lo, hi, bins);
    slotOf_.push_back(histSlots_.size() - 1);
    return &histSlots_.back();
}

void
Registry::sample(sim::Tick tick)
{
    Snapshot row;
    row.tick = tick;
    row.values.reserve(schema_.size());
    for (std::size_t i = 0; i < schema_.size(); ++i) {
        const std::size_t s = slotOf_[i];
        switch (schema_[i].kind) {
          case MetricKind::Counter:
            row.values.push_back(
                static_cast<double>(counterSlots_[s]));
            break;
          case MetricKind::Gauge:
            row.values.push_back(gaugeSlots_[s]);
            break;
          case MetricKind::Sampled:
            row.values.push_back(sampledFns_[s]());
            break;
          case MetricKind::Histogram:
            row.values.push_back(
                static_cast<double>(histSlots_[s].total()));
            break;
        }
    }
    if (series_.schema_.empty())
        series_.schema_ = schema_;
    series_.rows_.push_back(std::move(row));
    series_.cov_.push_back(1);
    if (onSample)
        onSample(series_.rows_.back());
}

MetricsSeries
Registry::series() const
{
    MetricsSeries out = series_;
    if (out.schema_.empty())
        out.schema_ = schema_; // no rows yet: still export the schema
    return out;
}

MetricsSeries
Registry::takeSeries()
{
    if (series_.schema_.empty())
        series_.schema_ = schema_;
    MetricsSeries out = std::move(series_);
    series_ = MetricsSeries{};
    return out;
}

const std::vector<MetricDesc> &
Registry::exportSchema() const
{
    // No rows yet: still export the schema.
    return series_.schema_.empty() ? schema_ : series_.schema_;
}

void
Registry::writeCsv(std::ostream &os) const
{
    ExportWriter w(os);
    writeSeriesCsv(w, exportSchema(), series_.rows_, series_.cov_);
}

void
Registry::writeJson(std::ostream &os) const
{
    ExportWriter w(os);
    w.put("{\"series\":");
    writeSeriesJson(w, exportSchema(), series_.rows_, series_.cov_);
    w.put(",\"histograms\":{");
    bool first = true;
    for (std::size_t i = 0; i < schema_.size(); ++i) {
        if (schema_[i].kind != MetricKind::Histogram)
            continue;
        if (!first)
            w.put(',');
        first = false;
        const sim::Histogram &h = histSlots_[slotOf_[i]];
        w.quoted(schema_[i].name).put(":{\"underflow\":").u64(h.underflow());
        w.put(",\"overflow\":").u64(h.overflow()).put(",\"bins\":[");
        for (std::size_t b = 0; b < h.bins(); ++b) {
            if (b)
                w.put(',');
            w.put("{\"lo\":").roundTrip(h.binLow(b));
            w.put(",\"hi\":").roundTrip(h.binHigh(b));
            w.put(",\"count\":").u64(h.binCount(b)).put('}');
        }
        w.put("]}");
    }
    w.put("}}");
}

void
MetricsSeries::merge(const MetricsSeries &other)
{
    if (other.schema_.empty())
        return;
    if (schema_.empty()) {
        *this = other;
        return;
    }
    BLITZ_ASSERT(schema_.size() == other.schema_.size(),
                 "merging metric series with different schemas");
    for (std::size_t i = 0; i < schema_.size(); ++i) {
        BLITZ_ASSERT(schema_[i].name == other.schema_[i].name,
                     "merging metric series with different schemas (",
                     schema_[i].name, " vs ", other.schema_[i].name,
                     ")");
    }
    const std::size_t shared = std::min(rows_.size(),
                                        other.rows_.size());
    for (std::size_t r = 0; r < shared; ++r) {
        BLITZ_ASSERT(rows_[r].tick == other.rows_[r].tick,
                     "merging metric series with misaligned ticks");
        for (std::size_t c = 0; c < rows_[r].values.size(); ++c)
            rows_[r].values[c] += other.rows_[r].values[c];
        cov_[r] += other.cov_[r];
    }
    for (std::size_t r = shared; r < other.rows_.size(); ++r) {
        rows_.push_back(other.rows_[r]);
        cov_.push_back(other.cov_[r]);
    }
}

void
MetricsSeries::writeCsv(std::ostream &os) const
{
    ExportWriter w(os);
    writeSeriesCsv(w, schema_, rows_, cov_);
}

void
MetricsSeries::writeJson(std::ostream &os) const
{
    ExportWriter w(os);
    writeSeriesJson(w, schema_, rows_, cov_);
}

} // namespace blitz::trace
