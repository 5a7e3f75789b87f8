/**
 * @file
 * Metric registry implementation.
 */

#include "telemetry/metrics.hh"

#include <algorithm>

#include "util/log.hh"

namespace gippr::telemetry
{

FixedHistogram::FixedHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    if (bounds_.empty())
        fatal("FixedHistogram: needs at least one bucket bound");
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        fatal("FixedHistogram: bounds must be ascending");
    buckets_ = std::make_unique<std::atomic<uint64_t>[]>(
        bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
FixedHistogram::observe(double value)
{
    size_t idx = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // CAS loop: portable double accumulation (atomic<double>::fetch_add
    // is C++20 but spotty across standard libraries).
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed))
        ;
}

uint64_t
FixedHistogram::bucketCount(size_t i) const
{
    if (i > bounds_.size())
        fatal("FixedHistogram: bucket index out of range");
    return buckets_[i].load(std::memory_order_relaxed);
}

uint64_t
FixedHistogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
FixedHistogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

FixedHistogram &
MetricRegistry::histogram(const std::string &name,
                          const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<FixedHistogram>(bounds);
    else if (slot->bounds() != bounds)
        fatal("MetricRegistry: histogram '" + name +
              "' re-registered with different bounds");
    return *slot;
}

size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

JsonValue
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonValue out = JsonValue::object();
    for (const auto &[name, c] : counters_)
        out.set(name, JsonValue(c->value()));
    for (const auto &[name, g] : gauges_)
        out.set(name, JsonValue(g->value()));
    for (const auto &[name, h] : histograms_) {
        JsonValue hist = JsonValue::object();
        JsonValue bounds = JsonValue::array();
        JsonValue counts = JsonValue::array();
        for (double b : h->bounds())
            bounds.push(JsonValue(b));
        for (size_t i = 0; i <= h->bounds().size(); ++i)
            counts.push(JsonValue(h->bucketCount(i)));
        hist.set("bounds", std::move(bounds));
        hist.set("counts", std::move(counts));
        hist.set("count", JsonValue(h->count()));
        hist.set("sum", JsonValue(h->sum()));
        out.set(name, std::move(hist));
    }
    return out;
}

} // namespace gippr::telemetry
