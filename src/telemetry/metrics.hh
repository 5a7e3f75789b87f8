/**
 * @file
 * Named metric instruments: counters, gauges and fixed-bucket
 * histograms, owned by a MetricRegistry.
 *
 * Hot-path cost model:
 *  - lookup (`registry.counter("x")`) takes a mutex and is meant for
 *    setup code; callers cache the returned reference,
 *  - increments/observations are lock-free relaxed atomics and safe
 *    from any number of threads.
 *
 * Instruments live as long as their registry; references returned by
 * the registry are stable (node-based storage).
 */

#ifndef GIPPR_TELEMETRY_METRICS_HH_
#define GIPPR_TELEMETRY_METRICS_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hh"

namespace gippr::telemetry
{

/** Monotonic event count. */
class Counter
{
  public:
    void
    increment(uint64_t by = 1)
    {
        value_.fetch_add(by, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-written scalar (e.g. current duel winner, population size). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Histogram over fixed bucket upper bounds (ascending), plus an
 * implicit overflow bucket.  An observation lands in the first bucket
 * whose bound it does not exceed.
 */
class FixedHistogram
{
  public:
    explicit FixedHistogram(std::vector<double> bounds);

    void observe(double value);

    /** Count in bucket @p i; i == bounds().size() is the overflow. */
    uint64_t bucketCount(size_t i) const;

    const std::vector<double> &bounds() const { return bounds_; }
    uint64_t count() const;
    double sum() const;

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Owns instruments by name.  Lookup creates on first use and returns
 * the existing instrument afterwards; concurrent lookups are
 * serialized by a mutex, instrument updates are lock-free.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * Histogram with @p bounds (ascending upper bounds).  Repeated
     * lookups must pass identical bounds; fatal() otherwise.
     */
    FixedHistogram &histogram(const std::string &name,
                              const std::vector<double> &bounds);

    /** Number of registered instruments (all kinds). */
    size_t size() const;

    /**
     * Snapshot every instrument into a JSON object keyed by metric
     * name: counters/gauges as numbers, histograms as
     * {"bounds": [...], "counts": [...], "count": n, "sum": s}.
     */
    JsonValue snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_;
};

} // namespace gippr::telemetry

#endif // GIPPR_TELEMETRY_METRICS_HH_
