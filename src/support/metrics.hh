/**
 * @file
 * MetricsRegistry: named, labeled counters, gauges and histograms for
 * the unified telemetry layer (DESIGN.md, "Telemetry & reporting").
 *
 * The registry is a passive container: producers (the Machine, the
 * MAC unit, the fault campaign, benches) create or look up metrics by
 * (name, label set) and bump them; consumers take snapshots — a
 * human-readable text table, or JSON lines through the same escaping
 * rules as every other emitter (support/json.hh) so downstream
 * tooling (tools/jaavr_report.cc) can parse them back.
 *
 * Metrics are identified by a name plus an ordered list of
 * key="value" labels; the same (name, labels) pair always returns the
 * same instance. Iteration order is deterministic (lexicographic by
 * name, then by serialized labels), so two identical runs produce
 * byte-identical snapshots — the property the VCD writer and the
 * regression gate rely on throughout this subsystem.
 *
 * This is intentionally not an atomics-based concurrent registry: the
 * ISS is single-threaded and the hot path never touches the registry
 * (metrics are published from retired statistics, not per
 * instruction), so plain counters keep the observer cost zero.
 */

#ifndef JAAVR_SUPPORT_METRICS_HH
#define JAAVR_SUPPORT_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hh"

namespace jaavr
{

/** Ordered key/value label set attached to a metric instance. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/** Monotonically increasing integer metric. */
class Counter
{
  public:
    void inc(uint64_t delta = 1) { val += delta; }
    uint64_t value() const { return val; }

  private:
    uint64_t val = 0;
};

/** Last-value metric (levels: depth, SP, rates, ratios). */
class Gauge
{
  public:
    void set(double v) { val = v; }
    double value() const { return val; }

  private:
    double val = 0;
};

/**
 * Log-linear (HDR-style) histogram: no bounds to configure, at most
 * 1/128 relative bucket width, exact count/sum/min/max, and an exact
 * merge.
 *
 * A value v = m * 2^e (std::frexp, m in [0.5, 1)) lands in one of
 * kSubBuckets linear sub-buckets of its power of two, indexed by the
 * top mantissa bits. The layout covers [0.5, 2^kMaxExp) — about
 * 0.5 to 10^9; smaller values share an underflow bucket and larger
 * ones clamp into the last bucket. Bucket storage grows on demand up
 * to the largest index observed.
 */
class Histogram
{
  public:
    static constexpr int kSubBits = 7;
    static constexpr int kSubBuckets = 1 << kSubBits;
    static constexpr int kMaxExp = 30;

    void observe(double v, uint64_t weight = 1);

    /** Add @p o's observations; exact (counts add, min/max combine). */
    void merge(const Histogram &o);

    uint64_t count() const { return total; }
    double sum() const { return sumV; }
    double mean() const { return total ? sumV / double(total) : 0.0; }
    double min() const { return minV; }
    double max() const { return maxV; }

    /**
     * Nearest-rank percentile for @p p in [0, 100] (clamped): rank
     * ceil(p/100 * n), clamped to [1, n]. Ranks 1 and n return the
     * exact min and max; any other rank returns the lower bound of
     * the bucket holding it (relative error < 1/128) clamped to
     * [min, max]. Integers below 2 * kSubBuckets get a bucket each,
     * so their percentiles are exact, as are a single-valued
     * histogram's. An empty histogram returns 0.
     */
    double percentile(double p) const;

  private:
    static size_t bucketOf(double v);
    static double bucketValue(size_t i);

    std::vector<uint64_t> counts; ///< [0] = underflow (< 0.5)
    uint64_t total = 0;
    double sumV = 0;
    double minV = 0;
    double maxV = 0;
};

class MetricsRegistry
{
  public:
    /**
     * Look up or create the counter @p name with @p labels. The
     * returned reference stays valid for the registry's lifetime.
     */
    Counter &counter(const std::string &name,
                     const MetricLabels &labels = {});

    Gauge &gauge(const std::string &name, const MetricLabels &labels = {});

    Histogram &histogram(const std::string &name,
                         const MetricLabels &labels = {});

    /** Number of registered metric instances (all three kinds). */
    size_t size() const;

    /** Drop every registered metric. */
    void clear();

    /**
     * Human-readable snapshot, one line per metric instance:
     *   counter   mac_alg2_triggers{mode="ise"} 200
     *   histogram inst_cycles{mode="ise"} count=552 sum=552 mean=1 p50=1 ...
     * Deterministically ordered.
     */
    std::string textSnapshot() const;

    /**
     * One JsonLine per metric instance: {"metric":..,"type":..,
     * "value":..} with the labels flattened into string fields and
     * every field of @p stamp prepended (run metadata). Histograms
     * carry count/sum/mean/p50/p90/p99/max.
     */
    std::vector<JsonLine> jsonSnapshot(const JsonLine &stamp = {}) const;

    /** Append jsonSnapshot() to the JSON-lines file @p path. */
    bool writeJsonLines(const std::string &path,
                        const JsonLine &stamp = {}) const;

  private:
    /** Serialized '{k="v",...}' suffix; "" for label-free metrics. */
    static std::string labelKey(const MetricLabels &labels);

    struct Key
    {
        std::string name;
        std::string labels; ///< serialized, for deterministic order

        bool operator<(const Key &o) const
        {
            return name != o.name ? name < o.name : labels < o.labels;
        }
    };

    // node-based maps: references stay valid across inserts.
    std::map<Key, Counter> counters;
    std::map<Key, Gauge> gauges;
    std::map<Key, Histogram> histograms;
    std::map<Key, MetricLabels> labelSets; ///< for JSON flattening
};

} // namespace jaavr

#endif // JAAVR_SUPPORT_METRICS_HH
