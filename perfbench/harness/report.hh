/**
 * @file
 * The benchmark's result record: the metric catalogue (names, units,
 * directions — mirrored by BENCHMARK.json), failure accounting, and
 * the one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics: printed by every untraced run. */
const std::vector<MetricSpec> &endToEndMetrics();

/**
 * Per-layer metrics: printed by every traced run. A layer that a
 * workload does not exercise reads 0 (e.g. the service layers on the
 * ISS ladder workloads).
 */
const std::vector<MetricSpec> &perLayerMetrics();

/** Outcome of one run: failure accounting plus named metric values. */
class Report
{
  public:
    /** Starts with every metric of the chosen set at 0. */
    explicit Report(bool traced);

    /** Set a catalogued metric; an unknown name is a harness bug. */
    void set(const std::string &name, double value);

    /** One checked operation; @p ok false counts it as failed. */
    void attempt(bool ok)
    {
        attemptedV++;
        if (!ok)
            failedV++;
    }

    /** A result that disagrees with the golden model. */
    void mismatch(const std::string &what);

    bool correct() const { return mismatches == 0; }
    double failedRatio() const
    {
        return attemptedV ? double(failedV) / double(attemptedV) : 0.0;
    }

    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;

  private:
    struct Value
    {
        MetricSpec spec;
        double value = 0;
    };

    std::vector<Value> values;
    uint64_t attemptedV = 0;
    uint64_t failedV = 0;
    uint64_t mismatches = 0;
};

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
