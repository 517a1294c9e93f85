/**
 * @file
 * Sample statistics shared by every workload: nearest-rank
 * percentiles with the sample-count rule, open-loop due times, and
 * the cycle ledger.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Rank (1-based) of the nearest-rank @p p-th percentile of @p n. */
inline size_t
percentileRank(size_t n, double p)
{
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(n)));
    return std::clamp<size_t>(rank, 1, n);
}

/** Samples strictly above the @p p-th percentile's rank. */
inline size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - percentileRank(n, p);
}

/**
 * A percentile is reported only when at least this many samples lie
 * beyond it; workloads keep measuring past their deadline until the
 * percentiles they report have that support.
 */
constexpr size_t kMinBeyond = 10;

/** Smallest sample count for which the @p p-th percentile is supported. */
inline size_t
minSamplesFor(double p)
{
    size_t n = 1;
    while (samplesBeyond(n, p) < kMinBeyond)
        n++;
    return n;
}

/** Nearest-rank percentile of an ascending sample; 0 when empty. */
inline double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    return sorted[percentileRank(sorted.size(), p) - 1];
}

/** Median and tail of one timing, with its sample count. */
struct Summary
{
    size_t n = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
};

inline Summary
summarize(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Summary s;
    s.n = v.size();
    s.p50 = percentileSorted(v, 50);
    s.p95 = percentileSorted(v, 95);
    s.p99 = percentileSorted(v, 99);
    return s;
}

/** Median of a sample (nearest rank); 0 when empty. */
inline double
median(std::vector<double> v)
{
    return summarize(std::move(v)).p50;
}

/** A latency window holds at least this many operations. */
constexpr size_t kMinWindow = 1000;
constexpr size_t kMaxWindows = 10;

/**
 * The run's 95th percentile, robust to a transient host stall: the
 * samples, in completion order, are cut into up to kMaxWindows equal
 * consecutive windows of at least kMinWindow operations (50 beyond
 * each window's p95), and the median of the windows' p95s is
 * returned. With room for fewer than three windows, where a median
 * of windows means little, it is the plain p95.
 */
inline double
windowedP95(const std::vector<double> &ordered)
{
    size_t n = ordered.size();
    size_t k = std::min(n / kMinWindow, kMaxWindows);
    if (k < 3)
        k = 1;
    std::vector<double> p95s;
    for (size_t w = 0; w < k; w++)
        p95s.push_back(summarize(std::vector<double>(
                                     ordered.begin() + w * n / k,
                                     ordered.begin() + (w + 1) * n / k))
                           .p95);
    return median(p95s);
}

/**
 * Set-up time is sampled in two phases, one before and one after the
 * measurement, so that one moment of host load does not decide it.
 * Each phase repeats the set-up back to back for this long.
 */
constexpr double kSetupPhaseSeconds = 1.5;
constexpr size_t kSetupPhaseMinReps = 5;

/** Append the seconds @p once reports, for one set-up phase. */
template <class F>
void
setupPhase(F &&once, std::vector<double> &out)
{
    Clock::time_point end = Clock::now() + toDuration(kSetupPhaseSeconds);
    for (size_t i = 0; i < kSetupPhaseMinReps || Clock::now() < end; i++)
        out.push_back(once());
}

/**
 * Open-loop schedule: request @p j of a stream at a fixed @p rate
 * (requests per second) is due this many nanoseconds after the
 * stream's start. Computed from j, never by accumulating intervals,
 * so rounding cannot drift the schedule.
 */
inline int64_t
dueOffsetNs(uint64_t j, double rate)
{
    return static_cast<int64_t>(std::llround(double(j) * 1e9 / rate));
}

/**
 * ISS cycle ledger: the per-call cycle counts the library returns,
 * summed over one region, against the machine's own cycle counter
 * across that region. Every simulated cycle belongs to exactly one
 * routine call, so the ratio is exactly 1.
 */
struct CycleLedger
{
    uint64_t callCycles = 0;    ///< sum of per-call cycles
    uint64_t machineCycles = 0; ///< Machine::stats() cycle delta

    void addCall(uint64_t cycles) { callCycles += cycles; }
    void addRegion(uint64_t delta) { machineCycles += delta; }
    double ratio() const
    {
        return machineCycles ? double(callCycles) / double(machineCycles)
                             : 0.0;
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
