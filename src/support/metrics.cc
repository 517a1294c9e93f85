#include "support/metrics.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace jaavr
{

size_t
Histogram::bucketOf(double v)
{
    if (!(v >= 0.5))
        return 0;
    int e;
    double m = std::frexp(v, &e);
    if (e > kMaxExp)
        return size_t(kMaxExp + 1) * kSubBuckets; // last bucket
    // Exact scaling by a power of two: m * 2 * kSub is in [kSub, 2 kSub).
    auto sub = size_t(m * 2 * kSubBuckets) - kSubBuckets;
    return 1 + size_t(e) * kSubBuckets + sub;
}

double
Histogram::bucketValue(size_t i)
{
    if (i == 0)
        return 0; // underflow: clamped up to min by percentile()
    size_t e = (i - 1) / kSubBuckets;
    size_t sub = (i - 1) % kSubBuckets;
    // Lower bound of [kSub + sub, kSub + sub + 1) * 2^e / (2 * kSub).
    return std::ldexp(double(kSubBuckets + sub), int(e) - kSubBits - 1);
}

void
Histogram::observe(double v, uint64_t weight)
{
    size_t i = bucketOf(v);
    if (i >= counts.size())
        counts.resize(i + 1, 0);
    counts[i] += weight;
    minV = total ? std::min(minV, v) : v;
    maxV = total ? std::max(maxV, v) : v;
    total += weight;
    sumV += v * double(weight);
}

void
Histogram::merge(const Histogram &o)
{
    if (o.total == 0)
        return;
    if (o.counts.size() > counts.size())
        counts.resize(o.counts.size(), 0);
    for (size_t i = 0; i < o.counts.size(); i++)
        counts[i] += o.counts[i];
    minV = total ? std::min(minV, o.minV) : o.minV;
    maxV = total ? std::max(maxV, o.maxV) : o.maxV;
    total += o.total;
    sumV += o.sumV;
}

double
Histogram::percentile(double p) const
{
    if (total == 0)
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    auto rank = std::clamp<uint64_t>(
        uint64_t(std::ceil(p / 100.0 * double(total))), 1, total);
    // The first and last ranks are the exact extremes.
    if (rank == 1)
        return minV;
    if (rank == total)
        return maxV;
    uint64_t seen = 0;
    size_t i = 0;
    while (seen + counts[i] < rank)
        seen += counts[i++];
    return std::clamp(bucketValue(i), minV, maxV);
}

std::string
MetricsRegistry::labelKey(const MetricLabels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); i++) {
        out += (i ? "," : "") + labels[i].first + "=\"" +
               labels[i].second + "\"";
    }
    return out + "}";
}

Counter &
MetricsRegistry::counter(const std::string &name, const MetricLabels &labels)
{
    Key k{name, labelKey(labels)};
    labelSets.emplace(k, labels);
    return counters[k];
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const MetricLabels &labels)
{
    Key k{name, labelKey(labels)};
    labelSets.emplace(k, labels);
    return gauges[k];
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const MetricLabels &labels)
{
    Key k{name, labelKey(labels)};
    labelSets.emplace(k, labels);
    return histograms[k];
}

size_t
MetricsRegistry::size() const
{
    return counters.size() + gauges.size() + histograms.size();
}

void
MetricsRegistry::clear()
{
    counters.clear();
    gauges.clear();
    histograms.clear();
    labelSets.clear();
}

std::string
MetricsRegistry::textSnapshot() const
{
    std::string out;
    for (const auto &[k, c] : counters)
        out += csprintf("counter   %s%s %llu\n", k.name.c_str(),
                        k.labels.c_str(),
                        static_cast<unsigned long long>(c.value()));
    for (const auto &[k, g] : gauges)
        out += csprintf("gauge     %s%s %g\n", k.name.c_str(),
                        k.labels.c_str(), g.value());
    for (const auto &[k, h] : histograms) {
        out += csprintf("histogram %s%s count=%llu sum=%g mean=%g "
                        "p50=%g p90=%g p99=%g max=%g\n",
                        k.name.c_str(), k.labels.c_str(),
                        static_cast<unsigned long long>(h.count()),
                        h.sum(), h.mean(), h.percentile(50),
                        h.percentile(90), h.percentile(99), h.max());
    }
    return out;
}

std::vector<JsonLine>
MetricsRegistry::jsonSnapshot(const JsonLine &stamp) const
{
    std::vector<JsonLine> out;
    auto base = [&](const Key &k, const char *type) {
        JsonLine line = stamp;
        line.str("metric", k.name).str("type", type);
        auto it = labelSets.find(k);
        if (it != labelSets.end())
            for (const auto &[lk, lv] : it->second)
                line.str(lk, lv);
        return line;
    };
    for (const auto &[k, c] : counters)
        out.push_back(base(k, "counter").num("value", c.value()));
    for (const auto &[k, g] : gauges)
        out.push_back(base(k, "gauge").num("value", g.value()));
    for (const auto &[k, h] : histograms)
        out.push_back(base(k, "histogram")
                          .num("count", h.count())
                          .num("sum", h.sum())
                          .num("mean", h.mean())
                          .num("p50", h.percentile(50))
                          .num("p90", h.percentile(90))
                          .num("p99", h.percentile(99))
                          .num("max", h.max()));
    return out;
}

bool
MetricsRegistry::writeJsonLines(const std::string &path,
                                const JsonLine &stamp) const
{
    bool ok = true;
    for (const JsonLine &line : jsonSnapshot(stamp))
        ok = appendJsonLine(path, line) && ok;
    return ok;
}

} // namespace jaavr
