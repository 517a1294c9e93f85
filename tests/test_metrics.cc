/**
 * @file
 * MetricsRegistry semantics (identity, labels, histogram accuracy and
 * merge, deterministic snapshot ordering) and the JSON-lines round
 * trip through the flat-record parser in support/json.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

#include "net/session.hh"
#include "support/json.hh"
#include "support/metrics.hh"

using namespace jaavr;

TEST(Metrics, CounterIdentityByNameAndLabels)
{
    MetricsRegistry reg;
    reg.counter("ops").inc();
    reg.counter("ops").inc(41);
    EXPECT_EQ(reg.counter("ops").value(), 42u);

    // Different label sets are different instances.
    reg.counter("ops", {{"mode", "ise"}}).inc(7);
    EXPECT_EQ(reg.counter("ops").value(), 42u);
    EXPECT_EQ(reg.counter("ops", {{"mode", "ise"}}).value(), 7u);
    EXPECT_EQ(reg.counter("ops", {{"mode", "ca"}}).value(), 0u);
    EXPECT_EQ(reg.size(), 3u);

    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.counter("ops").value(), 0u);
}

TEST(Metrics, GaugeHoldsLastValue)
{
    MetricsRegistry reg;
    reg.gauge("depth").set(3);
    reg.gauge("depth").set(1.5);
    EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 1.5);
}

namespace
{

/** 10^5 seeded log-uniform samples over nine decades, [1, 10^9). */
std::vector<double>
logUniformSamples(uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> decades(0.0, 9.0);
    std::vector<double> v(100000);
    for (double &x : v)
        x = std::pow(10.0, decades(gen));
    return v;
}

/** Nearest rank on an ascending sample: rank ceil(p/100 n) in [1, n]. */
double
nearestRank(const std::vector<double> &sorted, double p)
{
    auto rank = size_t(std::ceil(p / 100.0 * double(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

const double kPercentiles[] = {0, 1, 50, 90, 99, 99.9, 100};

} // namespace

TEST(Metrics, HistogramPercentileWithinOnePercent)
{
    Histogram empty;
    EXPECT_DOUBLE_EQ(empty.percentile(50), 0);

    std::vector<double> v = logUniformSamples(13);
    Histogram h;
    for (double x : v)
        h.observe(x);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(h.count(), v.size());
    EXPECT_EQ(h.min(), v.front());
    EXPECT_EQ(h.max(), v.back());
    for (double p : kPercentiles) {
        double exact = nearestRank(v, p);
        EXPECT_LE(std::fabs(h.percentile(p) - exact), 0.01 * exact)
            << "p" << p;
    }
    EXPECT_EQ(h.percentile(0), v.front());
    EXPECT_EQ(h.percentile(100), v.back());
    // Out-of-range p clamps.
    EXPECT_EQ(h.percentile(-5), v.front());
    EXPECT_EQ(h.percentile(250), v.back());

    // Weighted observations count as repeated ones; the registry hands
    // out one instance per name.
    MetricsRegistry reg;
    Histogram &w = reg.histogram("cycles");
    std::vector<double> expanded;
    const std::pair<double, uint64_t> obs[] = {
        {1, 900}, {3.7, 90}, {250.25, 9}, {123456.5, 1}};
    for (const auto &[x, n] : obs) {
        w.observe(x, n);
        expanded.insert(expanded.end(), n, x);
    }
    EXPECT_EQ(&reg.histogram("cycles"), &w);
    EXPECT_EQ(w.count(), 1000u);
    EXPECT_DOUBLE_EQ(w.sum(), 900 + 3.7 * 90 + 250.25 * 9 + 123456.5);
    EXPECT_DOUBLE_EQ(w.mean(), w.sum() / 1000);
    for (double p : kPercentiles) {
        double exact = nearestRank(expanded, p);
        EXPECT_LE(std::fabs(w.percentile(p) - exact), 0.01 * exact)
            << "p" << p;
    }

    // A single-valued histogram is exact at every percentile, and so
    // is one of small integers (each below 256 has its own bucket).
    Histogram one, ints;
    one.observe(2459.3, 7);
    std::vector<double> iv;
    for (int x = 0; x < 256; x++) {
        ints.observe(x, x % 7 + 1);
        iv.insert(iv.end(), x % 7 + 1, x);
    }
    for (double p : kPercentiles) {
        EXPECT_EQ(one.percentile(p), 2459.3);
        EXPECT_EQ(ints.percentile(p), nearestRank(iv, p)) << "p" << p;
    }
}

TEST(Metrics, HistogramMergeIsExact)
{
    // Integer-valued samples keep every partial sum exact, so the
    // merged sum must match bit for bit.
    std::vector<double> v = logUniformSamples(29);
    for (double &x : v)
        x = std::round(x);
    Histogram all, shards[4];
    for (size_t i = 0; i < v.size(); i++) {
        all.observe(v[i]);
        shards[i % 4].observe(v[i]);
    }
    Histogram merged;
    merged.merge(Histogram()); // merging nothing changes nothing
    for (const Histogram &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.sum(), all.sum());
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
    for (int i = 0; i <= 1000; i++) {
        double p = i / 10.0;
        EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p" << p;
    }
}

TEST(Metrics, TextSnapshotIsDeterministicallyOrdered)
{
    MetricsRegistry reg;
    reg.counter("zeta").inc();
    reg.counter("alpha", {{"k", "2"}}).inc();
    reg.counter("alpha", {{"k", "1"}}).inc();
    reg.gauge("mid").set(4);
    reg.histogram("lat").observe(2459.3, 3);

    std::string snap = reg.textSnapshot();
    size_t a1 = snap.find("alpha{k=\"1\"}");
    size_t a2 = snap.find("alpha{k=\"2\"}");
    size_t z = snap.find("zeta");
    size_t m = snap.find("mid");
    ASSERT_NE(a1, std::string::npos);
    ASSERT_NE(a2, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    EXPECT_LT(a1, a2); // label order breaks the name tie
    EXPECT_LT(a2, z);  // counters sort by name

    // Two identical registries produce byte-identical snapshots.
    MetricsRegistry reg2;
    reg2.gauge("mid").set(4);
    reg2.counter("alpha", {{"k", "1"}}).inc();
    reg2.counter("alpha", {{"k", "2"}}).inc();
    reg2.counter("zeta").inc();
    reg2.histogram("lat").observe(2459.3, 3);
    EXPECT_EQ(reg2.textSnapshot(), snap);
    EXPECT_NE(snap.find("histogram lat count=3 sum=7377.9 mean=2459.3 "
                        "p50=2459.3 p90=2459.3 p99=2459.3 max=2459.3\n"),
              std::string::npos);
}

TEST(Metrics, JsonSnapshotRoundTrips)
{
    MetricsRegistry reg;
    reg.counter("macs", {{"alg", "2"}}).inc(200);
    reg.gauge("sp").set(0x10ff);
    reg.histogram("lat", {{"mode", "ise"}}).observe(2, 3);

    JsonLine stamp;
    stamp.str("bench", "unit").num("schema_version", uint64_t(2));
    std::vector<JsonLine> lines = reg.jsonSnapshot(stamp);
    ASSERT_EQ(lines.size(), 3u);

    bool saw_counter = false, saw_gauge = false, saw_hist = false;
    for (const JsonLine &line : lines) {
        JsonObject obj;
        std::string err;
        ASSERT_TRUE(parseJsonLine(line.text(), obj, &err)) << err;
        // The stamp rides on every record.
        ASSERT_TRUE(obj.at("bench").isStr());
        EXPECT_EQ(obj.at("bench").str, "unit");
        EXPECT_EQ(obj.at("schema_version").num, 2);
        const std::string &type = obj.at("type").str;
        if (type == "counter") {
            saw_counter = true;
            EXPECT_EQ(obj.at("metric").str, "macs");
            EXPECT_EQ(obj.at("alg").str, "2");
            EXPECT_EQ(obj.at("value").num, 200);
        } else if (type == "gauge") {
            saw_gauge = true;
            EXPECT_EQ(obj.at("metric").str, "sp");
            EXPECT_EQ(obj.at("value").num, 0x10ff);
        } else if (type == "histogram") {
            saw_hist = true;
            EXPECT_EQ(obj.at("metric").str, "lat");
            EXPECT_EQ(obj.at("mode").str, "ise");
            EXPECT_EQ(obj.at("count").num, 3);
            EXPECT_EQ(obj.at("sum").num, 6);
            EXPECT_EQ(obj.at("p50").num, 2);
            EXPECT_EQ(obj.at("p99").num, 2);
            EXPECT_EQ(obj.at("max").num, 2);
        }
    }
    EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(Metrics, SessionPublishRoundTripsThroughJson)
{
    // Two directly wired sessions generate real traffic, publish
    // into a registry under node/peer labels, and every record must
    // survive the JSON-lines round trip with its labels flattened.
    net::ReliableSession a{net::SessionConfig{}};
    net::ReliableSession b{net::SessionConfig{}};
    a.setTransmit([&](std::vector<uint8_t> bytes, net::SimTime t) {
        b.onWire(bytes, t);
    });
    b.setTransmit([&](std::vector<uint8_t> bytes, net::SimTime t) {
        a.onWire(bytes, t);
    });
    size_t delivered = 0;
    b.setDeliver([&](const net::Frame &, net::SimTime) {
        delivered++;
    });
    a.reset(1);
    b.reset(1);
    for (uint32_t i = 0; i < 5; i++)
        ASSERT_TRUE(a.send(net::FrameType::Data, {uint8_t(i)}, i));
    ASSERT_EQ(delivered, 5u);

    MetricsRegistry reg;
    MetricLabels labels{{"node", "a"}, {"peer", "b"}};
    a.publishMetrics(reg, labels);
    // Publishing is set-to-max: a second pass with unchanged stats
    // must not double-count.
    a.publishMetrics(reg, labels);

    uint64_t sent = 0, inflight = ~uint64_t(0), epoch = 0;
    for (const JsonLine &line : reg.jsonSnapshot()) {
        JsonObject obj;
        std::string err;
        ASSERT_TRUE(parseJsonLine(line.text(), obj, &err)) << err;
        EXPECT_EQ(obj.at("node").str, "a");
        EXPECT_EQ(obj.at("peer").str, "b");
        const std::string &metric = obj.at("metric").str;
        if (metric == "net_session_frames_sent")
            sent = uint64_t(obj.at("value").num);
        else if (metric == "net_session_inflight")
            inflight = uint64_t(obj.at("value").num);
        else if (metric == "net_session_epoch")
            epoch = uint64_t(obj.at("value").num);
    }
    EXPECT_EQ(sent, 5u);
    EXPECT_EQ(inflight, 0u); // everything acked on the clean wire
    EXPECT_EQ(epoch, 1u);
}

TEST(Metrics, WriteJsonLinesAppendsParsableRecords)
{
    std::string path =
        testing::TempDir() + "/jaavr_metrics_roundtrip.json";
    std::remove(path.c_str());

    MetricsRegistry reg;
    reg.counter("a").inc(1);
    reg.counter("b").inc(2);
    ASSERT_TRUE(reg.writeJsonLines(path));
    ASSERT_TRUE(reg.writeJsonLines(path)); // appends, second snapshot

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        JsonObject obj;
        std::string err;
        EXPECT_TRUE(parseJsonLine(line, obj, &err)) << err;
        n++;
    }
    EXPECT_EQ(n, 4u);
    std::remove(path.c_str());
}

TEST(JsonParse, AcceptsEmitterOutputWithEscapes)
{
    JsonLine line;
    line.str("k", "a\"b\\c\nd\te\x01" "f")
        .num("n", -12.5)
        .num("u", uint64_t(77));
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonLine(line.text(), obj, &err)) << err;
    EXPECT_EQ(obj.at("k").str, "a\"b\\c\nd\te\x01" "f");
    EXPECT_DOUBLE_EQ(obj.at("n").num, -12.5);
    EXPECT_DOUBLE_EQ(obj.at("u").num, 77);

    // Non-finite numbers are emitted as null and parse as Null.
    JsonLine nan_line;
    nan_line.num("x", std::nan(""));
    ASSERT_TRUE(parseJsonLine(nan_line.text(), obj, &err)) << err;
    EXPECT_EQ(obj.at("x").kind, JsonValue::Kind::Null);
}

TEST(JsonParse, AcceptsLiteralsAndWhitespace)
{
    JsonObject obj;
    ASSERT_TRUE(parseJsonLine("{}", obj));
    EXPECT_TRUE(obj.empty());
    ASSERT_TRUE(parseJsonLine(
        "  { \"a\" : true , \"b\" : false , \"c\" : null }  ", obj));
    EXPECT_EQ(obj.at("a").kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(obj.at("a").boolean);
    EXPECT_FALSE(obj.at("b").boolean);
    EXPECT_EQ(obj.at("c").kind, JsonValue::Kind::Null);
}

TEST(JsonParse, RejectsMalformedInput)
{
    JsonObject obj;
    EXPECT_FALSE(parseJsonLine("", obj));
    EXPECT_FALSE(parseJsonLine("   ", obj));
    EXPECT_FALSE(parseJsonLine("{\"a\":1} trailing", obj));
    EXPECT_FALSE(parseJsonLine("{\"a\":{}}", obj));  // nested object
    EXPECT_FALSE(parseJsonLine("{\"a\":[1]}", obj)); // array
    EXPECT_FALSE(parseJsonLine("{\"a\":1", obj));    // unterminated
    EXPECT_FALSE(parseJsonLine("{\"a\":12..3}", obj));
    EXPECT_FALSE(parseJsonLine("{\"a\":\"\x01\"}", obj)); // raw control
    EXPECT_FALSE(parseJsonLine("{\"a\":\"\\u12\"}", obj));
    EXPECT_FALSE(parseJsonLine("{a:1}", obj)); // unquoted key

    std::string err;
    EXPECT_FALSE(parseJsonLine("{\"a\":nope}", obj, &err));
    EXPECT_FALSE(err.empty());
}
