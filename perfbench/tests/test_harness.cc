/**
 * @file
 * Self-test of the benchmark harness on known inputs: the percentile
 * and sample-count rule, the open-loop due-time arithmetic, the cycle
 * ledger, and the result line. Exit status 0 when every check holds.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/stats.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        failures++;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void
percentiles()
{
    // 1..100: nearest rank picks the value equal to the percentile.
    std::vector<double> v;
    for (int i = 100; i >= 1; i--)
        v.push_back(i);
    Summary s = summarize(v);
    CHECK(s.n == 100);
    CHECK(s.p50 == 50);
    CHECK(s.p95 == 95);
    CHECK(s.p99 == 99);
    // Ten samples beyond p95 need 200; one beyond p99 is too few.
    CHECK(samplesBeyond(100, 95) == 5);
    CHECK(samplesBeyond(100, 99) == 1);
    CHECK(samplesBeyond(200, 95) == 10);
    CHECK(minSamplesFor(95) == 200);
    CHECK(minSamplesFor(99) == 1000);
    CHECK(minSamplesFor(50) == 20);

    std::vector<double> w;
    for (int i = 1; i <= 1000; i++)
        w.push_back(i * 0.5);
    Summary t = summarize(w);
    CHECK(samplesBeyond(t.n, 99) >= kMinBeyond);
    CHECK(t.p99 == 495);

    // Odd count: the median is the middle element; rank never 0.
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({7}) == 7);
    CHECK(percentileRank(1, 1) == 1);
    CHECK(median({}) == 0);
}

void
windowedTail()
{
    // Room for fewer than three windows: the plain p95.
    std::vector<double> v;
    for (int i = 1; i <= 2999; i++)
        v.push_back(i % 100);
    CHECK(windowedP95(v) == summarize(v).p95);

    // Ten windows of 1000; one window stalls. The plain p95 lands in
    // the stall, the windowed p95 stays at the steady windows' value.
    std::vector<double> w;
    for (int win = 0; win < 10; win++)
        for (int i = 1; i <= 1000; i++)
            w.push_back(win == 3 ? 5000.0 + i : double(i));
    CHECK(summarize(w).p95 > 5000);
    CHECK(windowedP95(w) == 950);

    // Beyond ten windows' worth the windows grow, not their number.
    std::vector<double> x(25000, 1.0);
    for (int i = 0; i < 1250; i++)
        x[i] = 9.0; // a stall in the first of ten 2500-sample windows
    CHECK(windowedP95(x) == 1.0);
}

void
dueTimes()
{
    // 300 req/s: request j is due at j / 300 s, computed from j, so
    // the millionth request lands exactly on 3333.333... s.
    CHECK(dueOffsetNs(0, 300) == 0);
    CHECK(dueOffsetNs(1, 300) == 3333333);
    CHECK(dueOffsetNs(3, 300) == 10000000);
    CHECK(dueOffsetNs(300, 300) == 1000000000);
    CHECK(dueOffsetNs(1000000, 300) == 3333333333333LL);
    // Accumulating the rounded interval instead would drift 1/3 ns
    // per request; the schedule does not.
    CHECK(dueOffsetNs(1000000, 300) != 1000000 * dueOffsetNs(1, 300));
}

void
ledger()
{
    CycleLedger l;
    CHECK(l.ratio() == 0);
    l.addCall(673);
    l.addCall(97);
    l.addRegion(770);
    CHECK(l.ratio() == 1.0);
    l.addRegion(30); // cycles outside any call break the ledger
    CHECK(l.ratio() < 1.0);
}

void
resultLine()
{
    Report r(false);
    r.set("setup_s", 0.25);
    r.attempt(true);
    r.attempt(false);
    std::string j = r.json();
    CHECK(j.rfind("{\"correct\": true, \"attempted\": 2, \"failed\": 1, "
                  "\"metrics\": {\"setup_s\": {\"value\": 0.25, "
                  "\"unit\": \"s\"}",
                  0) == 0);
    CHECK(r.failedRatio() == 0.5);
    bool threw = false;
    try {
        r.set("no_such_metric", 1);
    } catch (const std::exception &) {
        threw = true;
    }
    CHECK(threw);
    r.mismatch("deliberate");
    CHECK(!r.correct());

    Report traced(true);
    CHECK(traced.json().find("\"failed_ratio\"") != std::string::npos);
    CHECK(traced.json().find("\"setup_s\"") == std::string::npos);
}

} // namespace

int
main()
{
    percentiles();
    windowedTail();
    dueTimes();
    ledger();
    resultLine();
    if (failures)
        std::fprintf(stderr, "%d check(s) failed\n", failures);
    else
        std::printf("perfbench harness self-test: all checks passed\n");
    return failures ? 1 : 0;
}
