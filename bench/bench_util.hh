/**
 * @file
 * Shared console-reporting helpers for the table-reproduction
 * benchmark binaries: every bench prints the paper's reported value
 * next to the value this reproduction measures, plus their ratio, so
 * the shape comparison is immediate.
 *
 * Additionally provides a JSON-lines emitter (one flat object per
 * line) so every bench can append machine-readable records to a
 * BENCH_*.json file; downstream tooling tracks the perf trajectory
 * across PRs from these files.
 */

#ifndef JAAVR_BENCH_BENCH_UTIL_HH
#define JAAVR_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>

#include "avr/machine.hh"
#include "support/json.hh"

namespace jaavr::bench
{

// JSON emission lives in src/support/json.hh so the profiler and the
// benches share one (correctly escaping) implementation.
using jaavr::JsonLine;
using jaavr::appendJsonLine;

/** Schema of the stamped bench records (bump on breaking changes). */
inline constexpr uint64_t kBenchSchemaVersion = 2;

/**
 * Git revision for run stamping: the JAAVR_GIT_SHA environment
 * variable wins (CI exports the checkout SHA), else the
 * configure-time revision CMake baked into the bench binaries, else
 * "unknown" (e.g. building from a tarball).
 */
inline std::string
gitSha()
{
    if (const char *env = std::getenv("JAAVR_GIT_SHA"); env && *env)
        return env;
#ifdef JAAVR_BUILD_GIT_SHA
    return JAAVR_BUILD_GIT_SHA;
#else
    return "unknown";
#endif
}

/** The ISS backend the environment selects for this run (see
 *  issBackendFromEnv()), parsed once per process. */
inline std::string
issPathFromEnv()
{
    static const std::string path = issBackendName(issBackendFromEnv());
    return path;
}

/**
 * One JSON record pre-stamped with run metadata — schema version,
 * git revision, ISS path (the environment-selected backend) and the
 * emitting bench — so every line in a BENCH_*.json trajectory is
 * self-describing. All benches start their records here.
 */
inline JsonLine
benchLine(const std::string &bench)
{
    JsonLine line;
    line.num("schema_version", kBenchSchemaVersion)
        .str("git_sha", gitSha())
        .str("iss_path", issPathFromEnv())
        .str("bench", bench);
    return line;
}

inline void
heading(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

/** "(xR.RR)" ratio tag, or "(n/a)" when the paper gives no value —
 *  a 0 reference is "not reported", not a zero to divide by. */
inline std::string
ratioTag(double paper, double measured)
{
    if (paper <= 0)
        return "(n/a)";
    char buf[32];
    std::snprintf(buf, sizeof buf, "(x%.2f)", measured / paper);
    return buf;
}

/** Print one paper-vs-measured row with the measured/paper ratio. */
inline void
row(const std::string &label, double paper, double measured,
    const char *unit)
{
    std::printf("  %-38s paper %12.0f %-7s  measured %12.0f  %s\n",
                label.c_str(), paper, unit, measured,
                ratioTag(paper, measured).c_str());
}

/** Paper-vs-measured row for small ratios (two decimals). */
inline void
rowF(const std::string &label, double paper, double measured,
     const char *unit)
{
    std::printf("  %-38s paper %12.2f %-7s  measured %12.2f  %s\n",
                label.c_str(), paper, unit, measured,
                ratioTag(paper, measured).c_str());
}

/** Row without a paper reference value. */
inline void
rowMeasured(const std::string &label, double measured, const char *unit)
{
    std::printf("  %-38s %43s %12.0f %s\n", label.c_str(), "", measured,
                unit);
}

inline void
separator()
{
    std::printf("  %s\n", std::string(96, '-').c_str());
}

} // namespace jaavr::bench

#endif // JAAVR_BENCH_BENCH_UTIL_HH
